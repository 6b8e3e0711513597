package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/fieldio"
	"fixedpsnr/internal/serve"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// query is one region request with the length and CRC-32C of the
// response it must get, precomputed in set-up from a full decode.
type query struct {
	field    int
	off, ext []int
	path     string
	wantLen  int
	wantCRC  uint32
}

// makeQueries draws n regions of one shape from the seed: a field and
// an offset. One shape keeps the response size and the chunks a
// request spans (2 or 3 with 4-row chunks and 6-row regions) the same
// for every seed, so seeds differ only in which regions are popular.
func makeQueries(seed int64, dims []int, nFields, n int, ext []int) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, n)
	for i := range qs {
		q := query{field: rng.Intn(nFields), off: make([]int, len(dims)), ext: append([]int(nil), ext...)}
		for d, dim := range dims {
			q.off[d] = rng.Intn(dim - ext[d] + 1)
		}
		qs[i] = q
	}
	return qs
}

func csv(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// sdf1 serializes a float32 field region the way the service must
// answer it (SDF1: magic, precision byte, uvarint name length, name,
// uvarint rank, uvarint dims, little-endian values). It is written here
// from the format description, independent of internal/fieldio, so the
// expected bytes do not come from the code under test.
func sdf1(name string, prec fixedpsnr.Precision, dims []int, data []float64) []byte {
	b := []byte{'S', 'D', 'F', '1', byte(prec)}
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(len(dims)))
	for _, d := range dims {
		b = binary.AppendUvarint(b, uint64(d))
	}
	for _, v := range data {
		if prec == fixedpsnr.Float32 {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		} else {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// region copies the sub-block off/ext out of a row-major field.
func region(f *fixedpsnr.Field, off, ext []int) []float64 {
	out := make([]float64, 0, ext[0]*ext[1]*ext[2])
	d1, d2 := f.Dims[1], f.Dims[2]
	for i := off[0]; i < off[0]+ext[0]; i++ {
		for j := off[1]; j < off[1]+ext[1]; j++ {
			base := (i*d1+j)*d2 + off[2]
			out = append(out, f.Data[base:base+ext[2]]...)
		}
	}
	return out
}

// checkResponse is the per-request correctness check: the status, then
// the length and CRC-32C of the body against the precomputed answer.
func checkResponse(q *query, status int, body []byte) *failure {
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return opError("shed_"+strconv.Itoa(status), fmt.Errorf("%s", bytes.TrimSpace(body)))
	case status != http.StatusOK:
		return opError("status_"+strconv.Itoa(status), fmt.Errorf("%s: %s", q.path, bytes.TrimSpace(body)))
	case len(body) != q.wantLen:
		return opWrong("response_length", "%s: %d bytes, want %d", q.path, len(body), q.wantLen)
	case crc32.Checksum(body, castagnoli) != q.wantCRC:
		return opWrong("response_crc", "%s: CRC-32C differs from the decoded region", q.path)
	}
	return nil
}

// liveServer is the service running in-process on loopback.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan error
}

// tracedHandler opens a serve.Handler span as the child of the client
// span named in the request's X-Bench-Span header (traced requests only).
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	parent, _ := strconv.ParseInt(req.Header.Get("X-Bench-Span"), 10, 64)
	if parent == 0 {
		t.h.ServeHTTP(w, req)
		return
	}
	id, _ := strconv.ParseInt(req.Header.Get("X-Bench-Req"), 10, 64)
	sp := t.tr.start("serve.Handler", parent, id)
	t.h.ServeHTTP(w, req)
	t.tr.end(sp)
}

func startServer(root string, cacheBytes int64, tr *tracer) (*liveServer, error) {
	srv, err := serve.NewServer(serve.Config{Root: root, CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Catalog().Close()
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		http: &http.Server{Handler: tracedHandler{srv.Handler(), tr}},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop shuts the HTTP server down, waits for its goroutine and closes
// the catalog.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serr := <-ls.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := ls.srv.Catalog().Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// buildArchive encodes every field at 80 dB (Eq. 8) into one archive
// file and returns the time each field spent in Encoder.Encode and the
// results.
func buildArchive(ctx context.Context, path string, fields []*fixedpsnr.Field, chunkPts int) ([]time.Duration, []*fixedpsnr.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	aw, err := fixedpsnr.NewArchiveWriter(bw)
	if err != nil {
		return nil, nil, err
	}
	enc, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(80),
		fixedpsnr.WithChunkPoints(chunkPts),
		fixedpsnr.WithWorkers(runtime.NumCPU()),
	)
	if err != nil {
		return nil, nil, err
	}
	var encDur []time.Duration
	var results []*fixedpsnr.Result
	for _, fl := range fields {
		t := time.Now()
		blob, res, err := enc.Encode(ctx, fl)
		encDur = append(encDur, time.Since(t))
		if err != nil {
			return nil, nil, fmt.Errorf("encoding %s: %w", fl.Name, err)
		}
		results = append(results, res)
		if err := aw.WriteStream(blob); err != nil {
			return nil, nil, err
		}
	}
	if err := aw.Close(); err != nil {
		return nil, nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	return encDur, results, f.Close()
}

// client is one closed-loop reader: it sends its next request only
// after the previous response has been read and checked.
type client struct {
	hc      *http.Client
	base    string
	tr      *tracer
	led     *ledger
	buf     bytes.Buffer
	samples []sample
}

// sample is one finished request: when it finished (since the timed
// phase began), its client-side latency and response size.
type sample struct {
	at, lat time.Duration
	bytes   int
	traced  bool
}

func (c *client) do(ctx context.Context, q *query, reqID int64, traced bool) (time.Duration, int, *failure) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+q.path, nil)
	if err != nil {
		return 0, 0, opError("request", err)
	}
	var sp openSpan
	if traced {
		sp = c.tr.start("http.Client.Do", 0, reqID)
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp.id, 10))
		req.Header.Set("X-Bench-Req", strconv.FormatInt(reqID, 10))
	}
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return time.Since(t), 0, opError("http_error", err)
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	c.tr.end(sp)
	if rerr != nil {
		return lat, 0, opError("http_body", rerr)
	}
	return lat, c.buf.Len(), checkResponse(q, resp.StatusCode, c.buf.Bytes())
}

func runServe(ctx context.Context, r *runCtx) error {
	dims := r.sz.serveDims
	fields, err := synthesize(datagen.NYX(dims), r.seed)
	if err != nil {
		return err
	}
	var raw int64
	for _, f := range fields {
		raw += int64(f.SizeBytes())
	}
	nClients := min(2, runtime.NumCPU())
	r.info["dims"] = dims
	r.info["fields"] = len(fields)
	r.info["chunk_points"] = r.sz.serveChunkPts
	r.info["cache_bytes"] = r.sz.serveCacheBytes
	r.info["clients"] = nClients
	r.info["zipf_s"] = zipfS
	r.info["query_ext"] = r.sz.serveQueryExt

	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.workDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	archive := filepath.Join(dir, "nyx.fpsa")
	qs := makeQueries(r.seed, dims, len(fields), r.sz.serveQueries, r.sz.serveQueryExt)
	for i := range qs {
		q := &qs[i]
		q.path = fmt.Sprintf("/v1/archives/nyx/fields/%s/region?off=%s&ext=%s", fields[q.field].Name, csv(q.off), csv(q.ext))
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nClients, DisableCompression: true}}
	defer hc.CloseIdleConnections()

	// Set-up: archive build, server start and first response, several
	// times; the last server stays up for the timed phase. The ground
	// truth (the benchmark's own work, untimed) comes from the first
	// build: decode every field, check it against its original, and
	// precompute each answer.
	r.settle()
	var setups, encRates []float64
	var ls *liveServer
	var results []*fixedpsnr.Result
	var encDur []time.Duration
	var gt *truth
	first := &client{hc: hc, tr: r.tr}
	for i := 0; i < setupReps; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		t := time.Now()
		encDur, results, err = buildArchive(ctx, archive, fields, r.sz.serveChunkPts)
		if err != nil {
			return err
		}
		setup := time.Since(t)
		if gt == nil {
			if gt, err = groundTruth(ctx, r, archive, fields, qs); err != nil {
				return err
			}
		}
		t = time.Now()
		if ls, err = startServer(dir, r.sz.serveCacheBytes, r.tr); err != nil {
			return err
		}
		first.base = ls.base
		_, _, f := first.do(ctx, &qs[0], 0, false)
		setups = append(setups, (setup + time.Since(t)).Seconds())
		var build time.Duration
		for _, d := range encDur {
			build += d
		}
		encRates = append(encRates, mbps(raw, build))
		r.led.record(f)
	}
	defer ls.stop()

	if !r.traced {
		// Only a traced run's probes use the inputs and decodes again;
		// dropping them leaves the service's own heap for the GC to scan.
		fields, gt.decoded, gt.streams = nil, nil, nil
	}

	cs := make([]*client, nClients)
	for i := range cs {
		cs[i] = &client{hc: hc, base: ls.base, tr: r.tr, led: r.led}
	}
	// Warm-up fills the cache; its requests are checked but not timed.
	loadPhase(ctx, r, cs, qs, r.seed*7919+1, time.Duration(r.sz.serveWarmSeconds*float64(time.Second)), false)
	for _, c := range cs {
		c.samples = c.samples[:0]
	}
	runtime.GC()

	c0 := ls.srv.CacheStats()
	p0 := codec.HeaderParses()
	m0 := readMem()
	s429, s503 := ls.srv.Metrics().Shed429.Load(), ls.srv.Metrics().Shed503.Load()
	phase := time.Duration(r.seconds * float64(time.Second))
	loadPhase(ctx, r, cs, qs, r.seed*7919+2, phase, r.traced)
	m1 := readMem()
	p1 := codec.HeaderParses()
	c1 := ls.srv.CacheStats()
	shed := ls.srv.Metrics().Shed429.Load() - s429 + ls.srv.Metrics().Shed503.Load() - s503
	peak := peakRSSMB()

	win := time.Duration(r.sz.serveWindow * float64(time.Second))
	nWin := int(phase / win)
	byWin := make([][]float64, nWin)
	tracedWin := make([]bool, nWin)
	var all []sample
	for _, c := range cs {
		all = append(all, c.samples...)
	}
	var respBytes int64
	for _, s := range all {
		respBytes += int64(s.bytes)
		if w := int(s.at / win); w < nWin {
			byWin[w] = append(byWin[w], ms(s.lat))
			tracedWin[w] = s.traced
		}
	}
	var rates, p50s, p99s, onRates, offRates []float64
	for w, lats := range byWin {
		if len(lats) == 0 {
			continue
		}
		rate := float64(len(lats)) / win.Seconds()
		rates = append(rates, rate)
		p50s = append(p50s, percentile(lats, 50))
		p99s = append(p99s, percentile(lats, 99))
		if tracedWin[w] {
			onRates = append(onRates, rate)
		} else {
			offRates = append(offRates, rate)
		}
	}
	r.info["requests"] = len(all)
	r.info["windows"] = len(rates)
	r.info["req_per_s_windows"] = roundAll(rates)
	hits, misses, coal := c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Coalesced-c0.Coalesced
	hitRatio := ratioOr0(float64(hits+coal), float64(hits+misses+coal))
	r.info["cache_hit_ratio"] = hitRatio
	r.info["gc_cycles"] = m1.numGC - m0.numGC
	r.info["archive_bytes"] = gt.streamBytes
	r.info["setup_s_all"] = setups
	r.info["encode_mbps_builds"] = roundAll(encRates)
	r.info["decode_mbps_passes"] = roundAll(gt.decRates)

	if !r.traced {
		r.metrics["setup_s"] = metric{median(setups), "s"}
		r.metrics["encode_mbps"] = metric{median(encRates), "MB/s"}
		r.metrics["decode_mbps"] = metric{median(gt.decRates), "MB/s"}
		r.metrics["ratio"] = metric{float64(raw) / float64(gt.streamBytes), "x"}
		r.metrics["peak_rss_mb"] = metric{peak, "MiB"}
		r.metrics["req_per_s"] = metric{median(rates), "1/s"}
		r.metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
		r.metrics["latency_p99_ms"] = metric{median(p99s), "ms"}
		return nil
	}

	out := r.metrics
	n := float64(len(all))
	out["trace.overhead_pct"] = metric{100 * (ratioOr0(median(offRates), median(onRates)) - 1), "%"}
	var encBusy time.Duration
	for _, d := range encDur {
		encBusy += d
	}
	out["fixedpsnr.encode_busy_s"] = metric{encBusy.Seconds(), "s"}
	out["fixedpsnr.decode_busy_s"] = metric{gt.decBusy.Seconds(), "s"}
	out["fixedpsnr.alloc_mb_per_op"] = metric{float64(m1.alloc-m0.alloc) / 1e6 / n, "MB"}
	out["codec.header_parses_per_req"] = metric{float64(p1-p0) / n, "count"}
	out["serve.cache_hit_ratio"] = metric{hitRatio, "share"}
	out["serve.cache_evictions"] = metric{float64(c1.Evictions - c0.Evictions), "count"}
	out["serve.coalesced"] = metric{float64(coal), "count"}
	out["serve.gc_pause_ms"] = metric{float64(m1.pauseNs-m0.pauseNs) / 1e6, "ms"}
	out["serve.resp_kb"] = metric{float64(respBytes) / 1024 / n, "KiB"}
	out["serve.shed"] = metric{float64(shed), "count"}
	out["serve.http_overhead_us"] = metric{median(httpOverheads(r.tr.spans())), "us"}

	var passes float64
	var psnrDev, eq8Err []float64
	for i, res := range results {
		passes += float64(res.Passes)
		psnrDev = append(psnrDev, gt.psnr[i]-80)
		eq8Err = append(eq8Err, res.EstimatedPSNR-gt.psnr[i])
	}
	out["plan.passes"] = metric{passes / float64(len(results)), "count"}
	out["plan.extra_pass_share"] = metric{ratioOr0(passes-float64(len(results)), passes), "share"}
	out["plan.ratio_err_pct"] = metric{0, "%"}
	out["plan.region_psnr_dev_db"] = metric{0, "dB"}
	out["plan.psnr_dev_db"] = metric{meanOr0(psnrDev), "dB"}
	out["core.eq8_err_db"] = metric{meanOr0(eq8Err), "dB"}

	serveProbe(ctx, r, ls, archive, gt, qs)
	lp := probe(ctx, r.tr, gt.streams)
	lp.metrics(out, runtime.GOMAXPROCS(0), median(encRates), median(gt.decRates))
	r.info["probe_errors"] = lp.probeErrors
	r.info["deflate_roundtrip_failures"] = lp.roundtripDetail
	return nil
}

// zipfS is the popularity skew of the query set: the head of the
// distribution fits in the chunk cache, the tail does not.
const zipfS = 1.1

// loadPhase runs the closed-loop clients for d, each drawing queries by
// zipf popularity from its own seeded source. A traced phase records
// spans in every other latency window.
func loadPhase(ctx context.Context, r *runCtx, cs []*client, qs []query, seed int64, d time.Duration, traced bool) {
	start := time.Now()
	end := start.Add(d)
	win := time.Duration(r.sz.serveWindow * float64(time.Second))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(qs)-1))
			for n := int64(0); ; n++ {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				on := traced && int(now.Sub(start)/win)%2 == 0
				q := &qs[zipf.Uint64()]
				reqID := int64(i)<<40 | n
				lat, size, f := c.do(ctx, q, reqID, on)
				c.led.record(f)
				c.samples = append(c.samples, sample{at: time.Since(start), lat: lat, bytes: size, traced: on})
			}
		}(i, c)
	}
	wg.Wait()
}

// httpOverheads pairs each traced request's client span with its
// handler span: the difference (µs) is time spent outside the handler —
// HTTP transport, loopback and scheduling.
func httpOverheads(spans []span) []float64 {
	handler := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "serve.Handler" {
			handler[s.Parent] = s.End - s.Start
		}
	}
	var over []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == "http.Client.Do" {
			over = append(over, float64(s.End-s.Start-h)/1e3)
		}
	}
	return over
}

// truth is what set-up derived from decoding the archive.
type truth struct {
	decRates    []float64
	decBusy     time.Duration
	streamBytes int64
	psnr        []float64
	decoded     []*fixedpsnr.Field
	headers     []*codec.Header
	streams     []probeStream
}

// decodePasses is how many timed full decodes of the archive decode_mbps
// is the median of.
const decodePasses = 10

// groundTruth decodes every archive entry once (warming the Decoder),
// checks each decode against its original (Eq. 8 at
// 80 dB: every point within its chunk's bound, PSNR no lower than
// target − tolDB), then decodes decodePasses more times, timed for
// decode_mbps, and fills in each query's expected length and CRC.
func groundTruth(ctx context.Context, r *runCtx, archive string, fields []*fixedpsnr.Field, qs []query) (*truth, error) {
	ar, err := fixedpsnr.OpenArchiveFile(archive)
	if err != nil {
		return nil, err
	}
	defer ar.Close()
	gt := &truth{}
	blobs := make([][]byte, len(fields))
	for i := range fields {
		if blobs[i], err = ar.Stream(i); err != nil {
			return nil, err
		}
		gt.streamBytes += int64(len(blobs[i]))
		gt.streams = append(gt.streams, probeStream{blob: blobs[i], orig: fields[i]})
	}
	dec := fixedpsnr.NewDecoder()
	m := &mode{name: "archive-sz-eq8-80db", check: checkEq8, targetPSNR: 80}
	gt.decoded = make([]*fixedpsnr.Field, len(fields))
	gt.headers = make([]*codec.Header, len(fields))
	gt.psnr = make([]float64, len(fields))
	for rep := 0; rep <= decodePasses; rep++ {
		var raw int64
		var pass time.Duration
		for i, f := range fields {
			t := time.Now()
			recon, _, err := dec.Decode(ctx, blobs[i])
			pass += time.Since(t)
			if err == nil {
				raw += int64(f.SizeBytes())
			}
			if rep > 0 {
				continue
			}
			if err != nil {
				r.led.record(opError("decode_error/"+m.name, err))
				continue
			}
			q, fail := checkStream(m, f, valueRange(f.Data), blobs[i], recon)
			r.led.record(fail)
			gt.decoded[i], gt.psnr[i] = recon, q.psnr
			if gt.headers[i], err = codec.ParseHeader(blobs[i]); err != nil {
				return nil, err
			}
		}
		if raw == 0 {
			return nil, errors.New("no archive entry decoded")
		}
		if rep > 0 {
			gt.decRates = append(gt.decRates, mbps(raw, pass))
			gt.decBusy += pass
		}
	}
	for i := range qs {
		q := &qs[i]
		f := gt.decoded[q.field]
		if f == nil {
			continue // undecodable entry: every request for it must fail
		}
		body := sdf1(f.Name, f.Precision, q.ext, region(f, q.off, q.ext))
		q.wantLen, q.wantCRC = len(body), crc32.Checksum(body, castagnoli)
	}
	return gt, nil
}

// serveProbe measures the serve, fieldio, codec-region and archive
// layers from outside after the timed phase, one call at a time.
func serveProbe(ctx context.Context, r *runCtx, ls *liveServer, archive string, gt *truth, qs []query) {
	out := r.metrics
	// The in-process replay draws from the load's own zipf popularity,
	// so its hit/miss mix matches what the clients saw.
	h := ls.srv.Handler()
	zipf := rand.NewZipf(rand.New(rand.NewSource(r.seed*7919+3)), zipfS, 1, uint64(len(qs)-1))
	var handler []float64
	n := min(len(qs), 512)
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodGet, qs[zipf.Uint64()].path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		sp := r.tr.start("serve.Handler.ServeHTTP", 0, int64(i))
		t := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, us(time.Since(t)))
		r.tr.end(sp)
	}
	out["serve.handler_us"] = metric{median(handler), "us"}

	var wbytes int64
	var wdur, cdur time.Duration
	var copies int
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		q := &qs[i]
		f := gt.decoded[q.field]
		hd := gt.headers[q.field]
		if f == nil || hd == nil {
			continue
		}
		reg := fixedpsnr.NewField(f.Name, f.Precision, q.ext...)
		inner := hd.InnerPoints()
		for ci, ck := range hd.Chunks {
			if ck.RowStart >= q.off[0]+q.ext[0] || ck.RowStart+ck.Rows <= q.off[0] {
				continue
			}
			slab := f.Data[ck.RowStart*inner : (ck.RowStart+ck.Rows)*inner]
			sp := r.tr.start("codec.CopyChunkRegion", 0, int64(i))
			t := time.Now()
			codec.CopyChunkRegion(reg.Data, hd, ci, slab, q.off, q.ext)
			cdur += time.Since(t)
			r.tr.end(sp)
			copies++
		}
		buf.Reset()
		sp := r.tr.start("fieldio.Write", 0, int64(i))
		t := time.Now()
		err := fieldio.Write(&buf, reg)
		wdur += time.Since(t)
		r.tr.end(sp)
		wbytes += int64(buf.Len())
		if err != nil || buf.Len() != q.wantLen || crc32.Checksum(buf.Bytes(), castagnoli) != q.wantCRC {
			r.info["probe_region_mismatch"] = q.path
		}
	}
	out["codec.copy_chunk_region_us"] = metric{ratioOr0(us(cdur), float64(copies)), "us"}
	out["fieldio.write_mbps"] = metric{mbps(wbytes, wdur), "MB/s"}

	ar, err := fixedpsnr.OpenArchiveFile(archive)
	if err != nil {
		r.info["probe_archive_error"] = err.Error()
		out["fixedpsnr.archive_chunk_payload_us"] = metric{0, "us"}
		return
	}
	defer ar.Close()
	var pdur time.Duration
	var calls int
	for i, hd := range gt.headers {
		if hd == nil {
			continue
		}
		for ci := range hd.Chunks {
			sp := r.tr.start("fixedpsnr.ArchiveReader.ChunkPayload", 0, int64(i))
			t := time.Now()
			_, err := ar.ChunkPayload(i, ci)
			pdur += time.Since(t)
			r.tr.end(sp)
			calls++
			if err != nil {
				r.info["probe_archive_error"] = err.Error()
			}
		}
	}
	out["fixedpsnr.archive_chunk_payload_us"] = metric{ratioOr0(us(pdur), float64(calls)), "us"}
}
