package main

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/deflate"
	"fixedpsnr/internal/huffman"
)

// payloadSections is one lanes4 chunk payload split by the layout in
// internal/codec/payload.go, as the sz and otc pipelines write it:
//
//	marker, version, [otc: transform byte, uvarint blockSize,]
//	uvarint npoints, codes flag, uvarint codesLen, codes,
//	uvarint litLen, literals (DEFLATE)
type payloadSections struct {
	transform byte
	blockSize int
	npoints   int
	codesFlag byte
	codes     []byte
	literals  []byte
}

var errLegacyPayload = errors.New("legacy (pre-lanes4) chunk payload")

func parsePayload(p []byte, otc bool) (payloadSections, error) {
	var s payloadSections
	if len(p) < 2 || p[0] != codec.PayloadMarker {
		return s, errLegacyPayload
	}
	if p[1] != codec.PayloadVersionLanes4 {
		return s, fmt.Errorf("payload version %d", p[1])
	}
	rest := p[2:]
	uv := func() (int, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > uint64(len(p))*8 {
			return 0, fmt.Errorf("bad uvarint")
		}
		rest = rest[n:]
		return int(v), nil
	}
	var err error
	if otc {
		if len(rest) < 1 {
			return s, io.ErrUnexpectedEOF
		}
		s.transform, rest = rest[0], rest[1:]
		if s.blockSize, err = uv(); err != nil {
			return s, err
		}
	}
	if s.npoints, err = uv(); err != nil {
		return s, err
	}
	if len(rest) < 1 {
		return s, io.ErrUnexpectedEOF
	}
	s.codesFlag, rest = rest[0], rest[1:]
	n, err := uv()
	if err != nil || n > len(rest) {
		return s, fmt.Errorf("codes section: %v", err)
	}
	s.codes, rest = rest[:n], rest[n:]
	if n, err = uv(); err != nil || n > len(rest) {
		return s, fmt.Errorf("literal section: %v", err)
	}
	s.literals = rest[:n]
	return s, nil
}

// inflater is a reusable stdlib DEFLATE reader.
type inflater struct {
	fr  io.ReadCloser
	out bytes.Buffer
}

// inflate decompresses b; the result is valid until the next call.
func (in *inflater) inflate(b []byte) ([]byte, error) {
	if in.fr == nil {
		in.fr = flate.NewReader(bytes.NewReader(b))
	} else if err := in.fr.(flate.Resetter).Reset(bytes.NewReader(b), nil); err != nil {
		return nil, err
	}
	in.out.Reset()
	_, err := in.out.ReadFrom(in.fr)
	return in.out.Bytes(), err
}

// probeStream is a stream and the original field it was encoded from.
type probeStream struct {
	blob []byte
	orig *fixedpsnr.Field
}

// codecProbe accumulates one chunk codec's single-goroutine timings.
type codecProbe struct {
	compDur, decDur   time.Duration
	rawBytes          int64 // points × declared precision bytes
	huffEnc, deflEnc  time.Duration
	points, unpredict int64
}

// layerProbe is what the traced run measures by calling each layer's
// exported entry points on the workload's own streams, one goroutine at
// a time, after the timed phase.
type layerProbe struct {
	codecs map[string]*codecProbe

	streams, chunks   int
	payloadBytes      int64
	chunkDecDur       time.Duration // codec.DecompressChunkInto
	chunkDecCalls     int
	huffEncDur        time.Duration
	huffDecDur        time.Duration
	huffRawBytes      int64
	huffBlockBytes    int64
	huffPoints        int64
	deflEncDur        time.Duration
	deflEncBytes      int64
	inflDur           time.Duration
	inflBytes         int64
	codesKept         int
	lanes4Chunks      int
	roundtripFailures int
	roundtripDetail   []string
	probeErrors       []string
}

// probe replays every chunk of the given streams through the chunk
// codec, the codec-layer chunk decoder, the Huffman coder and the
// DEFLATE encoder, with a span around each call.
func probe(ctx context.Context, tr *tracer, streams []probeStream) *layerProbe {
	lp := &layerProbe{codecs: map[string]*codecProbe{}}
	sc := codec.NewScratch()
	hs := huffman.NewScratch()
	hd := huffman.NewDecodeScratch()
	denc := deflate.NewEncoder()
	var codesIn, litIn, checkIn inflater
	var dst []float64
	var syms []int32
	var enc, comp []byte
	var req int64
	for _, s := range streams {
		h, err := codec.ParseHeader(s.blob)
		if err != nil || len(h.Chunks) == 0 {
			continue
		}
		c, ok := codec.Lookup(h.Codec)
		cc, isChunk := c.(codec.ChunkCodec)
		if !ok || !isChunk {
			continue
		}
		name := c.Name()
		cp := lp.codecs[name]
		if cp == nil {
			cp = &codecProbe{}
			lp.codecs[name] = cp
		}
		lp.streams++
		inner := h.InnerPoints()
		prec := int64(h.Precision.Bytes())
		for ci, ck := range h.Chunks {
			req++
			payload, err := codec.ChunkPayload(s.blob, h, ci)
			if err != nil {
				lp.probeErrors = append(lp.probeErrors, err.Error())
				continue
			}
			lp.chunks++
			lp.payloadBytes += int64(len(payload))
			npts := ck.Rows * inner
			cp.points += int64(npts)
			cp.unpredict += int64(ck.Unpredictable)
			sec, perr := parsePayload(payload, name == "otc")
			copt := codec.Options{ErrorBound: h.ChunkBound(ci), Capacity: h.Capacity}
			if perr == nil && name == "otc" {
				copt.Transform, copt.BlockSize = codec.Transform(sec.transform), sec.blockSize
			}
			data := s.orig.Data[ck.RowStart*inner : ck.RowStart*inner+npts]

			root := tr.start("probe.chunk/"+name, 0, req)
			sp := tr.start(name+".CompressChunk", root.id, req)
			t := time.Now()
			_, _, err = cc.CompressChunk(ctx, data, h.ChunkDims(ci), h.Precision, copt, sc)
			cp.compDur += time.Since(t)
			tr.end(sp)
			if err != nil {
				lp.probeErrors = append(lp.probeErrors, fmt.Sprintf("%s CompressChunk: %v", name, err))
			}
			cp.rawBytes += int64(npts) * prec

			if cap(dst) < npts {
				dst = make([]float64, npts)
			}
			dst = dst[:npts]
			sp = tr.start(name+".DecompressChunk", root.id, req)
			t = time.Now()
			err = cc.DecompressChunk(payload, h, ci, dst, sc)
			cp.decDur += time.Since(t)
			tr.end(sp)
			if err != nil {
				lp.probeErrors = append(lp.probeErrors, fmt.Sprintf("%s DecompressChunk: %v", name, err))
			}
			sp = tr.start("codec.DecompressChunkInto", root.id, req)
			t = time.Now()
			codec.DecompressChunkInto(dst, h, ci, payload, sc)
			lp.chunkDecDur += time.Since(t)
			lp.chunkDecCalls++
			tr.end(sp)

			if perr != nil {
				tr.end(root)
				continue
			}
			lp.lanes4Chunks++
			block := sec.codes
			if sec.codesFlag == codec.PayloadCodesDeflate {
				lp.codesKept++
				sp = tr.start("flate.Inflate", root.id, req)
				t = time.Now()
				block, err = codesIn.inflate(sec.codes)
				lp.inflDur += time.Since(t)
				tr.end(sp)
				lp.inflBytes += int64(len(block))
				if err != nil {
					// The stored section is internal/deflate output that
					// the standard inflate rejects.
					lp.roundtripFailure(fmt.Sprintf("%s %s chunk %d: stored codes section: %v", name, h.Name, ci, err))
					tr.end(root)
					continue
				}
			}
			sp = tr.start("huffman.DecodeLanes4Into", root.id, req)
			t = time.Now()
			syms, _, err = huffman.DecodeLanes4Into(syms[:0], block, hd)
			lp.huffDecDur += time.Since(t)
			tr.end(sp)
			if err != nil {
				lp.probeErrors = append(lp.probeErrors, fmt.Sprintf("%s DecodeLanes4Into: %v", name, err))
				tr.end(root)
				continue
			}
			sp = tr.start("huffman.EncodeLanes4", root.id, req)
			t = time.Now()
			if name == "otc" {
				enc, err = huffman.EncodeLanes4Scratch(enc[:0], syms, hs)
			} else {
				enc, err = huffman.EncodeLanes4(enc[:0], syms, h.Capacity-1, hs)
			}
			d := time.Since(t)
			tr.end(sp)
			lp.huffEncDur += d
			cp.huffEnc += d
			if err != nil {
				lp.probeErrors = append(lp.probeErrors, fmt.Sprintf("%s EncodeLanes4: %v", name, err))
			}
			lp.huffRawBytes += int64(sec.npoints) * prec
			lp.huffBlockBytes += int64(len(block))
			lp.huffPoints += int64(sec.npoints)

			// The pipeline always tries DEFLATE on the codes section and
			// keeps it only when it wins; the literal section is always
			// deflated. Replay both and check each round trip.
			lits, err := litIn.inflate(sec.literals)
			if err != nil {
				lp.roundtripFailure(fmt.Sprintf("%s %s chunk %d: stored literal section: %v", name, h.Name, ci, err))
			}
			for _, in := range [][]byte{block, lits} {
				if len(in) == 0 {
					continue
				}
				sp = tr.start("deflate.AppendEncode", root.id, req)
				t = time.Now()
				comp = denc.AppendEncode(comp[:0], in)
				d = time.Since(t)
				tr.end(sp)
				lp.deflEncDur += d
				cp.deflEnc += d
				lp.deflEncBytes += int64(len(in))
				sp = tr.start("flate.Inflate", root.id, req)
				t = time.Now()
				out, err := checkIn.inflate(comp)
				lp.inflDur += time.Since(t)
				tr.end(sp)
				lp.inflBytes += int64(len(out))
				if err != nil || !bytes.Equal(out, in) {
					lp.roundtripFailure(fmt.Sprintf("%s %s chunk %d: replay of a %d-byte section: %v", name, h.Name, ci, len(in), err))
				}
			}
			tr.end(root)
		}
	}
	return lp
}

// roundtripFailure counts DEFLATE output that does not inflate back to
// its input, keeping the first few for the info line.
func (lp *layerProbe) roundtripFailure(detail string) {
	lp.roundtripFailures++
	if len(lp.roundtripDetail) < 4 {
		lp.roundtripDetail = append(lp.roundtripDetail, detail)
	}
}

// metrics turns the probe into per-layer metrics. workers is the
// GOMAXPROCS the end-to-end rates ran with; encMBps and decMBps are
// those rates (NaN when the workload has none).
func (lp *layerProbe) metrics(out map[string]metric, workers int, encMBps, decMBps float64) {
	rate := func(b int64, d time.Duration) float64 {
		if b == 0 {
			return 0
		}
		return mbps(b, d)
	}
	for _, name := range []string{"sz", "otc"} {
		cp := lp.codecs[name]
		if cp == nil {
			cp = &codecProbe{}
		}
		out[name+".compress_chunk_mbps"] = metric{rate(cp.rawBytes, cp.compDur), "MB/s"}
		out[name+".decompress_chunk_mbps"] = metric{rate(cp.rawBytes, cp.decDur), "MB/s"}
	}
	sz := lp.codecs["sz"]
	if sz == nil {
		sz = &codecProbe{}
	}
	out["sz.unpredictable_share"] = metric{ratioOr0(float64(sz.unpredict), float64(sz.points)), "share"}
	out["kernels.pq_self_s"] = metric{(sz.compDur - sz.huffEnc - sz.deflEnc).Seconds(), "s"}

	var allRaw int64
	var allComp, allDec time.Duration
	for _, cp := range lp.codecs {
		allRaw += cp.rawBytes
		allComp += cp.compDur
		allDec += cp.decDur
	}
	out["parallel.encode_scaling_eff"] = metric{ratioOr0(encMBps, float64(workers)*rate(allRaw, allComp)), "ratio"}
	out["parallel.decode_scaling_eff"] = metric{ratioOr0(decMBps, float64(workers)*rate(allRaw, allDec)), "ratio"}

	out["codec.chunks_per_stream"] = metric{ratioOr0(float64(lp.chunks), float64(lp.streams)), "count"}
	out["codec.chunk_payload_kb"] = metric{ratioOr0(float64(lp.payloadBytes)/1024, float64(lp.chunks)), "KiB"}
	out["codec.decompress_chunk_us"] = metric{ratioOr0(us(lp.chunkDecDur), float64(lp.chunkDecCalls)), "us"}

	out["huffman.encode_lanes4_mbps"] = metric{rate(lp.huffRawBytes, lp.huffEncDur), "MB/s"}
	out["huffman.decode_lanes4_mbps"] = metric{rate(lp.huffRawBytes, lp.huffDecDur), "MB/s"}
	out["huffman.bits_per_code"] = metric{ratioOr0(8*float64(lp.huffBlockBytes), float64(lp.huffPoints)), "bits"}

	out["deflate.encode_mbps"] = metric{rate(lp.deflEncBytes, lp.deflEncDur), "MB/s"}
	out["deflate.inflate_mbps"] = metric{rate(lp.inflBytes, lp.inflDur), "MB/s"}
	out["deflate.codes_kept_share"] = metric{ratioOr0(float64(lp.codesKept), float64(lp.lanes4Chunks)), "share"}
	out["deflate.roundtrip_failures"] = metric{float64(lp.roundtripFailures), "count"}
}

// ratioOr0 is a/b, or 0 when b is 0 or either side is undefined (the
// layer did no such work on this workload).
func ratioOr0(a, b float64) float64 {
	if b == 0 || a != a || b != b {
		return 0
	}
	return a / b
}
