package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

// runSnapshot is the paper's use case: a NYX 6-field float32 snapshot
// encoded at 80 dB by the single-pass Eq. 8 plan through one Encoder,
// every stream then fully decoded by one Decoder.
func runSnapshot(ctx context.Context, r *runCtx) error {
	fields, err := synthesize(datagen.NYX(r.sz.snapshotDims), r.seed)
	if err != nil {
		return err
	}
	r.info["dims"] = r.sz.snapshotDims
	r.info["fields"] = len(fields)
	return runBatch(ctx, r, fields, []*mode{{
		name: "sz-eq8-80db", check: checkEq8, targetPSNR: 80,
		opts: []fixedpsnr.Option{
			fixedpsnr.WithMode(fixedpsnr.ModePSNR),
			fixedpsnr.WithTargetPSNR(80),
			fixedpsnr.WithWorkers(runtime.NumCPU()),
		},
	}})
}

// runSteer drives every steering mode: a Hurricane 13-field snapshot
// with warm start off, each field encoded as calibrated sz fixed-PSNR
// at 60 dB, otc (DCT) fixed-ratio 20, and an sz region-target encode
// (an ROI row slab at 80 dB over a ratio-16 background).
func runSteer(ctx context.Context, r *runCtx) error {
	fields, err := synthesize(datagen.Hurricane(r.sz.steerDims), r.seed)
	if err != nil {
		return err
	}
	dims := r.sz.steerDims
	r.info["dims"] = dims
	r.info["fields"] = len(fields)
	r.info["roi_rows"] = r.sz.roiRows
	workers := fixedpsnr.WithWorkers(runtime.NumCPU())
	noWarm := fixedpsnr.WithWarmStart(false)
	roi := fixedpsnr.RegionTarget{
		Name: "roi",
		Region: fixedpsnr.Region{
			Off: []int{r.sz.roiRows[0], 0, 0},
			Ext: []int{r.sz.roiRows[1] - r.sz.roiRows[0], dims[1], dims[2]},
		},
		Mode:       fixedpsnr.ModePSNR,
		TargetPSNR: 80,
	}
	return runBatch(ctx, r, fields, []*mode{
		{
			name: "sz-calibrated-60db", check: checkCalibrated, targetPSNR: 60,
			opts: []fixedpsnr.Option{
				fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(60),
				fixedpsnr.WithCalibrated(true), noWarm, workers,
			},
		},
		{
			name: "otc-ratio-20", check: checkRatio, targetRatio: 20,
			opts: []fixedpsnr.Option{
				fixedpsnr.WithCompressor(fixedpsnr.CompressorTransform),
				fixedpsnr.WithMode(fixedpsnr.ModeRatio), fixedpsnr.WithTargetRatio(20), noWarm, workers,
			},
		},
		{
			name: "sz-roi-80db-bg-ratio-16", check: checkRegion, targetPSNR: 80, targetRatio: 16,
			roiRows: r.sz.roiRows,
			opts: []fixedpsnr.Option{
				fixedpsnr.WithMode(fixedpsnr.ModeRatio), fixedpsnr.WithTargetRatio(16),
				fixedpsnr.WithRegionTargets(roi), fixedpsnr.WithChunkPoints(r.sz.regionChunkPts),
				noWarm, workers,
			},
		},
	})
}

// runBatch sets up setupReps times, then repeats the whole batch until
// the timed phase ends (at least once). Rates are medians over
// repetitions. A traced run records spans on every other repetition,
// so the difference between the two halves is the tracing overhead,
// and probes each layer on the last repetition's streams.
func runBatch(ctx context.Context, r *runCtx, fields []*fixedpsnr.Field, modes []*mode) error {
	b := &batchRun{r: r, fields: fields, modes: modes}
	for _, f := range fields {
		b.vr = append(b.vr, valueRange(f.Data))
	}
	r.settle()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		s, err := b.setup(ctx)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	runtime.GC()

	m0 := readMem()
	var reps []repStats
	var kept []streamOut
	var opID int64
	var timed time.Duration
	end := r.deadline()
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		traced := r.traced && i%2 == 0
		r.tr.enabled(traced)
		t := time.Now()
		st, k := b.rep(ctx, traced, &opID)
		timed += time.Since(t)
		reps = append(reps, st)
		kept = k
	}
	m1 := readMem()
	r.tr.enabled(true)
	peak := peakRSSMB()

	var encRates, decRates, opRates, p50s, p99s []float64
	var onRates, offRates []float64
	var raw, stream, parses int64
	var encBusy, decBusy time.Duration
	ops := 0
	for _, st := range reps {
		encRates = append(encRates, mbps(st.rawBytes, st.encDur))
		decRates = append(decRates, mbps(st.decRaw, st.decDur))
		rate := float64(st.ops) / (st.encDur + st.decDur).Seconds()
		opRates = append(opRates, rate)
		if st.traced {
			onRates = append(onRates, rate)
		} else {
			offRates = append(offRates, rate)
		}
		p50s = append(p50s, percentile(st.opLat, 50))
		p99s = append(p99s, percentile(st.opLat, 99))
		raw += st.rawBytes
		stream += st.streamBytes
		parses += st.parses
		encBusy += st.encDur
		decBusy += st.decDur
		ops += st.ops
	}
	r.info["reps"] = len(reps)
	r.info["ops"] = ops
	r.info["timed_s"] = timed.Seconds()
	r.info["setup_s_all"] = setups
	r.info["modes"] = modeNames(modes)
	r.info["encode_mbps_reps"] = roundAll(encRates)
	r.info["decode_mbps_reps"] = roundAll(decRates)

	if !r.traced {
		r.metrics["setup_s"] = metric{median(setups), "s"}
		r.metrics["encode_mbps"] = metric{median(encRates), "MB/s"}
		r.metrics["decode_mbps"] = metric{median(decRates), "MB/s"}
		r.metrics["ratio"] = metric{float64(raw) / float64(stream), "x"}
		r.metrics["peak_rss_mb"] = metric{peak, "MiB"}
		r.metrics["req_per_s"] = metric{median(opRates), "1/s"}
		r.metrics["latency_p50_ms"] = metric{median(p50s), "ms"}
		r.metrics["latency_p99_ms"] = metric{median(p99s), "ms"}
		return nil
	}

	streamOps := 0
	for _, st := range reps {
		streamOps += st.ops * len(modes)
	}
	out := r.metrics
	out["fixedpsnr.encode_busy_s"] = metric{encBusy.Seconds(), "s"}
	out["fixedpsnr.decode_busy_s"] = metric{decBusy.Seconds(), "s"}
	out["fixedpsnr.alloc_mb_per_op"] = metric{float64(m1.alloc-m0.alloc) / 1e6 / float64(streamOps), "MB"}
	out["fixedpsnr.archive_chunk_payload_us"] = metric{0, "us"}
	out["codec.header_parses_per_req"] = metric{float64(parses) / float64(streamOps), "count"}
	out["codec.copy_chunk_region_us"] = metric{0, "us"}
	out["trace.overhead_pct"] = metric{100 * (ratioOr0(median(offRates), median(onRates)) - 1), "%"}
	r.info["passes_by_mode"] = batchQuality(out, kept)

	var ps []probeStream
	for _, k := range kept {
		ps = append(ps, probeStream{blob: k.blob, orig: fields[k.field]})
	}
	lp := probe(ctx, r.tr, ps)
	lp.metrics(out, runtime.GOMAXPROCS(0), median(encRates), median(decRates))
	r.info["probe_errors"] = lp.probeErrors
	r.info["deflate_roundtrip_failures"] = lp.roundtripDetail
	idleServe(out)
	return nil
}

// roundAll keeps three significant decimals for the info line.
func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

func modeNames(ms []*mode) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	return out
}

// batchQuality fills the plan and core metrics from the last
// repetition's streams that passed their checks, and returns the passes
// each mode took per field.
func batchQuality(out map[string]metric, kept []streamOut) map[string][]float64 {
	var passes, extra, n float64
	var ratioErr, roiDev, psnrDev, eq8Err []float64
	byMode := map[string][]float64{}
	for _, k := range kept {
		if !k.ok {
			continue
		}
		byMode[k.mode.name] = append(byMode[k.mode.name], float64(k.res.Passes))
		passes += float64(k.res.Passes)
		extra += float64(k.res.Passes - 1)
		n++
		switch k.mode.check {
		case checkRatio:
			ratioErr = append(ratioErr, 100*math.Abs(k.q.ratio-k.mode.targetRatio)/k.mode.targetRatio)
		case checkRegion:
			roiDev = append(roiDev, k.q.roiPSNR-k.mode.targetPSNR)
		case checkEq8, checkCalibrated:
			psnrDev = append(psnrDev, k.q.psnr-k.mode.targetPSNR)
			eq8Err = append(eq8Err, k.res.EstimatedPSNR-k.q.psnr)
		}
	}
	out["plan.passes"] = metric{ratioOr0(passes, n), "count"}
	out["plan.extra_pass_share"] = metric{ratioOr0(extra, passes), "share"}
	out["plan.ratio_err_pct"] = metric{meanOr0(ratioErr), "%"}
	out["plan.region_psnr_dev_db"] = metric{meanOr0(roiDev), "dB"}
	out["plan.psnr_dev_db"] = metric{meanOr0(psnrDev), "dB"}
	out["core.eq8_err_db"] = metric{meanOr0(eq8Err), "dB"}
	return byMode
}

func meanOr0(xs []float64) float64 {
	m := mean(xs)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return 0
	}
	return m
}

// idleServe reports the serve and fieldio layers, which a batch
// workload never calls, as idle (0).
func idleServe(out map[string]metric) {
	for _, k := range []string{"serve.handler_us", "serve.http_overhead_us"} {
		out[k] = metric{0, "us"}
	}
	out["serve.cache_hit_ratio"] = metric{0, "share"}
	out["serve.cache_evictions"] = metric{0, "count"}
	out["serve.coalesced"] = metric{0, "count"}
	out["serve.resp_kb"] = metric{0, "KiB"}
	out["serve.shed"] = metric{0, "count"}
	out["serve.gc_pause_ms"] = metric{0, "ms"}
	out["fieldio.write_mbps"] = metric{0, "MB/s"}
}
