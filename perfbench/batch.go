package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
)

// checkKind selects what a stream's decode must satisfy.
type checkKind int

const (
	// checkEq8: single-pass Eq. 8 fixed-PSNR (sz). Every point within
	// its chunk's bound, measured PSNR no lower than target − tolDB.
	checkEq8 checkKind = iota
	// checkCalibrated: calibrated fixed-PSNR (sz). Every point within
	// its chunk's bound, |measured − target| ≤ tolDB.
	checkCalibrated
	// checkRatio: fixed-ratio (otc, no pointwise bound). The decode
	// succeeds with the original shape and finite values.
	checkRatio
	// checkRegion: sz region-target encode. Every point within its
	// chunk's bound, and the ROI rows within tolDB of the ROI target
	// (PSNR over the field's global range).
	checkRegion
)

// tolDB is the library's default fixed-PSNR acceptance band
// (Options.ToleranceDB = 0 selects it).
const tolDB = 0.5

// mode is one way every field of a batch workload is encoded.
type mode struct {
	name        string
	check       checkKind
	targetPSNR  float64
	targetRatio float64
	roiRows     [2]int
	opts        []fixedpsnr.Option
	enc         *fixedpsnr.Encoder
}

// streamOut is one encoded stream of the last repetition, kept for the
// traced run's layer probes (failed ones too, so the probes see what
// broke them); ok marks a stream that passed its check.
type streamOut struct {
	field int
	mode  *mode
	blob  []byte
	res   *fixedpsnr.Result
	q     quality
	ok    bool
}

// quality is what the benchmark measured on one decoded stream.
type quality struct {
	psnr    float64 // over the field's true value range
	ratio   float64 // raw bytes at declared precision / stream bytes
	roiPSNR float64 // checkRegion only
}

// batchRun is the shared engine of snapshot-psnr and steer-mix: every
// field goes through every mode's Encoder, then every stream is fully
// decoded by one Decoder and checked against the original.
type batchRun struct {
	r      *runCtx
	fields []*fixedpsnr.Field
	vr     []float64
	modes  []*mode
	dec    *fixedpsnr.Decoder
}

// setup builds the encoders and the decoder and runs one untimed
// warm-up round trip of field 0 through every mode. It returns the
// set-up time, which excludes input synthesis and output checks.
func (b *batchRun) setup(ctx context.Context) (float64, error) {
	t0 := time.Now()
	for _, m := range b.modes {
		enc, err := fixedpsnr.NewEncoder(m.opts...)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", m.name, err)
		}
		m.enc = enc
	}
	b.dec = fixedpsnr.NewDecoder()
	for _, m := range b.modes {
		if blob, _, err := m.enc.Encode(ctx, b.fields[0]); err == nil {
			b.dec.Decode(ctx, blob) // warm-up only; errors surface in the timed phase
		}
	}
	return time.Since(t0).Seconds(), nil
}

// repStats is what one repetition over all fields measured.
type repStats struct {
	encDur, decDur time.Duration
	rawBytes       int64 // raw bytes encoded (fields × modes)
	decRaw         int64 // raw bytes of the streams decoded
	streamBytes    int64
	ops            int // field round trips
	opLat          []float64
	traced         bool
	parses         int64 // codec header parses inside library calls
}

// rep runs one repetition and returns its streams. opID numbers
// operations across the run.
func (b *batchRun) rep(ctx context.Context, traced bool, opID *int64) (repStats, []streamOut) {
	r := b.r
	st := repStats{traced: traced}
	var kept []streamOut
	blobs := make([][]byte, len(b.modes))
	results := make([]*fixedpsnr.Result, len(b.modes))
	for fi, f := range b.fields {
		*opID++
		var lat time.Duration
		for mi, m := range b.modes {
			p0 := codec.HeaderParses()
			sp := r.tr.start("fixedpsnr.Encoder.Encode/"+m.name, 0, *opID)
			t := time.Now()
			blob, res, err := m.enc.Encode(ctx, f)
			d := time.Since(t)
			r.tr.end(sp)
			st.parses += codec.HeaderParses() - p0
			st.encDur += d
			lat += d
			st.rawBytes += int64(f.SizeBytes())
			if err != nil {
				blobs[mi] = nil
				r.led.record(opError("encode_error/"+m.name, err))
				continue
			}
			blobs[mi], results[mi] = blob, res
			st.streamBytes += int64(len(blob))
		}
		for mi, m := range b.modes {
			if blobs[mi] == nil {
				continue
			}
			p0 := codec.HeaderParses()
			sp := r.tr.start("fixedpsnr.Decoder.Decode/"+m.name, 0, *opID)
			d, q, fail := b.decodeCheck(ctx, m, fi, blobs[mi])
			r.tr.end(sp)
			st.parses += codec.HeaderParses() - p0
			st.decDur += d
			lat += d
			r.led.record(fail)
			if fail == nil || !strings.HasPrefix(fail.cause, "decode_error") {
				st.decRaw += int64(f.SizeBytes())
			}
			kept = append(kept, streamOut{field: fi, mode: m, blob: blobs[mi], res: results[mi], q: q, ok: fail == nil})
		}
		st.ops++
		st.opLat = append(st.opLat, ms(lat))
	}
	return st, kept
}

// decodeCheck decodes one stream with the run's Decoder, timing only
// the Decode call, and checks the result against field fi.
func (b *batchRun) decodeCheck(ctx context.Context, m *mode, fi int, blob []byte) (time.Duration, quality, *failure) {
	t := time.Now()
	recon, _, err := b.dec.Decode(ctx, blob)
	d := time.Since(t)
	if err != nil {
		return d, quality{}, opError("decode_error/"+m.name, err)
	}
	q, fail := checkStream(m, b.fields[fi], b.vr[fi], blob, recon)
	return d, q, fail
}

// checkStream verifies one decoded stream against its original and
// returns the quality the benchmark measured itself.
func checkStream(m *mode, orig *fixedpsnr.Field, vr float64, blob []byte, recon *fixedpsnr.Field) (quality, *failure) {
	q := quality{psnr: math.NaN(), roiPSNR: math.NaN()}
	q.ratio = float64(orig.SizeBytes()) / float64(len(blob))
	if recon == nil || len(recon.Data) != len(orig.Data) || fmt.Sprint(recon.Dims) != fmt.Sprint(orig.Dims) {
		return q, opWrong("shape/"+m.name, "decoded shape differs from %v", orig.Dims)
	}
	mse, maxErr := errStats(orig.Data, recon.Data)
	q.psnr = psnrDB(vr, mse)
	if math.IsNaN(maxErr) || math.IsInf(maxErr, 0) {
		return q, opWrong("nonfinite/"+m.name, "decoded values are not finite")
	}
	if m.check != checkRatio {
		h, err := codec.ParseHeader(blob)
		if err != nil {
			return q, opWrong("header/"+m.name, "%v", err)
		}
		if f := checkBound(m, h, orig.Data, recon.Data); f != nil {
			return q, f
		}
	}
	switch m.check {
	case checkEq8:
		if q.psnr < m.targetPSNR-tolDB {
			return q, opWrong("psnr_miss/"+m.name, "%s: %.3f dB < target %.1f − %.1f", orig.Name, q.psnr, m.targetPSNR, tolDB)
		}
	case checkCalibrated:
		if math.Abs(q.psnr-m.targetPSNR) > tolDB {
			return q, opWrong("psnr_miss/"+m.name, "%s: %.3f dB outside %.1f ± %.1f", orig.Name, q.psnr, m.targetPSNR, tolDB)
		}
	case checkRegion:
		inner := len(orig.Data) / orig.Dims[0]
		lo, hi := m.roiRows[0]*inner, m.roiRows[1]*inner
		roiMSE, _ := errStats(orig.Data[lo:hi], recon.Data[lo:hi])
		q.roiPSNR = psnrDB(vr, roiMSE)
		if q.roiPSNR < m.targetPSNR-tolDB {
			return q, opWrong("roi_psnr_miss/"+m.name, "%s: ROI %.3f dB < target %.1f − %.1f", orig.Name, q.roiPSNR, m.targetPSNR, tolDB)
		}
	}
	return q, nil
}

// checkBound verifies |x − x̂| ≤ the chunk's EbAbs at every point.
func checkBound(m *mode, h *codec.Header, orig, recon []float64) *failure {
	inner := h.InnerPoints()
	for ci, ck := range h.Chunks {
		eb := h.ChunkBound(ci)
		lo, hi := ck.RowStart*inner, (ck.RowStart+ck.Rows)*inner
		if hi > len(orig) {
			return opWrong("header/"+m.name, "chunk %d rows beyond the field", ci)
		}
		for i := lo; i < hi; i++ {
			if d := math.Abs(orig[i] - recon[i]); !(d <= eb) {
				return opWrong("bound/"+m.name, "chunk %d point %d: |x − x̂| = %g > EbAbs %g", ci, i, d, eb)
			}
		}
	}
	return nil
}
