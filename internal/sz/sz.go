// Package sz implements an SZ-style error-bounded lossy compressor for 1-,
// 2-, and 3-dimensional floating-point fields, modeled on SZ 1.4 (Tao et
// al., IPDPS 2017; Di & Cappello, IPDPS 2016):
//
//  1. predict every point with the Lorenzo predictor from its preceding,
//     already-reconstructed neighbors;
//  2. quantize the prediction error with error-controlled uniform
//     quantization (bin width δ = 2·ebabs, midpoint reconstruction);
//  3. entropy-code the quantization codes with a custom canonical Huffman
//     coder; and
//  4. squeeze the result with DEFLATE (the algorithm inside GZIP).
//
// Steps 3 and 4 are the shared entropy stage: internal/codec's
// EncodePayload and DecodePayload own the chunk payload layout, and this
// package only supplies the codes and literals.
//
// Points whose prediction error falls outside the quantization interval
// range are stored losslessly ("unpredictable" literals), so the
// pointwise absolute error is guaranteed ≤ ebabs for every point.
//
// The compressor optionally splits the field into independent slabs along
// the slowest dimension and compresses them concurrently; each slab
// restarts the predictor, so the error bound is unaffected.
//
// Because prediction during decompression sees exactly the reconstructed
// values the compressor saw, the pipeline is l2-norm-preserving in the
// sense of the paper's Eq. 1: X − X̃ equals the quantization-stage error
// on the prediction residuals. This is what makes the closed-form PSNR
// control of internal/core exact.
package sz

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/kernels"
	"fixedpsnr/internal/parallel"
	"fixedpsnr/internal/quantizer"
)

// Options is the unified codec configuration (see codec.Options). The SZ
// pipeline reads ErrorBound, Capacity, AutoCapacity, Workers, ChunkRows,
// ChunkPoints, and the header annotations; BlockSize and
// Transform are ignored.
type Options = codec.Options

// Stats is the unified compression outcome report (see codec.Stats).
type Stats = codec.Stats

// Compress compresses the field under the given absolute error bound and
// returns the encoded stream plus statistics.
func Compress(f *field.Field, opt Options) ([]byte, *Stats, error) {
	return CompressCtx(context.Background(), f, opt, nil)
}

// CompressCtx is Compress with cancellation and buffer reuse: workers
// check ctx between chunks (a cancelled context aborts within one chunk
// of work per worker and surfaces ctx.Err()), and the large per-chunk
// transients — quantization codes, the reconstruction buffer, the
// pre-DEFLATE staging bytes, and the DEFLATE encoder — come from scratch
// when it is non-nil, so a session reusing one scratch across calls stops
// paying those allocations on the hot path.
//
// The field is tiled into independent chunks along the slowest dimension
// (codec.ChunkSpans); each chunk restarts the predictor, compresses
// through CompressChunk, and lands in the container's chunk table with
// its exact MSE and value range, so streams are random-access at chunk
// granularity and the global fixed-PSNR accounting can aggregate
// per-chunk distortion.
func CompressCtx(ctx context.Context, f *field.Field, opt Options, sc *codec.Scratch) ([]byte, *Stats, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	// The public layer measures the value range to resolve its plan and
	// passes it down in opt.ValueRange; trust it when present instead of
	// rescanning the whole field (the scan is a measurable slice of the
	// encode profile on large fields).
	vr := opt.ValueRange
	if vr == 0 {
		_, _, vr = f.ValueRange()
		opt.ValueRange = vr
	}

	if vr == 0 {
		return compressConstant(f, opt)
	}
	if !(opt.ErrorBound > 0) || math.IsInf(opt.ErrorBound, 0) || math.IsNaN(opt.ErrorBound) {
		return nil, nil, fmt.Errorf("sz: error bound must be positive and finite, got %g", opt.ErrorBound)
	}

	capacity := opt.Capacity
	if opt.AutoCapacity {
		capacity = estimateCapacity(f.Data, f.Dims, opt.ErrorBound)
	}
	if capacity == 0 {
		capacity = quantizer.DefaultCapacity
	}
	copt := opt
	copt.Capacity = capacity

	spans := codec.ChunkSpans(f.Dims, opt)
	inner := 1
	for _, d := range f.Dims[1:] {
		inner *= d
	}

	payloads := make([][]byte, len(spans))
	chunks := make([]codec.ChunkInfo, len(spans))
	// Each worker slot compresses from its own scratch shard: chunk
	// buffers recycled by a worker come back to the same worker, so the
	// pools never shuttle multi-megabyte buffers between cores.
	err := parallel.ForEachWorkerCtx(ctx, len(spans), opt.Workers, func(w, c int) error {
		lo, hi := spans[c][0], spans[c][1]
		sub := f.Data[lo*inner : hi*inner]
		subDims := append([]int{hi - lo}, f.Dims[1:]...)
		payload, cst, err := compressChunk(sub, subDims, f.Precision, copt, sc.Shard(w))
		if err != nil {
			return fmt.Errorf("sz: chunk %d: %w", c, err)
		}
		payloads[c] = payload
		chunks[c] = codec.ChunkInfo{
			Rows:          hi - lo,
			Unpredictable: cst.Unpredictable,
			MSE:           cst.MSE,
			Min:           cst.Min,
			Max:           cst.Max,
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	h := &Header{
		Codec:      CodecLorenzo,
		Precision:  f.Precision,
		Mode:       opt.Mode,
		Name:       f.Name,
		Dims:       f.Dims,
		EbAbs:      opt.ErrorBound,
		TargetPSNR: opt.TargetPSNR,
		ValueRange: opt.ValueRange,
		Capacity:   capacity,
		Chunks:     chunks,
	}
	if h.TargetPSNR == 0 && opt.Mode != ModePSNR {
		h.TargetPSNR = math.NaN()
	}
	out, err := codec.AssembleStream(h, payloads)
	if err != nil {
		return nil, nil, err
	}
	st := codec.StatsFromChunks(h, len(out), f.SizeBytes())
	st.ValueRange = vr
	return out, st, nil
}

// compressChunk runs the full per-chunk pipeline — Lorenzo prediction,
// quantization, Huffman, DEFLATE — over one row slab and reports the
// chunk's exact statistics. opt.Capacity and opt.ErrorBound must be
// resolved (positive) already.
func compressChunk(data []float64, dims []int, prec field.Precision, opt Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	var cst codec.ChunkStats
	q, err := quantizer.New(opt.ErrorBound, opt.Capacity)
	if err != nil {
		return nil, cst, err
	}
	codes := sc.Int32s(len(data))
	recon := sc.Floats(len(data))
	literals, sumSq := compressCore(data, dims, q, codes, recon)
	sc.PutFloats(recon)
	// Chunk value bounds come from a dedicated vector-wide scan rather
	// than accumulators threaded through the (serial, latency-bound)
	// prediction loop: the scan is memory-bound at sixteen lanes while
	// two more accumulators per row would cost registers the grouped
	// kernels need, and the chunk is still cache-resident from the
	// prediction pass. NaNs are skipped; the all-NaN/empty sentinel maps
	// to NaN/NaN as ValueBounds-style callers expect.
	min, max := kernels.MinMax(data)
	if min > max {
		min, max = math.NaN(), math.NaN()
	}
	payload, err := codec.EncodePayload(codec.IDLorenzo, prec, opt.Capacity, codec.Payload{Codes: codes, Literals: literals}, sc)
	sc.PutInt32s(codes)
	if err != nil {
		return nil, cst, err
	}
	cst.Unpredictable = len(literals)
	cst.MSE = sumSq / float64(len(data))
	cst.Min, cst.Max = min, max
	return payload, cst, nil
}

// compressConstant encodes a field whose value range is zero.
func compressConstant(f *field.Field, opt Options) ([]byte, *Stats, error) {
	h := &Header{
		Codec:      CodecConstant,
		Precision:  f.Precision,
		Mode:       opt.Mode,
		Name:       f.Name,
		Dims:       f.Dims,
		ConstValue: f.Data[0],
	}
	out := h.Marshal()
	st := &Stats{
		OriginalBytes:   f.SizeBytes(),
		CompressedBytes: len(out),
		Ratio:           float64(f.SizeBytes()) / float64(len(out)),
		BitRate:         8 * float64(len(out)) / float64(f.Len()),
		NPoints:         f.Len(),
		Chunks:          1,
	}
	return out, st, nil
}

// Decompress reconstructs a field from a compressed stream.
func Decompress(data []byte) (*field.Field, *Header, error) {
	return DecompressScratch(data, nil)
}

// DecompressScratch is Decompress drawing transient decode buffers — the
// inflate window, quantization-code slices, literal slices, and Huffman
// decode tables — from sc, so session callers reuse allocations across
// streams. A nil sc allocates fresh; the reconstruction is identical
// either way.
func DecompressScratch(data []byte, sc *codec.Scratch) (*field.Field, *Header, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.Codec == CodecConstant {
		out := field.New(h.Name, h.Precision, h.Dims...)
		for i := range out.Data {
			out.Data[i] = h.ConstValue
		}
		return out, h, nil
	}
	if h.Codec == CodecLogLorenzo {
		return DecompressPWRelScratch(data, sc)
	}
	if h.Codec != CodecLorenzo {
		return nil, nil, fmt.Errorf("sz: cannot decode codec %v here", h.Codec)
	}

	out := field.New(h.Name, h.Precision, h.Dims...)
	inner := h.InnerPoints()
	err = parallel.ForEachWorkerCtx(context.Background(), len(h.Chunks), 0, func(w, c int) error {
		payload, err := codec.ChunkPayload(data, h, c)
		if err != nil {
			return err
		}
		lo := h.Chunks[c].RowStart
		hi := lo + h.Chunks[c].Rows
		return decompressChunk(payload, h, c, out.Data[lo*inner:hi*inner], sc.Shard(w))
	})
	if err != nil {
		return nil, nil, err
	}
	return out, h, nil
}

// decompressChunk reverses compressChunk for chunk c of a parsed Lorenzo
// stream, reconstructing into dst (the chunk's points). Per-chunk bounds
// written by selective recompression take precedence over the header
// bound. Transient buffers come from sc (nil = fresh allocations).
func decompressChunk(payload []byte, h *Header, c int, dst []float64, sc *codec.Scratch) error {
	q, err := quantizer.New(h.ChunkBound(c), h.Capacity)
	if err != nil {
		return err
	}
	p, err := codec.DecodePayload(codec.IDLorenzo, h.Precision, payload, sc)
	if err != nil {
		return fmt.Errorf("sz: chunk %d: %w", c, err)
	}
	defer sc.PutPayload(p)
	if len(p.Codes) != len(dst) {
		return fmt.Errorf("sz: chunk %d has %d codes, want %d", c, len(p.Codes), len(dst))
	}
	return decompressCore(dst, p.Codes, p.Literals, h.ChunkDims(c), q)
}

// compressCore runs prediction + quantization over one slab, filling the
// caller-supplied codes buffer (one code per point; 0 marks a literal)
// and using recon as the reconstructed-value working buffer (both must
// have length len(data); prior contents are ignored and overwritten). It
// returns the literal values in scan order and the exact sum of squared
// reconstruction errors over the slab (non-finite pointwise errors
// excluded). Value bounds are not measured here — kernels.MinMax scans
// them vector-wide far faster than accumulators threaded through this
// serial loop.
func compressCore(data []float64, dims []int, q *quantizer.Quantizer, codes []int32, recon []float64) (literals []float64, sumSq float64) {
	var st coreState
	switch len(dims) {
	case 1:
		compress1D(data, codes, recon, &st, q)
	case 2:
		compress2D(data, dims, codes, recon, &st, q)
	case 3:
		compress3D(data, dims, codes, recon, &st, q)
	default:
		panic("sz: unsupported rank")
	}
	return st.literals, st.sumSq
}

// coreState accumulates the slab's literals and Σe² across the
// per-rank prediction loops.
type coreState struct {
	literals []float64
	sumSq    float64
}

// quantizeStep quantizes one point against its prediction, accumulating
// the point's squared reconstruction error. Literals reconstruct
// exactly (error zero).
func quantizeStep(v, pred float64, q *quantizer.Quantizer, st *coreState) (code int32, recon float64) {
	c, rec, err, ok := q.QuantizeRecon(v - pred)
	if !ok {
		st.literals = append(st.literals, v)
		return 0, v
	}
	st.sumSq += err * err
	return int32(c), pred + rec
}

func compress1D(data []float64, codes []int32, recon []float64, st *coreState, q *quantizer.Quantizer) {
	prev := 0.0
	for i, v := range data {
		codes[i], recon[i] = quantizeStep(v, prev, q, st)
		prev = recon[i]
	}
}

// compress2D runs the 2-D Lorenzo predictor row by row. The first row
// and first column use reduced stencils (missing neighbors predict 0, so
// their terms drop out); interior points read the full three-point
// stencil from re-sliced current/upper rows, which lets the compiler
// eliminate the per-point bounds checks the flat-index form pays.
func compress2D(data []float64, dims []int, codes []int32, recon []float64, st *coreState, q *quantizer.Quantizer) {
	rows, cols := dims[0], dims[1]
	drow := data[0:cols:cols]
	rrow := recon[0:cols:cols]
	crow := codes[0:cols:cols]
	prev := 0.0
	for j, v := range drow {
		crow[j], rrow[j] = quantizeStep(v, prev, q, st)
		prev = rrow[j]
	}
	for i := 1; i < rows; i++ {
		base := i * cols
		drow := data[base : base+cols : base+cols]
		rrow := recon[base : base+cols : base+cols]
		crow := codes[base : base+cols : base+cols]
		up := recon[base-cols : base : base]
		crow[0], rrow[0] = quantizeStep(drow[0], up[0], q, st)
		for j := 1; j < cols; j++ {
			crow[j], rrow[j] = quantizeStep(drow[j], rrow[j-1]+up[j]-up[j-1], q, st)
		}
	}
}

// wfScratch pools the wavefront scheduler's bookkeeping — the per-row
// literal segment table and arena on the encode side, the per-row
// literal offsets on the decode side, and the kernels' per-row literal
// spill buffers. It is deliberately separate from codec.Scratch: these
// buffers are orders of magnitude smaller than the codes/recon slabs
// sharing those pools, and mixing sizes in one sync.Pool evicts the
// big buffers (a small buffer landing in the per-P private slot misses
// the next big request and both get reallocated).
type wfScratch struct {
	seg   []int
	offs  []int
	arena []float64
	lit   [4][]float64
}

var wfPool = sync.Pool{New: func() any { return new(wfScratch) }}

// kernelQuant mirrors q's constants for the internal/kernels fused row
// kernels.
func kernelQuant(q *quantizer.Quantizer) kernels.Quant {
	return kernels.Quant{
		InvDelta: q.InvDelta(),
		Delta:    q.Delta(),
		EB:       q.ErrorBound(),
		RadiusF:  float64(q.Radius()),
		Radius:   int64(q.Radius()),
	}
}

// wavefront3D iterates the interior rows (i > 0 and j > 0) of a d0×d1
// row grid in anti-diagonal order: all rows with i+j == d are mutually
// independent under the Lorenzo dependency (row (i,j) reads only rows
// (i,j−1), (i−1,j), (i−1,j−1), all on earlier diagonals), so the
// schedule hands them out in the widest groups available — quads,
// then a pair, then a leftover single — and each callback may process
// its rows concurrently-in-one-loop. Border rows (i == 0 or j == 0)
// are not visited; they must be processed before this runs.
func wavefront3D(d0, d1 int, quad func(i1, j1, i2, j2, i3, j3, i4, j4 int), pair func(i1, j1, i2, j2 int), single func(i, j int)) {
	for d := 2; d <= (d0-1)+(d1-1); d++ {
		iLo := 1
		if lo := d - (d1 - 1); lo > 1 {
			iLo = lo
		}
		iHi := d - 1
		if iHi > d0-1 {
			iHi = d0 - 1
		}
		i := iLo
		for ; i+3 <= iHi; i += 4 {
			quad(i, d-i, i+1, d-i-1, i+2, d-i-2, i+3, d-i-3)
		}
		if i+1 <= iHi {
			pair(i, d-i, i+1, d-i-1)
			i += 2
		}
		if i <= iHi {
			single(i, d-i)
		}
	}
}

// borderRow3D compresses one border row (i == 0 or j == 0) with the
// generic guarded seven-point stencil, appending its literals to arena
// and threading the Σe² accumulator through by value so it stays in a
// register across the row.
func borderRow3D(data, recon []float64, codes []int32, i, j, d2, plane int, q *quantizer.Quantizer, arena []float64, ssum float64) ([]float64, float64) {
	base := i*plane + j*d2
	for k := 0; k < d2; k++ {
		idx := base + k
		var x100, x010, x001, x110, x101, x011, x111 float64
		if i > 0 {
			x100 = recon[idx-plane]
		}
		if j > 0 {
			x010 = recon[idx-d2]
		}
		if k > 0 {
			x001 = recon[idx-1]
		}
		if i > 0 && j > 0 {
			x110 = recon[idx-plane-d2]
		}
		if i > 0 && k > 0 {
			x101 = recon[idx-plane-1]
		}
		if j > 0 && k > 0 {
			x011 = recon[idx-d2-1]
		}
		if i > 0 && j > 0 && k > 0 {
			x111 = recon[idx-plane-d2-1]
		}
		pred := x100 + x010 + x001 - x110 - x101 - x011 + x111
		v := data[idx]
		code, rec, e, ok := q.QuantizeRecon(v - pred)
		if ok {
			codes[idx] = int32(code)
			recon[idx] = pred + rec
			ssum += e * e
		} else {
			arena = append(arena, v)
			codes[idx] = 0
			recon[idx] = v
		}
	}
	return arena, ssum
}

// compress3D runs the 3-D Lorenzo predictor in wavefront order. Border
// rows (plane i = 0, then column j = 0) depend only on each other and
// are processed first with the generic guarded stencil; every interior
// row depends only on rows from earlier anti-diagonals, so rows sharing
// a diagonal are mutually independent and go to the fused
// predict+quantize kernels in groups — up to four serial recon
// dependency chains interleaved in one loop
// (kernels.PredictQuantizeRows4), which is what lifts the throughput
// of this latency-bound loop. The per-point arithmetic is exactly the
// historical scan-order loop's (see kernels.PredictQuantizeRow), so
// codes, reconstructions, and literals are unchanged; only the
// accumulation order of Σe² differs (per-row partial sums merged in
// schedule order), which can move the recorded chunk MSE by ulps.
//
// Literals are collected into a processing-order arena with per-row
// segments and re-concatenated in scan (row-major) order at the end,
// so the emitted literal stream is byte-identical to scan-order
// processing and the stream format is unchanged.
func compress3D(data []float64, dims []int, codes []int32, recon []float64, st *coreState, q *quantizer.Quantizer) {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 == 0 || d1 == 0 || d2 == 0 {
		return
	}
	plane := d1 * d2
	nrows := d0 * d1
	wf := wfPool.Get().(*wfScratch)
	// Per-row literal segments in the arena: seg[2r] = start,
	// seg[2r+1] = length. Every row is visited exactly once, so no
	// clearing is needed.
	if cap(wf.seg) < 2*nrows {
		wf.seg = make([]int, 2*nrows)
	}
	seg := wf.seg[:2*nrows]
	arena := wf.arena[:0]
	ssum := st.sumSq

	for j := 0; j < d1; j++ {
		start := len(arena)
		arena, ssum = borderRow3D(data, recon, codes, 0, j, d2, plane, q, arena, ssum)
		seg[2*j], seg[2*j+1] = start, len(arena)-start
	}
	for i := 1; i < d0; i++ {
		start := len(arena)
		arena, ssum = borderRow3D(data, recon, codes, i, 0, d2, plane, q, arena, ssum)
		r := i * d1
		seg[2*r], seg[2*r+1] = start, len(arena)-start
	}

	qk := kernelQuant(q)
	for l := range wf.lit {
		if cap(wf.lit[l]) < d2 {
			wf.lit[l] = make([]float64, d2)
		}
	}
	var rows [4]kernels.PQRow
	setRow := func(row *kernels.PQRow, i, j int, lit []float64) {
		base := i*plane + j*d2
		row.Data = data[base : base+d2 : base+d2]
		row.Recon = recon[base : base+d2 : base+d2]
		row.Codes = codes[base : base+d2 : base+d2]
		row.Up = recon[base-d2 : base : base]                   // (i, j-1, ·)
		row.Pl = recon[base-plane : base-plane+d2]              // (i-1, j, ·)
		row.Pu = recon[base-plane-d2 : base-plane : base-plane] // (i-1, j-1, ·)
		row.Lits = lit[:0]
		row.SumSq = 0
	}
	flush := func(row *kernels.PQRow, i, j int) {
		r := i*d1 + j
		start := len(arena)
		arena = append(arena, row.Lits...)
		seg[2*r], seg[2*r+1] = start, len(row.Lits)
		ssum += row.SumSq
	}
	wavefront3D(d0, d1,
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) {
			setRow(&rows[0], i1, j1, wf.lit[0])
			setRow(&rows[1], i2, j2, wf.lit[1])
			setRow(&rows[2], i3, j3, wf.lit[2])
			setRow(&rows[3], i4, j4, wf.lit[3])
			kernels.PredictQuantizeRows4(&qk, &rows[0], &rows[1], &rows[2], &rows[3])
			flush(&rows[0], i1, j1)
			flush(&rows[1], i2, j2)
			flush(&rows[2], i3, j3)
			flush(&rows[3], i4, j4)
		},
		func(i1, j1, i2, j2 int) {
			setRow(&rows[0], i1, j1, wf.lit[0])
			setRow(&rows[1], i2, j2, wf.lit[1])
			kernels.PredictQuantizeRows2(&qk, &rows[0], &rows[1])
			flush(&rows[0], i1, j1)
			flush(&rows[1], i2, j2)
		},
		func(i, j int) {
			setRow(&rows[0], i, j, wf.lit[0])
			kernels.PredictQuantizeRow(&qk, &rows[0])
			flush(&rows[0], i, j)
		})

	if len(arena) > 0 {
		lits := st.literals
		for r := 0; r < nrows; r++ {
			s, l := seg[2*r], seg[2*r+1]
			lits = append(lits, arena[s:s+l]...)
		}
		st.literals = lits
	}
	wf.arena = arena
	wfPool.Put(wf)
	st.sumSq = ssum
}

// decompressCore reconstructs one slab in place into out.
func decompressCore(out []float64, codes []int32, literals []float64, dims []int, q *quantizer.Quantizer) error {
	li := 0
	nextLiteral := func() (float64, error) {
		if li >= len(literals) {
			return 0, fmt.Errorf("sz: literal stream exhausted")
		}
		v := literals[li]
		li++
		return v, nil
	}
	switch len(dims) {
	case 1:
		prev := 0.0
		for i, c := range codes {
			if c == 0 {
				v, err := nextLiteral()
				if err != nil {
					return err
				}
				out[i] = v
			} else {
				out[i] = prev + q.Reconstruct(int(c))
			}
			prev = out[i]
		}
	case 2:
		// First row, then interior rows: the same interior/border split
		// as compress2D, with the stencil read from re-sliced rows so the
		// per-point bounds checks vanish.
		rows, cols := dims[0], dims[1]
		cur := out[0:cols:cols]
		prev := 0.0
		for j, c := range codes[0:cols:cols] {
			if c == 0 {
				v, err := nextLiteral()
				if err != nil {
					return err
				}
				cur[j] = v
			} else {
				cur[j] = prev + q.Reconstruct(int(c))
			}
			prev = cur[j]
		}
		for i := 1; i < rows; i++ {
			base := i * cols
			cur := out[base : base+cols : base+cols]
			crow := codes[base : base+cols : base+cols]
			up := out[base-cols : base : base]
			if c := crow[0]; c == 0 {
				v, err := nextLiteral()
				if err != nil {
					return err
				}
				cur[0] = v
			} else {
				cur[0] = up[0] + q.Reconstruct(int(c))
			}
			for j := 1; j < cols; j++ {
				c := crow[j]
				if c == 0 {
					v, err := nextLiteral()
					if err != nil {
						return err
					}
					cur[j] = v
					continue
				}
				cur[j] = cur[j-1] + up[j] - up[j-1] + q.Reconstruct(int(c))
			}
		}
	case 3:
		// The 3-D path reconstructs in the same wavefront order as
		// compress3D, pairing independent anti-diagonal rows into the
		// interleaved reconstruction kernels; literal positions are
		// recovered by a per-row zero-count pre-pass, since the literal
		// stream is stored in scan (row-major) order.
		return decompress3D(out, codes, literals, dims, q)
	default:
		return fmt.Errorf("sz: unsupported rank %d", len(dims))
	}
	if li != len(literals) {
		return fmt.Errorf("sz: %d literals left over", len(literals)-li)
	}
	return nil
}

// decompress3D reconstructs a 3-D slab in wavefront order: border rows
// (plane i = 0, then column j = 0) with the generic guarded stencil,
// then interior anti-diagonals through the grouped reconstruction
// kernels (kernels.ReconstructRows4/Rows2), whose interleaved loops
// overlap the rows' serial prediction chains. The literal stream is
// stored in scan order, so a counting pre-pass over the codes gives
// every row its exact literal segment and rows can then run in any
// dependency-respecting order.
func decompress3D(out []float64, codes []int32, literals []float64, dims []int, q *quantizer.Quantizer) error {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 == 0 || d1 == 0 || d2 == 0 {
		if len(literals) != 0 {
			return fmt.Errorf("sz: %d literals left over", len(literals))
		}
		return nil
	}
	plane := d1 * d2
	nrows := d0 * d1
	wf := wfPool.Get().(*wfScratch)
	if cap(wf.offs) < nrows+1 {
		wf.offs = make([]int, nrows+1)
	}
	offs := wf.offs[:nrows+1]
	total := 0
	for r := 0; r < nrows; r++ {
		offs[r] = total
		base := r * d2
		z := 0
		for _, c := range codes[base : base+d2] {
			if c == 0 {
				z++
			}
		}
		total += z
	}
	offs[nrows] = total
	if total > len(literals) {
		wfPool.Put(wf)
		return fmt.Errorf("sz: literal stream exhausted")
	}
	if total < len(literals) {
		wfPool.Put(wf)
		return fmt.Errorf("sz: %d literals left over", len(literals)-total)
	}
	rowLits := func(i, j int) []float64 {
		r := i*d1 + j
		return literals[offs[r]:offs[r+1]:offs[r+1]]
	}

	border := func(i, j int) {
		lits := rowLits(i, j)
		li := 0
		base := i*plane + j*d2
		for k := 0; k < d2; k++ {
			idx := base + k
			c := codes[idx]
			if c == 0 {
				out[idx] = lits[li]
				li++
				continue
			}
			var x100, x010, x001, x110, x101, x011, x111 float64
			if i > 0 {
				x100 = out[idx-plane]
			}
			if j > 0 {
				x010 = out[idx-d2]
			}
			if k > 0 {
				x001 = out[idx-1]
			}
			if i > 0 && j > 0 {
				x110 = out[idx-plane-d2]
			}
			if i > 0 && k > 0 {
				x101 = out[idx-plane-1]
			}
			if j > 0 && k > 0 {
				x011 = out[idx-d2-1]
			}
			if i > 0 && j > 0 && k > 0 {
				x111 = out[idx-plane-d2-1]
			}
			pred := x100 + x010 + x001 - x110 - x101 - x011 + x111
			out[idx] = pred + q.Reconstruct(int(c))
		}
	}
	for j := 0; j < d1; j++ {
		border(0, j)
	}
	for i := 1; i < d0; i++ {
		border(i, 0)
	}

	qk := kernelQuant(q)
	var rows [4]kernels.RRRow
	setRow := func(row *kernels.RRRow, i, j int) {
		base := i*plane + j*d2
		row.Out = out[base : base+d2 : base+d2]
		row.Codes = codes[base : base+d2 : base+d2]
		row.Up = out[base-d2 : base : base]                   // (i, j-1, ·)
		row.Pl = out[base-plane : base-plane+d2]              // (i-1, j, ·)
		row.Pu = out[base-plane-d2 : base-plane : base-plane] // (i-1, j-1, ·)
		row.Lits = rowLits(i, j)
	}
	wavefront3D(d0, d1,
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) {
			setRow(&rows[0], i1, j1)
			setRow(&rows[1], i2, j2)
			setRow(&rows[2], i3, j3)
			setRow(&rows[3], i4, j4)
			kernels.ReconstructRows4(&qk, &rows[0], &rows[1], &rows[2], &rows[3])
		},
		func(i1, j1, i2, j2 int) {
			setRow(&rows[0], i1, j1)
			setRow(&rows[1], i2, j2)
			kernels.ReconstructRows2(&qk, &rows[0], &rows[1])
		},
		func(i, j int) {
			setRow(&rows[0], i, j)
			kernels.ReconstructRow(&qk, &rows[0])
		})
	wfPool.Put(wf)
	return nil
}

// estimateCapacity samples first-phase prediction errors (predicting from
// original values, which is a close proxy for the reconstructed-value
// predictions) and returns the smallest power-of-two capacity ≥ 256 whose
// interval range captures at least 99% of them, capped at the default
// capacity.
func estimateCapacity(data []float64, dims []int, eb float64) int {
	const (
		maxSamples = 1 << 16
		hitTarget  = 0.99
	)
	n := len(data)
	stride := n / maxSamples
	if stride < 1 {
		stride = 1
	}
	delta := 2 * eb
	// Collect |q| for sampled points using the rank-matched predictor on
	// original data.
	var absIdx []float64
	switch len(dims) {
	case 1:
		for i := stride; i < n; i += stride {
			absIdx = append(absIdx, math.Abs((data[i]-data[i-1])/delta))
		}
	case 2:
		cols := dims[1]
		for idx := stride; idx < n; idx += stride {
			i, j := idx/cols, idx%cols
			var a, b, d float64
			if j > 0 {
				a = data[idx-1]
			}
			if i > 0 {
				b = data[idx-cols]
				if j > 0 {
					d = data[idx-cols-1]
				}
			}
			absIdx = append(absIdx, math.Abs((data[idx]-(a+b-d))/delta))
		}
	case 3:
		d1, d2 := dims[1], dims[2]
		plane := d1 * d2
		for idx := stride; idx < n; idx += stride {
			i := idx / plane
			rem := idx % plane
			j := rem / d2
			k := rem % d2
			var x100, x010, x001, x110, x101, x011, x111 float64
			if i > 0 {
				x100 = data[idx-plane]
			}
			if j > 0 {
				x010 = data[idx-d2]
			}
			if k > 0 {
				x001 = data[idx-1]
			}
			if i > 0 && j > 0 {
				x110 = data[idx-plane-d2]
			}
			if i > 0 && k > 0 {
				x101 = data[idx-plane-1]
			}
			if j > 0 && k > 0 {
				x011 = data[idx-d2-1]
			}
			if i > 0 && j > 0 && k > 0 {
				x111 = data[idx-plane-d2-1]
			}
			pred := x100 + x010 + x001 - x110 - x101 - x011 + x111
			absIdx = append(absIdx, math.Abs((data[idx]-pred)/delta))
		}
	}
	if len(absIdx) == 0 {
		return quantizer.DefaultCapacity
	}
	for capacity := 256; capacity < quantizer.DefaultCapacity; capacity *= 2 {
		radius := float64(capacity / 2)
		hits := 0
		for _, a := range absIdx {
			if a < radius-0.5 {
				hits++
			}
		}
		if float64(hits)/float64(len(absIdx)) >= hitTarget {
			return capacity
		}
	}
	return quantizer.DefaultCapacity
}
