// Package otc implements an orthogonal-transform compressor: a blockwise
// orthonormal DCT-II front end (in the spirit of ZFP's custom transform
// and SSEM's wavelets) followed by the same uniform quantization + Huffman
// + DEFLATE back end as the SZ pipeline. That back end, and the chunk
// payload layout with it, is internal/codec's EncodePayload and
// DecodePayload; this package supplies the coefficient codes, literal
// coefficients, and the transform id and block size the payload prefix
// records.
//
// Its purpose in this module is twofold:
//
//   - it is the second compressor family the paper covers — Theorem 2
//     states that for orthonormal transforms the quantization-stage
//     distortion equals the reconstruction distortion, so the same Eq. 6
//     drives a fixed-PSNR mode here, with the quantization bin width
//     δ = vr·√12·10^(−PSNR/20) applied to transform coefficients; and
//   - it serves as an independent check that the fixed-PSNR analysis is
//     not an artifact of the Lorenzo predictor.
//
// Unlike the SZ pipeline, quantizing in the transform domain does not
// bound the pointwise error — only the l2 distortion is controlled, which
// is exactly the fixed-PSNR use case.
//
// Blocks are cut to the field boundary (a partial block of size r uses an
// orthonormal DCT of size r), so the whole transform stays exactly
// orthonormal without padding.
package otc

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/parallel"
	"fixedpsnr/internal/quantizer"
	"fixedpsnr/internal/transform"
)

// DefaultBlockSize is the default transform block edge length.
const DefaultBlockSize = 8

// otcCodec publishes this pipeline in the codec registry. It owns the
// orthogonal-transform stream ID; constant streams it emits carry
// codec.IDConstant and route to the sz pipeline's decoder.
type otcCodec struct{}

func (otcCodec) Name() string { return "otc" }

func (otcCodec) IDs() []codec.ID { return []codec.ID{codec.IDOTC} }

// MeasuresMSE is false: quantization happens in the transform domain and
// the pipeline does not track the data-domain distortion exactly.
func (otcCodec) MeasuresMSE() bool { return false }

func (otcCodec) Compress(ctx context.Context, f *field.Field, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	return CompressCtx(ctx, f, opt, sc)
}

func (otcCodec) Decompress(data []byte) (*field.Field, *codec.Header, error) {
	return Decompress(data)
}

// DecompressScratch implements codec.ScratchDecompressor.
func (otcCodec) DecompressScratch(data []byte, sc *codec.Scratch) (*field.Field, *codec.Header, error) {
	return DecompressScratch(data, sc)
}

// CompressChunk implements codec.ChunkCodec: one row slab through the
// blockwise transform pipeline. Blocks are cut to the chunk boundary, so
// every chunk is independently decodable.
func (otcCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	copt := opt
	if copt.Capacity == 0 {
		copt.Capacity = quantizer.DefaultCapacity
	}
	if !(copt.ErrorBound > 0) || math.IsInf(copt.ErrorBound, 0) || math.IsNaN(copt.ErrorBound) {
		return nil, codec.ChunkStats{}, fmt.Errorf("otc: error bound (half bin width) must be positive and finite, got %g", copt.ErrorBound)
	}
	q, err := quantizer.New(copt.ErrorBound, copt.Capacity)
	if err != nil {
		return nil, codec.ChunkStats{}, err
	}
	return compressChunk(ctx, data, dims, copt, q, sc)
}

// DecompressChunk implements codec.ChunkCodec for OTC streams.
func (otcCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	if h.Codec != codec.IDOTC {
		return codec.ErrNotChunked
	}
	if len(dst) != h.ChunkPoints(ci) {
		return fmt.Errorf("otc: chunk %d dst has %d points, want %d", ci, len(dst), h.ChunkPoints(ci))
	}
	return decompressChunk(payload, h, ci, dst, sc)
}

func init() { codec.Register(otcCodec{}) }

// Transform selects the orthonormal block transform (shared type; see
// codec.Transform). Blocks whose edge is not a power of two fall back to
// the DCT of the exact size under TransformHaar, so the whole transform
// stays orthonormal without padding.
type Transform = codec.Transform

// Transforms.
const (
	// TransformDCT is the orthonormal DCT-II (ZFP-flavored).
	TransformDCT = codec.TransformDCT
	// TransformHaar is the full multi-level orthonormal Haar DWT
	// (SSEM-flavored).
	TransformHaar = codec.TransformHaar
)

// Options is the unified codec configuration (see codec.Options). The
// transform pipeline reads ErrorBound (half the coefficient bin width:
// δ = 2·ErrorBound), Transform, BlockSize, Capacity, Workers, and the
// header annotations; AutoCapacity and ChunkRows are ignored.
type Options = codec.Options

// blockEdge resolves the block-size default.
func blockEdge(o Options) int {
	if o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

// Stats is the unified compression outcome report (see codec.Stats).
// This pipeline does not measure its exact MSE, so Stats.MSE is NaN.
type Stats = codec.Stats

// dctCache shares DCT basis matrices across blocks and calls.
var dctCache sync.Map // int → *transform.DCT

func dctFor(n int) (*transform.DCT, error) {
	if v, ok := dctCache.Load(n); ok {
		return v.(*transform.DCT), nil
	}
	d, err := transform.NewDCT(n)
	if err != nil {
		return nil, err
	}
	actual, _ := dctCache.LoadOrStore(n, d)
	return actual.(*transform.DCT), nil
}

// blockRange describes one block along each axis: offsets and sizes.
type blockRange struct {
	off  [3]int
	size [3]int
	n    int // total points
}

// blockGrid enumerates blocks covering dims with edge length b, cutting
// partial blocks at the boundary.
func blockGrid(dims []int, b int) []blockRange {
	steps := make([][]blockRange, len(dims))
	for a, d := range dims {
		for lo := 0; lo < d; lo += b {
			hi := lo + b
			if hi > d {
				hi = d
			}
			var r blockRange
			r.off[a] = lo
			r.size[a] = hi - lo
			steps[a] = append(steps[a], r)
		}
	}
	// Cartesian product across axes.
	blocks := []blockRange{{size: [3]int{1, 1, 1}, n: 1}}
	for a := range dims {
		var next []blockRange
		for _, base := range blocks {
			for _, s := range steps[a] {
				nb := base
				nb.off[a] = s.off[a]
				nb.size[a] = s.size[a]
				next = append(next, nb)
			}
		}
		blocks = next
	}
	for i := range blocks {
		n := 1
		for a := 0; a < len(dims); a++ {
			n *= blocks[i].size[a]
		}
		blocks[i].n = n
	}
	return blocks
}

// gatherBlock copies a block into buf (row-major within the block).
func gatherBlock(data []float64, dims []int, br blockRange, buf []float64) {
	switch len(dims) {
	case 1:
		copy(buf, data[br.off[0]:br.off[0]+br.size[0]])
	case 2:
		cols := dims[1]
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			src := (br.off[0]+i)*cols + br.off[1]
			copy(buf[idx:idx+br.size[1]], data[src:src+br.size[1]])
			idx += br.size[1]
		}
	case 3:
		d1, d2 := dims[1], dims[2]
		plane := d1 * d2
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			for j := 0; j < br.size[1]; j++ {
				src := (br.off[0]+i)*plane + (br.off[1]+j)*d2 + br.off[2]
				copy(buf[idx:idx+br.size[2]], data[src:src+br.size[2]])
				idx += br.size[2]
			}
		}
	}
}

// scatterBlock writes a block buffer back into the field array.
func scatterBlock(data []float64, dims []int, br blockRange, buf []float64) {
	switch len(dims) {
	case 1:
		copy(data[br.off[0]:br.off[0]+br.size[0]], buf)
	case 2:
		cols := dims[1]
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			dst := (br.off[0]+i)*cols + br.off[1]
			copy(data[dst:dst+br.size[1]], buf[idx:idx+br.size[1]])
			idx += br.size[1]
		}
	case 3:
		d1, d2 := dims[1], dims[2]
		plane := d1 * d2
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			for j := 0; j < br.size[1]; j++ {
				dst := (br.off[0]+i)*plane + (br.off[1]+j)*d2 + br.off[2]
				copy(data[dst:dst+br.size[2]], buf[idx:idx+br.size[2]])
				idx += br.size[2]
			}
		}
	}
}

// forwardBlock applies the separable orthonormal block transform in place
// over a block buffer with the given per-axis sizes (rank = len(sizes)).
func forwardBlock(buf []float64, sizes []int, tr Transform) error {
	return applyBlock(buf, sizes, tr, false)
}

// inverseBlock inverts forwardBlock.
func inverseBlock(buf []float64, sizes []int, tr Transform) error {
	return applyBlock(buf, sizes, tr, true)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2int(n int) int {
	l := 0
	for m := n; m > 1; m >>= 1 {
		l++
	}
	return l
}

func applyBlock(buf []float64, sizes []int, tr Transform, inverse bool) error {
	rank := len(sizes)
	// Strides for row-major layout of the block.
	strides := make([]int, rank)
	s := 1
	for a := rank - 1; a >= 0; a-- {
		strides[a] = s
		s *= sizes[a]
	}
	total := s
	line := make([]float64, 0, 64)
	out := make([]float64, 0, 64)
	for a := 0; a < rank; a++ {
		L := sizes[a]
		if L == 1 {
			continue
		}
		// Haar requires power-of-two lengths; other lengths keep the
		// exact-size DCT so the block transform remains orthonormal.
		useHaar := tr == TransformHaar && isPow2(L)
		var d *transform.DCT
		if !useHaar {
			var err error
			d, err = dctFor(L)
			if err != nil {
				return err
			}
		}
		line = line[:L]
		out = out[:L]
		stride := strides[a]
		nlines := total / L
		for ln := 0; ln < nlines; ln++ {
			// Decompose the line index into coordinates of the other
			// axes to find the base offset.
			base := 0
			rem := ln
			for x := rank - 1; x >= 0; x-- {
				if x == a {
					continue
				}
				c := rem % sizes[x]
				rem /= sizes[x]
				base += c * strides[x]
			}
			if stride == 1 {
				copy(line, buf[base:base+L])
			} else {
				idx := base
				for k := range line {
					line[k] = buf[idx]
					idx += stride
				}
			}
			if useHaar {
				levels := log2int(L)
				var err error
				if inverse {
					err = transform.HaarInverse(line, levels)
				} else {
					err = transform.HaarForward(line, levels)
				}
				if err != nil {
					return err
				}
				copy(out, line)
			} else if inverse {
				d.Inverse(out, line)
			} else {
				d.Forward(out, line)
			}
			if stride == 1 {
				copy(buf[base:base+L], out)
			} else {
				idx := base
				for k := range out {
					buf[idx] = out[k]
					idx += stride
				}
			}
		}
	}
	return nil
}

// Compress compresses the field by blockwise orthonormal DCT and uniform
// coefficient quantization with bin width opt.Delta.
func Compress(f *field.Field, opt Options) ([]byte, *Stats, error) {
	return CompressCtx(context.Background(), f, opt, nil)
}

// CompressCtx is Compress with cancellation and buffer reuse: workers
// check ctx between transform blocks (a cancelled context aborts within
// one block of work per worker and surfaces ctx.Err()), and the block
// gather buffers plus the entropy-stage staging buffers and DEFLATE
// encoder come from sc when it is non-nil.
//
// When Options.ChunkPoints or ChunkRows is set the field is tiled into
// independently decodable chunks along the slowest dimension (blocks are
// cut at chunk boundaries, preserving orthonormality), enabling
// random-access region decodes of transform streams; the default keeps
// one chunk covering the whole field, which matches the historical block
// layout exactly.
func CompressCtx(ctx context.Context, f *field.Field, opt Options, sc *codec.Scratch) ([]byte, *Stats, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	// Trust the value range the public layer already measured (see the
	// matching comment in sz.CompressCtx); rescan only when absent.
	vr := opt.ValueRange
	if vr == 0 {
		_, _, vr = f.ValueRange()
		opt.ValueRange = vr
	}
	if vr == 0 {
		return compressConstant(f, opt)
	}
	if !(opt.ErrorBound > 0) || math.IsInf(opt.ErrorBound, 0) || math.IsNaN(opt.ErrorBound) {
		return nil, nil, fmt.Errorf("otc: error bound (half bin width) must be positive and finite, got %g", opt.ErrorBound)
	}
	capacity := opt.Capacity
	if capacity == 0 {
		capacity = quantizer.DefaultCapacity
	}
	copt := opt
	copt.Capacity = capacity
	// quantizer.New takes the half-width (error bound) convention;
	// the coefficient bin width is δ = 2·ErrorBound.
	q, err := quantizer.New(opt.ErrorBound, capacity)
	if err != nil {
		return nil, nil, err
	}

	spans := chunkSpans(f.Dims, opt)
	inner := 1
	for _, d := range f.Dims[1:] {
		inner *= d
	}
	payloads := make([][]byte, len(spans))
	chunks := make([]codec.ChunkInfo, len(spans))
	totalBlocks := 0
	// Chunks run serially; the block loop inside each chunk is parallel,
	// so the default single-chunk layout keeps its full concurrency.
	for c, span := range spans {
		lo, hi := span[0], span[1]
		sub := f.Data[lo*inner : hi*inner]
		subDims := append([]int{hi - lo}, f.Dims[1:]...)
		payload, cst, err := compressChunk(ctx, sub, subDims, copt, q, sc)
		if err != nil {
			return nil, nil, err
		}
		payloads[c] = payload
		chunks[c] = codec.ChunkInfo{
			Rows:          hi - lo,
			Unpredictable: cst.Unpredictable,
			MSE:           cst.MSE,
			Min:           cst.Min,
			Max:           cst.Max,
		}
		totalBlocks += len(blockGrid(subDims, blockEdge(opt)))
	}

	h := &codec.Header{
		Codec:      codec.IDOTC,
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
	if h.TargetPSNR == 0 && opt.Mode != codec.ModePSNR {
		h.TargetPSNR = math.NaN()
	}
	out, err := codec.AssembleStream(h, payloads)
	if err != nil {
		return nil, nil, err
	}
	st := codec.StatsFromChunks(h, len(out), f.SizeBytes())
	st.ValueRange = vr
	st.Blocks = totalBlocks
	st.MSE = math.NaN() // not measured by this pipeline
	return out, st, nil
}

// ChunkSpans implements codec.ChunkPlanner, so every container
// assembler (CompressCtx here, the public streaming encoder) tiles
// identically for the same options.
func (otcCodec) ChunkSpans(dims []int, opt codec.Options) [][2]int {
	return chunkSpans(dims, opt)
}

// chunkSpans tiles dims[0] for this pipeline: a single whole-field chunk
// by default, explicit ChunkRows verbatim, and ChunkPoints rounded up to
// a multiple of the block edge so chunk boundaries do not shear
// transform blocks.
func chunkSpans(dims []int, opt Options) [][2]int {
	if opt.ChunkRows > 0 {
		return parallel.Chunks(dims[0], opt.ChunkRows)
	}
	if opt.ChunkPoints <= 0 {
		return [][2]int{{0, dims[0]}}
	}
	rows := codec.RowsForChunkPoints(dims, opt.ChunkPoints)
	b := blockEdge(opt)
	if rem := rows % b; rem != 0 && rows+b-rem <= dims[0] {
		rows += b - rem
	}
	return parallel.Chunks(dims[0], rows)
}

// compressChunk transforms, quantizes, and entropy-codes one row slab.
// Blocks within the chunk run in parallel under opt.Workers.
func compressChunk(ctx context.Context, data []float64, dims []int, opt Options, q *quantizer.Quantizer, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	var cst codec.ChunkStats
	blocks := blockGrid(dims, blockEdge(opt))
	type blockOut struct {
		codes    []int32
		literals []float64
	}
	outs := make([]blockOut, len(blocks))
	err := parallel.ForEachWorkerCtx(ctx, len(blocks), opt.Workers, func(w, bi int) error {
		br := blocks[bi]
		sc := sc.Shard(w)
		buf := sc.Floats(br.n)
		gatherBlock(data, dims, br, buf)
		sizes := br.size[:len(dims)]
		if err := forwardBlock(buf, sizes, opt.Transform); err != nil {
			sc.PutFloats(buf)
			return err
		}
		codes := make([]int32, len(buf))
		var literals []float64
		for i, c := range buf {
			code, ok := q.Quantize(c)
			if !ok {
				literals = append(literals, c)
				codes[i] = 0
				continue
			}
			codes[i] = int32(code)
		}
		sc.PutFloats(buf)
		outs[bi] = blockOut{codes: codes, literals: literals}
		return nil
	})
	if err != nil {
		return nil, cst, err
	}

	var codes []int32
	var literals []float64
	for _, o := range outs {
		codes = append(codes, o.codes...)
		literals = append(literals, o.literals...)
	}
	payload, err := codec.EncodePayload(codec.IDOTC, field.Float64, opt.Capacity, codec.Payload{
		Codes: codes, Literals: literals, Transform: opt.Transform, BlockSize: blockEdge(opt),
	}, sc)
	if err != nil {
		return nil, cst, err
	}
	cst.Unpredictable = len(literals)
	cst.MSE = math.NaN() // quantization happens in the transform domain
	cst.Min, cst.Max = codec.ValueBounds(data)
	return payload, cst, nil
}

func compressConstant(f *field.Field, opt Options) ([]byte, *Stats, error) {
	h := &codec.Header{
		Codec:      codec.IDConstant,
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
		Blocks:          1,
	}
	return out, st, nil
}

// Decompress reconstructs a field from an OTC stream. It accepts constant
// streams as well so callers can route by magic alone.
func Decompress(data []byte) (*field.Field, *codec.Header, error) {
	return DecompressScratch(data, nil)
}

// DecompressScratch is Decompress drawing transient decode buffers — the
// inflate window, code and literal slices, Huffman decode tables, and
// per-block coefficient buffers — from sc, so session callers reuse
// allocations across streams. A nil sc allocates fresh; the
// reconstruction is identical either way.
func DecompressScratch(data []byte, sc *codec.Scratch) (*field.Field, *codec.Header, error) {
	h, err := codec.ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.Codec == codec.IDConstant {
		out := field.New(h.Name, h.Precision, h.Dims...)
		for i := range out.Data {
			out.Data[i] = h.ConstValue
		}
		return out, h, nil
	}
	if h.Codec != codec.IDOTC {
		return nil, nil, fmt.Errorf("otc: stream has codec %v, not %v", h.Codec, codec.IDOTC)
	}
	out := field.New(h.Name, h.Precision, h.Dims...)
	inner := h.InnerPoints()
	for ci := range h.Chunks {
		payload, err := codec.ChunkPayload(data, h, ci)
		if err != nil {
			return nil, nil, err
		}
		lo := h.Chunks[ci].RowStart
		hi := lo + h.Chunks[ci].Rows
		if err := decompressChunk(payload, h, ci, out.Data[lo*inner:hi*inner], sc); err != nil {
			return nil, nil, err
		}
	}
	return out, h, nil
}

// decompressChunk reverses compressChunk for chunk ci, reconstructing
// into dst (the chunk's points). Blocks within the chunk run in
// parallel. Transient buffers come from sc (nil = fresh allocations).
func decompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	p, err := codec.DecodePayload(codec.IDOTC, h.Precision, payload, sc)
	if err != nil {
		return fmt.Errorf("otc: chunk %d: %w", ci, err)
	}
	defer sc.PutPayload(p)
	codes, literals := p.Codes, p.Literals
	dims := h.ChunkDims(ci)
	if len(codes) != len(dst) {
		return fmt.Errorf("otc: chunk %d has %d codes for %d points", ci, len(codes), len(dst))
	}
	q, err := quantizer.New(h.ChunkBound(ci), h.Capacity)
	if err != nil {
		return err
	}
	blocks := blockGrid(dims, p.BlockSize)

	// Pre-compute per-block offsets into the code/literal streams. The
	// literal offsets depend on the code stream, so this pass is serial;
	// the inverse transforms then run in parallel.
	codeOff := make([]int, len(blocks)+1)
	litOff := make([]int, len(blocks)+1)
	pos := 0
	lit := 0
	for bi, br := range blocks {
		codeOff[bi] = pos
		litOff[bi] = lit
		for _, c := range codes[pos : pos+br.n] {
			if c == 0 {
				lit++
			}
		}
		pos += br.n
	}
	codeOff[len(blocks)] = pos
	litOff[len(blocks)] = lit
	if lit != len(literals) {
		return fmt.Errorf("otc: literal count mismatch (%d vs %d)", lit, len(literals))
	}

	return parallel.ForEachWorkerCtx(context.Background(), len(blocks), 0, func(w, bi int) error {
		br := blocks[bi]
		sc := sc.Shard(w)
		buf := sc.Floats(br.n)
		defer sc.PutFloats(buf)
		li := litOff[bi]
		// Range over the block's code window with buf pinned to the same
		// length so the compiler drops both bounds checks in the hot loop.
		cs := codes[codeOff[bi]:codeOff[bi+1]]
		buf = buf[:len(cs)]
		for i, c := range cs {
			if c == 0 {
				buf[i] = literals[li]
				li++
				continue
			}
			buf[i] = q.Reconstruct(int(c))
		}
		sizes := br.size[:len(dims)]
		if err := inverseBlock(buf, sizes, p.Transform); err != nil {
			return err
		}
		scatterBlock(dst, dims, br, buf)
		return nil
	})
}
