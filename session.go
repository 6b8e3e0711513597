package fixedpsnr

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/parallel"
)

// Encoder is a reusable, concurrency-safe compression session: one
// configuration, validated once, plus pooled scratch state (quantization
// codes, reconstruction buffers, transform blocks, staging bytes, DEFLATE
// writers) that is reused across calls so steady-state encoding stops
// allocating its large transients. A server holds one Encoder per
// configuration and shares it across request handlers; every method may
// be called from any number of goroutines concurrently.
//
//	enc, err := fixedpsnr.NewEncoder(
//		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
//		fixedpsnr.WithTargetPSNR(80),
//	)
//	stream, res, err := enc.Encode(ctx, f)
//
// Every method takes a context.Context: cancellation aborts the
// compression within one slab/block of work per worker and surfaces
// ctx.Err().
//
// The one-shot Compress remains as a thin wrapper for scripts and tests;
// it is exactly Encode with context.Background() and no buffer reuse.
type Encoder struct {
	opt     Options
	scratch *codec.Scratch
	warm    *warmCache
}

// warmPoint is one cached solver settlement: the absolute bound a steered
// encode of a variable ended on, tagged with the request it answered so a
// later encode under different options never reuses it.
type warmPoint struct {
	mode   Mode
	target float64 // TargetPSNR or TargetRatio, per mode
	codec  string
	bound  float64
}

// warmCache holds per-field-name solver warm starts for one Encoder
// session: repeated snapshots of the same variable start their first
// pass at the bound the previous encode settled on instead of
// data-blind, so they converge in 1–2 passes. Safe for concurrent use;
// a nil cache (one-shot Compress) never hits.
type warmCache struct {
	mu sync.Mutex
	m  map[string]warmPoint
}

// steerTarget extracts the option value the steered mode aims at.
func steerTarget(opt Options) float64 {
	if opt.Mode == ModeRatio {
		return opt.TargetRatio
	}
	return opt.TargetPSNR
}

// lookup returns the cached bound for a field name when the cached point
// answers the same request (mode, target value, codec); ok is false
// otherwise. Unnamed fields never hit: distinct anonymous fields would
// otherwise share one entry and cross-seed each other's solver.
func (wc *warmCache) lookup(name string, opt Options) (bound float64, ok bool) {
	if wc == nil || name == "" {
		return 0, false
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wp, ok := wc.m[name]
	if !ok || wp.mode != opt.Mode || wp.target != steerTarget(opt) || wp.codec != opt.codecName() {
		return 0, false
	}
	if !(wp.bound > 0) || math.IsInf(wp.bound, 0) {
		return 0, false
	}
	return wp.bound, true
}

// store records the settled bound of a steered encode.
func (wc *warmCache) store(name string, opt Options, bound float64) {
	if wc == nil || name == "" || !(bound > 0) || math.IsInf(bound, 0) {
		return
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.m == nil {
		wc.m = make(map[string]warmPoint)
	}
	wc.m[name] = warmPoint{
		mode:   opt.Mode,
		target: steerTarget(opt),
		codec:  opt.codecName(),
		bound:  bound,
	}
}

// Option configures an Encoder (functional options for NewEncoder).
type Option func(*Options)

// WithMode selects the error-control mode.
func WithMode(m Mode) Option { return func(o *Options) { o.Mode = m } }

// WithCompressor selects the compression pipeline.
func WithCompressor(c Compressor) Option { return func(o *Options) { o.Compressor = c } }

// WithCodecName selects a registered pipeline by registry name,
// overriding WithCompressor — the hook for codecs registered through the
// public fixedpsnr/codec package.
func WithCodecName(name string) Option { return func(o *Options) { o.Codec = name } }

// WithErrorBound sets the absolute bound for ModeAbs.
func WithErrorBound(eb float64) Option { return func(o *Options) { o.ErrorBound = eb } }

// WithRelBound sets the value-range-relative bound for ModeRel.
func WithRelBound(rel float64) Option { return func(o *Options) { o.RelBound = rel } }

// WithTargetPSNR sets the PSNR target in dB for ModePSNR.
func WithTargetPSNR(db float64) Option { return func(o *Options) { o.TargetPSNR = db } }

// WithPWRelBound sets the pointwise relative bound for ModePWRel.
func WithPWRelBound(rel float64) Option { return func(o *Options) { o.PWRelBound = rel } }

// WithTargetRatio sets the target compression ratio for ModeRatio.
func WithTargetRatio(r float64) Option { return func(o *Options) { o.TargetRatio = r } }

// WithCalibrated toggles the calibrated fixed-PSNR refinement loop.
func WithCalibrated(on bool) Option { return func(o *Options) { o.Calibrated = on } }

// WithToleranceDB sets the calibrated fixed-PSNR acceptance band in dB
// (0 = the default 0.5 dB).
func WithToleranceDB(db float64) Option { return func(o *Options) { o.ToleranceDB = db } }

// WithRatioTolerance sets the fixed-ratio acceptance band as a fraction
// of the target ratio (0 = the default 0.05).
func WithRatioTolerance(frac float64) Option { return func(o *Options) { o.RatioTolerance = frac } }

// WithMaxRefinePasses bounds the extra compression passes any steered
// quality target may take (0 = per-target default).
func WithMaxRefinePasses(n int) Option { return func(o *Options) { o.MaxRefinePasses = n } }

// WithRegionTargets steers sub-blocks of every encoded field to their own
// quality targets (a region of interest at high PSNR, the background at a
// cheap fixed ratio); chunks outside every region follow the field-level
// mode. See Options.RegionTargets.
func WithRegionTargets(rts ...RegionTarget) Option {
	return func(o *Options) { o.RegionTargets = append([]RegionTarget(nil), rts...) }
}

// WithWarmStart toggles the session's per-field-name solver warm start
// (on by default; see Options.NoWarmStart).
func WithWarmStart(on bool) Option { return func(o *Options) { o.NoWarmStart = !on } }

// WithCapacity sets the quantization interval count (0 = default).
func WithCapacity(n int) Option { return func(o *Options) { o.Capacity = n } }

// WithAutoCapacity estimates the capacity from the data (SZ pipeline).
func WithAutoCapacity(on bool) Option { return func(o *Options) { o.AutoCapacity = on } }

// WithWorkers bounds compression concurrency (0 = all CPUs).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithChunkRows forces the chunk height in rows along the slowest
// dimension.
func WithChunkRows(n int) Option { return func(o *Options) { o.ChunkRows = n } }

// WithChunkPoints sets the target chunk size in points for the chunked
// container (see Options.ChunkPoints). Chunked streams decode
// region-by-region through Decoder.DecodeRegion and stream through
// Encoder.EncodeFrom with bounded memory.
func WithChunkPoints(n int) Option { return func(o *Options) { o.ChunkPoints = n } }

// WithBlockSize sets the transform block edge (transform pipeline).
func WithBlockSize(n int) Option { return func(o *Options) { o.BlockSize = n } }

// WithOptions replaces the whole option set at once — the migration path
// from code that already builds an Options value for Compress:
//
//	enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithOptions(opt))
//
// Later Option arguments still apply on top of it.
func WithOptions(opt Options) Option { return func(o *Options) { *o = opt } }

// NewEncoder builds a compression session from functional options,
// validating the configuration once up front. The zero configuration is
// ModeAbs with no bound — valid only for constant fields — so most
// callers set at least a mode and its bound.
func NewEncoder(opts ...Option) (*Encoder, error) {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{opt: o, scratch: codec.NewScratch(), warm: &warmCache{}}, nil
}

// Options returns a copy of the session configuration.
func (e *Encoder) Options() Options { return e.opt }

// Encode compresses one field and returns the self-describing stream
// plus a result summary. Cancelling ctx aborts the compression within
// one slab/block of work per worker and returns ctx.Err().
func (e *Encoder) Encode(ctx context.Context, f *Field) ([]byte, *Result, error) {
	return compress(ctx, f, e.opt, e.scratch, e.warm)
}

// EncodeTo compresses one field and writes the stream to w, for callers
// that sink straight into a file, socket, or ArchiveWriter without
// keeping the blob. The bytes written are identical to Encode's.
func (e *Encoder) EncodeTo(ctx context.Context, w io.Writer, f *Field) (*Result, error) {
	blob, res, err := e.Encode(ctx, f)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(blob); err != nil {
		return nil, fmt.Errorf("fixedpsnr: writing stream: %w", err)
	}
	return res, nil
}

// EncodeBatch compresses many fields over one shared worker pool — the
// snapshot workload: the session's Workers bound caps total concurrency
// across the batch, with the budget divided evenly across in-flight
// fields (at least one worker each), and all fields share the session's
// scratch pools. A single-field "batch" therefore compresses with the
// session's full parallelism rather than one core. Results are returned
// per field, in order. The first error (or ctx.Err() on cancellation)
// aborts the batch; in-flight fields finish, unstarted ones never run.
func (e *Encoder) EncodeBatch(ctx context.Context, fields []*Field) ([][]byte, []*Result, error) {
	if len(fields) == 0 {
		return nil, nil, fmt.Errorf("fixedpsnr: no fields to encode")
	}
	perField := e.opt
	perField.Workers = batchWorkers(e.opt.Workers, len(fields))
	streams := make([][]byte, len(fields))
	results := make([]*Result, len(fields))
	err := parallel.ForEachCtx(ctx, len(fields), e.opt.Workers, func(i int) error {
		blob, res, err := compress(ctx, fields[i], perField, e.scratch, e.warm)
		if err != nil {
			return fmt.Errorf("fixedpsnr: field %q: %w", fields[i].Name, err)
		}
		streams[i] = blob
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return streams, results, nil
}

// batchWorkers divides a session's worker budget (non-positive: all
// CPUs) evenly across the fields of a batch, at least one worker per
// field. The old behavior — every field pinned to one worker — starved
// small batches on big machines: a 2-field batch on a 16-core box used
// 2 cores.
func batchWorkers(budget, nfields int) int {
	if budget <= 0 {
		budget = parallel.DefaultWorkers()
	}
	per := budget / nfields
	if per < 1 {
		per = 1
	}
	return per
}

// Decoder is the decompression session paired with Encoder. Decoding
// routes by the codec byte in each stream header through the codec
// registry, so one Decoder reads streams from any registered pipeline.
// It holds sync.Pool-backed scratch buffers (inflate windows, Huffman
// decode tables, quantization-code slices) reused across calls, and is
// safe for concurrent use.
type Decoder struct {
	scratch *codec.Scratch
}

// NewDecoder builds a decompression session.
func NewDecoder() *Decoder { return &Decoder{scratch: codec.NewScratch()} }

// Decode reconstructs a field from any stream produced by an Encoder (or
// Compress). A cancelled ctx returns ctx.Err() without touching data.
func (d *Decoder) Decode(ctx context.Context, data []byte) (*Field, *StreamInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return codec.DecompressScratch(data, d.scratch)
}

// DecodeRegion reconstructs only the axis-aligned sub-block starting at
// off with extents ext (one entry per dimension) from a compressed
// stream — random access over the chunked container. Only the chunks the
// region's row window intersects are decoded, so latency and memory
// scale with the region, not the field, and the output is byte-identical
// to the matching slice of a full Decode. Streams without chunk-granular
// access fall back to a full decode plus crop.
func (d *Decoder) DecodeRegion(ctx context.Context, data []byte, off, ext []int) (*Field, *StreamInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return codec.DecompressRegionScratch(ctx, data, off, ext, d.scratch)
}

// DecodeFrom reads one complete compressed stream from r and
// reconstructs the field — the inverse of EncodeTo. The reader is
// consumed to EOF; framing (knowing where one stream ends when several
// are concatenated) is the archive container's job, not this method's.
func (d *Decoder) DecodeFrom(ctx context.Context, r io.Reader) (*Field, *StreamInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("fixedpsnr: reading stream: %w", err)
	}
	return d.Decode(ctx, data)
}
