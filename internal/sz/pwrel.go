package sz

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Pointwise-relative compression (SZ's third traditional error-control
// mode, listed in the paper's §II-B) is implemented by compressing in the
// logarithmic domain: y = ln|x| is compressed with the ordinary Lorenzo
// pipeline under the absolute bound ebLog = ln(1 + ebRel), which
// guarantees |x̃/x − 1| ≤ ebRel for every non-zero point. Signs and exact
// zeros travel in bit masks alongside the inner stream.
//
// Stream layout (codec CodecLogLorenzo): the outer container header
// records ebRel in its EbAbs slot, followed by one payload chunk:
//
//	ebRel               8 bytes IEEE-754 LE
//	maskLen             uvarint (compressed byte count)
//	flate(signMask || zeroMask)   each mask ⌈n/8⌉ bytes, MSB-first
//	inner CodecLorenzo stream     (the log-domain field)

// CompressPWRel compresses the field under a pointwise relative error
// bound: every reconstructed value satisfies |x̃ − x| ≤ ebRel·|x| (zeros
// are reconstructed exactly). Values whose magnitude underflows the log
// domain (denormals) are handled like any other: ln|x| is finite for all
// non-zero floats.
func CompressPWRel(f *field.Field, ebRel float64, opt Options) ([]byte, *Stats, error) {
	return CompressPWRelCtx(context.Background(), f, ebRel, opt, nil)
}

// CompressPWRelCtx is CompressPWRel with cancellation and buffer reuse:
// ctx and sc are threaded into the inner log-domain Lorenzo compression,
// and the mask DEFLATE encoder comes from the scratch pool.
func CompressPWRelCtx(ctx context.Context, f *field.Field, ebRel float64, opt Options, sc *codec.Scratch) ([]byte, *Stats, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	if !(ebRel > 0) || ebRel >= 1 || math.IsNaN(ebRel) {
		return nil, nil, fmt.Errorf("sz: pointwise relative bound must be in (0, 1), got %g", ebRel)
	}
	n := f.Len()
	// One backing array so the concatenated masks DEFLATE as a single
	// write with no join copy.
	maskBytes := (n + 7) / 8
	masks := make([]byte, 2*maskBytes)
	signMask := masks[:maskBytes]
	zeroMask := masks[maskBytes:]
	logField := field.New(f.Name, field.Float64, f.Dims...)
	for i, v := range f.Data {
		if math.Signbit(v) {
			signMask[i/8] |= 1 << (7 - i%8)
		}
		if v == 0 {
			zeroMask[i/8] |= 1 << (7 - i%8)
			// A neutral stand-in keeps the log field smooth; the zero
			// mask restores exactness.
			logField.Data[i] = 0
			continue
		}
		logField.Data[i] = math.Log(math.Abs(v))
	}

	ebLog := math.Log1p(ebRel) * (1 - 1e-12) // tiny margin for exp/log rounding
	innerOpt := opt
	innerOpt.ErrorBound = ebLog
	innerOpt.Mode = ModePWRel
	innerOpt.TargetPSNR = math.NaN()
	inner, innerStats, err := CompressCtx(ctx, logField, innerOpt, sc)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: pwrel inner compression: %w", err)
	}

	maskStream := sc.AppendDeflate(nil, masks)

	payload := make([]byte, 0, 16+len(maskStream)+len(inner))
	payload = appendFloat64(payload, ebRel)
	payload = binary.AppendUvarint(payload, uint64(len(maskStream)))
	payload = append(payload, maskStream...)
	payload = append(payload, inner...)

	_, _, vr := f.ValueRange()
	h := &Header{
		Codec:      CodecLogLorenzo,
		Precision:  f.Precision,
		Mode:       ModePWRel,
		Name:       f.Name,
		Dims:       f.Dims,
		EbAbs:      ebRel, // the pointwise relative bound, by convention
		TargetPSNR: math.NaN(),
		ValueRange: vr,
		Capacity:   innerStats.Capacity,
		Chunks: []codec.ChunkInfo{{
			Rows: f.Dims[0],
			Len:  len(payload),
			MSE:  math.NaN(), // log-domain streams do not track data-domain MSE
			Min:  math.NaN(),
			Max:  math.NaN(),
		}},
	}
	if h.Capacity == 0 {
		h.Capacity = 4 // constant inner stream; keep header valid
	}
	out := append(h.Marshal(), payload...)

	st := &Stats{
		OriginalBytes:   f.SizeBytes(),
		CompressedBytes: len(out),
		NPoints:         n,
		Unpredictable:   innerStats.Unpredictable,
		Chunks:          innerStats.Chunks,
		Capacity:        innerStats.Capacity,
		ValueRange:      vr,
		// The inner MSE is measured in the log domain; the data-domain
		// MSE is not tracked for this codec.
		MSE: math.NaN(),
	}
	st.Ratio = float64(st.OriginalBytes) / float64(len(out))
	st.BitRate = 8 * float64(len(out)) / float64(n)
	return out, st, nil
}

// DecompressPWRel reconstructs a field from a CodecLogLorenzo stream.
// Decompress routes here automatically; callers normally use it instead.
func DecompressPWRel(data []byte) (*field.Field, *Header, error) {
	return DecompressPWRelScratch(data, nil)
}

// DecompressPWRelScratch is DecompressPWRel drawing the mask inflate
// reader and the inner stream's decode buffers from sc, so session
// callers reuse the ~50 KB flate window across streams. A nil sc
// allocates fresh.
func DecompressPWRelScratch(data []byte, sc *codec.Scratch) (*field.Field, *Header, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.Codec != CodecLogLorenzo {
		return nil, nil, fmt.Errorf("sz: stream has codec %v, not %v", h.Codec, CodecLogLorenzo)
	}
	if len(h.Chunks) != 1 {
		return nil, nil, fmt.Errorf("sz: pwrel stream should have one payload chunk")
	}
	payload, err := codec.ChunkPayload(data, h, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: pwrel payload: %w", err)
	}

	_, payload, err = readFloat64(payload) // ebRel (informational)
	if err != nil {
		return nil, nil, err
	}
	maskLen, payload, err := readUvarint(payload)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(payload)) < maskLen {
		return nil, nil, fmt.Errorf("sz: pwrel masks truncated")
	}
	buf, err := sc.Inflate(payload[:maskLen])
	if err != nil {
		return nil, nil, fmt.Errorf("sz: pwrel masks: %w", err)
	}
	defer sc.PutBuffer(buf)
	masks := buf.Bytes()
	n := h.NPoints()
	maskBytes := (n + 7) / 8
	if len(masks) != 2*maskBytes {
		return nil, nil, fmt.Errorf("sz: pwrel masks have %d bytes, want %d", len(masks), 2*maskBytes)
	}
	signMask := masks[:maskBytes]
	zeroMask := masks[maskBytes:]

	inner := payload[maskLen:]
	logField, _, err := DecompressScratch(inner, sc)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: pwrel inner stream: %w", err)
	}
	if logField.Len() != n {
		return nil, nil, fmt.Errorf("sz: pwrel inner field has %d points, want %d", logField.Len(), n)
	}

	out := field.New(h.Name, h.Precision, h.Dims...)
	for i := 0; i < n; i++ {
		if zeroMask[i/8]&(1<<(7-i%8)) != 0 {
			if signMask[i/8]&(1<<(7-i%8)) != 0 {
				out.Data[i] = math.Copysign(0, -1)
			} else {
				out.Data[i] = 0
			}
			continue
		}
		v := math.Exp(logField.Data[i])
		if signMask[i/8]&(1<<(7-i%8)) != 0 {
			v = -v
		}
		out.Data[i] = v
	}
	return out, h, nil
}
