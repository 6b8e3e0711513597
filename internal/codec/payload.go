package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"fixedpsnr/internal/field"
	"fixedpsnr/internal/huffman"
)

// This file owns the chunk payload format: EncodePayload is the only
// writer and DecodePayload the only reader, for every pipeline. The
// current (versioned) layout is
//
//	[PayloadMarker][PayloadVersionLanes4]
//	prefix                     IDOTC: byte(transform) uvarint(blockSize); IDLorenzo: empty
//	uvarint(npoints)
//	[codes flag] uvarint(codesLen) <four-lane Huffman block, raw or DEFLATE>
//	uvarint(litLen) <DEFLATE(uvarint(nlit) + literal bytes), litLen bytes>
//
// and the legacy layout (every stream before the four-lane format) is one
// DEFLATE stream wrapping prefix, uvarint(npoints), the single-stream
// Huffman block, uvarint(nlit), and the literal bytes. Literals are
// little-endian IEEE floats at the field precision for IDLorenzo and
// always float64 for IDOTC (they are transform coefficients).
//
// Legacy payloads are bare DEFLATE streams: their first byte encodes
// BFINAL and BTYPE in its low three bits, and the only invalid
// combination is BTYPE = 3 (reserved, RFC 1951 §3.2.3). A first byte of
// 0x07 — BFINAL=1, BTYPE=3 — therefore can never begin a valid legacy
// payload, which makes it a safe in-band version marker: the decoder
// dispatches on it with no header bump or stream-level flag.
const (
	// PayloadMarker introduces a versioned chunk payload:
	// payload[0] == PayloadMarker, payload[1] == the version byte.
	PayloadMarker = 0x07

	// PayloadVersionLanes4 is the four-lane interleaved Huffman payload:
	// the quantization codes are split into 4 interleaved lanes sharing
	// one canonical code table (huffman.EncodeLanes4), framed by a
	// codes-encoding flag and a byte length, and usually stored raw —
	// Huffman output on noisy chunks is within a fraction of a percent of
	// incompressible, so DEFLATE over it bought ~0.1% ratio for a
	// dominant share of decode time. The literal section always stays
	// DEFLATE-compressed.
	PayloadVersionLanes4 = 1
)

// Codes-section encodings inside a versioned payload. Raw is the fast
// path; Deflate survives for smooth chunks, where the Huffman body is
// long runs of one pattern and DEFLATE still collapses it — the regime
// fixed-ratio steering at high targets depends on.
const (
	PayloadCodesRaw     = 0
	PayloadCodesDeflate = 1
)

// CodesDeflateWins reports whether a deflated codes section earns its
// decode-time cost over storing rawLen bytes directly: it must save more
// than 1/16th (6.25%). Typical noisy chunks deflate by ~0.1% and stay
// raw; run-dominated smooth chunks deflate by 90%+ and opt in.
func CodesDeflateWins(rawLen, compLen int) bool {
	return compLen < rawLen-rawLen/16
}

// Payload is the content of one chunk payload: the quantization codes
// (one per point, 0 marking a literal), the literal values in scan
// order, and — for IDOTC — the transform prefix.
type Payload struct {
	Codes    []int32
	Literals []float64
	// Transform and BlockSize are the IDOTC prefix; IDLorenzo payloads
	// carry no prefix and leave them zero.
	Transform Transform
	BlockSize int
}

// payloadLayout is what the codec ID decides about a payload: whether it
// carries the transform prefix, and the precision its literals are
// stored at.
type payloadLayout struct {
	prefix  bool
	litPrec field.Precision
}

func layoutFor(id ID, prec field.Precision) (payloadLayout, error) {
	switch id {
	case IDLorenzo:
		return payloadLayout{litPrec: prec}, nil
	case IDOTC:
		return payloadLayout{prefix: true, litPrec: field.Float64}, nil
	}
	return payloadLayout{}, fmt.Errorf("codec: %v streams have no chunk payload", id)
}

// EncodePayload serializes p as a versioned lanes4 payload for a stream
// of codec id and field precision prec. capacity is the quantizer
// capacity that produced the codes: every code must lie in
// [0, capacity-1] (an out-of-range code panics), which lets the Huffman
// stage skip a validation pass. The codes section is deflated only when
// CodesDeflateWins; the literal section always is. Staging buffers and
// the DEFLATE encoder come from sc (nil = fresh allocations); the
// returned payload shares no storage with the scratch pools.
func EncodePayload(id ID, prec field.Precision, capacity int, p Payload, sc *Scratch) ([]byte, error) {
	lay, err := layoutFor(id, prec)
	if err != nil {
		return nil, err
	}
	size := lay.litPrec.Bytes()
	out := sc.Bytes(len(p.Codes)/2 + len(p.Literals)*size + 64)
	out = append(out, PayloadMarker, PayloadVersionLanes4)
	if lay.prefix {
		out = append(out, byte(p.Transform))
		out = binary.AppendUvarint(out, uint64(p.BlockSize))
	}
	out = binary.AppendUvarint(out, uint64(len(p.Codes)))

	hs := sc.Huffman()
	block, err := huffman.EncodeLanes4(sc.Bytes(len(p.Codes)/2+64), p.Codes, capacity-1, hs)
	sc.PutHuffman(hs)
	if err != nil {
		sc.PutBytes(out)
		return nil, err
	}
	comp := sc.AppendDeflate(sc.Bytes(len(block)/2+64), block)
	if CodesDeflateWins(len(block), len(comp)) {
		out = append(out, PayloadCodesDeflate)
		out = binary.AppendUvarint(out, uint64(len(comp)))
		out = append(out, comp...)
	} else {
		out = append(out, PayloadCodesRaw)
		out = binary.AppendUvarint(out, uint64(len(block)))
		out = append(out, block...)
	}
	sc.PutBytes(comp)
	sc.PutBytes(block)

	raw := sc.Bytes(len(p.Literals)*size + 16)
	raw = binary.AppendUvarint(raw, uint64(len(p.Literals)))
	raw = appendLiterals(raw, p.Literals, lay.litPrec)
	stage := sc.AppendDeflate(sc.Bytes(len(raw)/2+64), raw)
	sc.PutBytes(raw)
	out = binary.AppendUvarint(out, uint64(len(stage)))
	out = append(out, stage...)
	sc.PutBytes(stage)

	// Hand back an exact-size copy, so append growth is amortized by the
	// pool and the returned payload carries no slack capacity.
	payload := append([]byte(nil), out...)
	sc.PutBytes(out)
	return payload, nil
}

// DecodePayload reverses EncodePayload, and decodes the legacy
// whole-payload DEFLATE layout too (dispatched on the first byte). The
// inflate readers and buffers, the Huffman decode tables, and the
// returned codes and literals all come from sc (nil = fresh
// allocations); every pooled resource goes back on every error path, and
// on success the caller owns p and should PutPayload it when done.
func DecodePayload(id ID, prec field.Precision, payload []byte, sc *Scratch) (p Payload, err error) {
	lay, err := layoutFor(id, prec)
	if err != nil {
		return Payload{}, err
	}
	defer func() {
		if err != nil {
			sc.PutPayload(p)
			p = Payload{}
		}
	}()
	if len(payload) >= 2 && payload[0] == PayloadMarker {
		if payload[1] != PayloadVersionLanes4 {
			return p, fmt.Errorf("codec: unsupported chunk payload version %d", payload[1])
		}
		err = lay.decodeLanes4(&p, payload[2:], sc)
		return p, err
	}
	buf, err := sc.Inflate(payload)
	if err != nil {
		return p, err
	}
	defer sc.PutBuffer(buf)
	err = lay.decodeLegacy(&p, buf.Bytes(), sc)
	return p, err
}

// decodeLanes4 decodes the body of a versioned lanes4 payload (after the
// marker and version bytes) into p.
func (lay payloadLayout) decodeLanes4(p *Payload, raw []byte, sc *Scratch) error {
	raw, err := lay.readPrefix(p, raw)
	if err != nil {
		return err
	}
	npoints, raw, err := ReadUvarint(raw)
	if err != nil {
		return err
	}
	if len(raw) < 1 {
		return fmt.Errorf("codec: truncated codes section")
	}
	codesEnc := raw[0]
	codesLen, raw, err := ReadUvarint(raw[1:])
	if err != nil {
		return err
	}
	if codesLen > uint64(len(raw)) {
		return fmt.Errorf("codec: codes section shorter than declared (%d < %d)", len(raw), codesLen)
	}
	block, raw := raw[:codesLen], raw[codesLen:]
	switch codesEnc {
	case PayloadCodesRaw:
		// block is the lanes4 bitstream as stored — the fast path.
	case PayloadCodesDeflate:
		cbuf, err := sc.Inflate(block)
		if err != nil {
			return err
		}
		defer sc.PutBuffer(cbuf)
		block = cbuf.Bytes()
	default:
		return fmt.Errorf("codec: unknown codes encoding %d", codesEnc)
	}
	if p.Codes, _, err = decodeCodes(npoints, block, huffman.DecodeLanes4Into, sc); err != nil {
		return err
	}
	litLen, raw, err := ReadUvarint(raw)
	if err != nil {
		return err
	}
	if litLen > uint64(len(raw)) {
		return fmt.Errorf("codec: literal section shorter than declared (%d < %d)", len(raw), litLen)
	}
	lbuf, err := sc.Inflate(raw[:litLen])
	if err != nil {
		return err
	}
	defer sc.PutBuffer(lbuf)
	p.Literals, err = lay.readLiterals(lbuf.Bytes(), sc)
	return err
}

// decodeLegacy decodes the inflated body of a legacy payload into p.
func (lay payloadLayout) decodeLegacy(p *Payload, raw []byte, sc *Scratch) error {
	raw, err := lay.readPrefix(p, raw)
	if err != nil {
		return err
	}
	npoints, raw, err := ReadUvarint(raw)
	if err != nil {
		return err
	}
	var consumed int
	if p.Codes, consumed, err = decodeCodes(npoints, raw, huffman.DecodeInto, sc); err != nil {
		return err
	}
	p.Literals, err = lay.readLiterals(raw[consumed:], sc)
	return err
}

// readPrefix parses the IDOTC transform prefix into p, when the layout
// has one, and returns the rest of raw.
func (lay payloadLayout) readPrefix(p *Payload, raw []byte) ([]byte, error) {
	if !lay.prefix {
		return raw, nil
	}
	if len(raw) < 1 {
		return nil, fmt.Errorf("codec: empty payload")
	}
	p.Transform = Transform(raw[0])
	if p.Transform != TransformDCT && p.Transform != TransformHaar {
		return nil, fmt.Errorf("codec: unknown transform %d", raw[0])
	}
	bs, k := binary.Uvarint(raw[1:])
	if k <= 0 || bs == 0 || bs > 1<<20 {
		return nil, fmt.Errorf("codec: bad block size")
	}
	p.BlockSize = int(bs)
	return raw[1+k:], nil
}

// decodeCodes decodes npoints quantization codes from a Huffman block
// with decode (single-stream or four-lane) into a pooled buffer, and
// returns them with the bytes of block consumed.
func decodeCodes(npoints uint64, block []byte, decode func([]int32, []byte, *huffman.DecodeScratch) ([]int32, int, error), sc *Scratch) ([]int32, int, error) {
	if npoints > uint64(len(block))*8 {
		// Every code costs at least one bit; reject a corrupt count
		// before sizing the code buffer from it. The check runs against
		// the materialized (post-inflate) block, since a deflated codes
		// section legitimately holds more symbols than 8× its stored
		// bytes.
		return nil, 0, fmt.Errorf("codec: %d codes cannot fit in %d codes-section bytes", npoints, len(block))
	}
	buf := sc.Int32s(int(npoints))
	hd := sc.HuffDecode()
	codes, consumed, err := decode(buf[:0], block, hd)
	sc.PutHuffDecode(hd)
	if err != nil {
		sc.PutInt32s(buf)
		return nil, 0, err
	}
	if uint64(len(codes)) != npoints {
		sc.PutInt32s(codes)
		return nil, 0, fmt.Errorf("codec: decoded %d codes, header says %d", len(codes), npoints)
	}
	return codes, consumed, nil
}

// readLiterals parses uvarint(nlit) and nlit literals at the layout's
// precision into a pooled slice. The count is checked against the bytes
// present before anything is allocated from it.
func (lay payloadLayout) readLiterals(b []byte, sc *Scratch) ([]float64, error) {
	nlit, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	size := lay.litPrec.Bytes()
	if nlit > uint64(len(b)/size) {
		return nil, fmt.Errorf("codec: literal stream truncated (%d literals in %d bytes)", nlit, len(b))
	}
	out := sc.Floats(int(nlit))
	if lay.litPrec == field.Float32 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		}
		return out, nil
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func appendLiterals(b []byte, vals []float64, prec field.Precision) []byte {
	if prec == field.Float32 {
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		}
		return b
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
