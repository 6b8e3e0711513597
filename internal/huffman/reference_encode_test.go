package huffman

import (
	"encoding/binary"
	"fmt"

	"fixedpsnr/internal/bitstream"
)

// This file keeps the single-stream encoder as a test-only reference:
// production writes only four-lane blocks (EncodeLanes4), but the
// single-stream layout still has to decode (DecodeInto serves legacy
// chunk payloads), and the lane tests compare against it.

// Encode Huffman-encodes syms as a single-stream block: the canonical
// table followed by uvarint(bodyLen) and the packed code words. Symbols
// must be non-negative.
func Encode(syms []int32) ([]byte, error) { return EncodeScratch(nil, syms, nil) }

// EncodeScratch is Encode appending to dst and drawing construction
// tables from sc (nil allocates fresh).
func EncodeScratch(dst []byte, syms []int32, sc *Scratch) ([]byte, error) {
	maxSym := int32(0)
	for _, s := range syms {
		if s < 0 {
			return nil, fmt.Errorf("huffman: negative symbol %d", s)
		}
		maxSym = max(maxSym, s)
	}
	dst, lenOf, codes, err := buildTable(dst, syms, int(maxSym), sc)
	if err != nil {
		return nil, err
	}
	w := bitstream.NewWriter(len(syms) / 2)
	emitSyms(w, syms, lenOf, codes)
	body := w.Bytes()
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

// emitSyms packs syms' code words into w, two symbols per WriteBits call
// when their combined width fits one staged write — the pairing
// EncodeLanes4 applies within each lane, written out independently here
// so the lane differential test checks it.
func emitSyms(w *bitstream.Writer, syms []int32, lenOf []uint8, codes []uint64) {
	i := 0
	for ; i+2 <= len(syms); i += 2 {
		s0, s1 := syms[i], syms[i+1]
		l0, l1 := uint(lenOf[s0]), uint(lenOf[s1])
		if l0+l1 <= 56 {
			w.WriteBits(codes[s0]<<l1|codes[s1], l0+l1)
			continue
		}
		w.WriteBits(codes[s0], l0)
		w.WriteBits(codes[s1], l1)
	}
	if i < len(syms) {
		s := syms[i]
		w.WriteBits(codes[s], uint(lenOf[s]))
	}
}
