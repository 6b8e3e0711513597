package codec_test

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/deflate"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/huffman"
	_ "fixedpsnr/internal/otc"
	_ "fixedpsnr/internal/sz"
)

// literalCountPayload hand-builds a lanes4 payload for a one-point chunk
// of codec id whose single code is a literal, but whose literal section
// declares nlit literals in front of 8 bytes of data.
func literalCountPayload(t testing.TB, id codec.ID, nlit uint64) []byte {
	t.Helper()
	p := []byte{codec.PayloadMarker, codec.PayloadVersionLanes4}
	if id == codec.IDOTC {
		p = append(p, byte(codec.TransformDCT))
		p = binary.AppendUvarint(p, 8)
	}
	p = binary.AppendUvarint(p, 1)
	block, err := huffman.EncodeLanes4(nil, []int32{0}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p = append(p, codec.PayloadCodesRaw)
	p = binary.AppendUvarint(p, uint64(len(block)))
	p = append(p, block...)
	lit := binary.AppendUvarint(nil, nlit)
	lit = append(lit, make([]byte, 8)...)
	stage := deflate.NewEncoder().AppendEncode(nil, lit)
	p = binary.AppendUvarint(p, uint64(len(stage)))
	return append(p, stage...)
}

// TestDecodeRejectsHugeLiteralCount feeds each pipeline a payload whose
// literal count overflows the count × width size check (2^63 turns
// negative as an int, 2^61 × 8 wraps to 0): the decode must fail with an
// error, not panic allocating the literal slice.
func TestDecodeRejectsHugeLiteralCount(t *testing.T) {
	for _, tc := range []struct {
		id   codec.ID
		nlit uint64
	}{
		{codec.IDLorenzo, 1 << 63},
		{codec.IDLorenzo, 1 << 62},
		{codec.IDOTC, 1 << 61},
		{codec.IDOTC, 1 << 63},
	} {
		h := &codec.Header{
			Codec:     tc.id,
			Precision: field.Float32,
			Dims:      []int{1},
			EbAbs:     1e-3,
			Capacity:  65536,
			Chunks:    []codec.ChunkInfo{{Rows: 1}},
		}
		payload := literalCountPayload(t, tc.id, tc.nlit)
		if err := codec.DecompressChunkInto(make([]float64, 1), h, 0, payload, nil); err == nil {
			t.Errorf("%v payload declaring %d literals in 8 bytes decoded without error", tc.id, tc.nlit)
		}
	}
}

// TestEncodePayloadRoundTrip pins the layout both pipelines share: codes
// and literals survive, literals at the field precision for IDLorenzo
// and always float64 for IDOTC, and the IDOTC prefix round-trips.
func TestEncodePayloadRoundTrip(t *testing.T) {
	codes := make([]int32, 5000)
	var lits []float64
	for i := range codes {
		codes[i] = int32(100 + i%7)
		if i%97 == 0 {
			codes[i] = 0
			lits = append(lits, 1.0/3+float64(i))
		}
	}
	in := codec.Payload{Codes: codes, Literals: lits, Transform: codec.TransformHaar, BlockSize: 16}
	sc := codec.NewScratch()
	for _, tc := range []struct {
		id   codec.ID
		prec field.Precision
	}{
		{codec.IDLorenzo, field.Float32},
		{codec.IDLorenzo, field.Float64},
		{codec.IDOTC, field.Float32},
	} {
		enc, err := codec.EncodePayload(tc.id, tc.prec, 256, in, sc)
		if err != nil {
			t.Fatal(err)
		}
		if enc[0] != codec.PayloadMarker || enc[1] != codec.PayloadVersionLanes4 {
			t.Fatalf("%v: payload starts % x, want the lanes4 marker", tc.id, enc[:2])
		}
		out, err := codec.DecodePayload(tc.id, tc.prec, enc, sc)
		if err != nil {
			t.Fatalf("%v/%v: %v", tc.id, tc.prec, err)
		}
		if !slices.Equal(out.Codes, codes) {
			t.Fatalf("%v/%v: codes differ", tc.id, tc.prec)
		}
		for i, v := range lits {
			want := v
			if tc.id == codec.IDLorenzo && tc.prec == field.Float32 {
				want = float64(float32(v))
			}
			if out.Literals[i] != want {
				t.Fatalf("%v/%v: literal %d = %v, want %v", tc.id, tc.prec, i, out.Literals[i], want)
			}
		}
		if tc.id == codec.IDOTC && (out.Transform != in.Transform || out.BlockSize != in.BlockSize) {
			t.Fatalf("otc prefix decoded as (%v, %d), want (%v, %d)", out.Transform, out.BlockSize, in.Transform, in.BlockSize)
		}
		if tc.id == codec.IDLorenzo && (out.Transform != 0 || out.BlockSize != 0) {
			t.Fatalf("sz payload decoded a prefix (%v, %d)", out.Transform, out.BlockSize)
		}
		sc.PutPayload(out)
	}
	if _, err := codec.EncodePayload(codec.IDConstant, field.Float32, 256, in, sc); err == nil {
		t.Fatal("EncodePayload accepted a codec without chunk payloads")
	}
}

// FuzzDecodePayload drives the shared payload decoder with arbitrary
// bytes for either pipeline and literal precision. It must return an
// error or a payload, never panic; a payload it accepts must survive a
// re-encode through EncodePayload and a second decode unchanged. Seeds
// are every chunk payload of the committed stream fixtures — both
// pipelines, current and legacy layouts — plus the crafted
// literal-count payloads.
func FuzzDecodePayload(f *testing.F) {
	for _, dir := range []string{"streams", filepath.Join("streams", "lanes4")} {
		paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "*.fpsz"))
		for _, path := range paths {
			blob, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			h, err := codec.ParseHeader(blob)
			if err != nil {
				f.Fatalf("%s: %v", path, err)
			}
			for ci := range h.Chunks {
				payload, err := codec.ChunkPayload(blob, h, ci)
				if err != nil {
					f.Fatalf("%s: %v", path, err)
				}
				f.Add(h.Codec == codec.IDOTC, h.Precision == field.Float64, payload)
			}
		}
	}
	f.Add(false, false, literalCountPayload(f, codec.IDLorenzo, 1<<63))
	f.Add(true, false, literalCountPayload(f, codec.IDOTC, 1<<61))
	// The fixture payloads are tens of kilobytes each; small current-format
	// payloads, one with a raw and one with a deflated codes section, give
	// the mutator inputs it can work through quickly.
	for _, p := range []codec.Payload{
		{Codes: []int32{3, 0, 3, 4, 3, 3, 0, 5}, Literals: []float64{1.5, -2}, BlockSize: 8},
		{Codes: slices.Repeat([]int32{3}, 4096), BlockSize: 8},
	} {
		for _, otc := range []bool{false, true} {
			id := codec.IDLorenzo
			if otc {
				id = codec.IDOTC
			}
			enc, err := codec.EncodePayload(id, field.Float32, 8, p, nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(otc, false, enc)
		}
	}

	sc := codec.NewScratch()
	f.Fuzz(func(t *testing.T, otc, float64Lits bool, payload []byte) {
		id, prec := codec.IDLorenzo, field.Float32
		if otc {
			id = codec.IDOTC
		}
		if float64Lits {
			prec = field.Float64
		}
		p, err := codec.DecodePayload(id, prec, payload, sc)
		if err != nil {
			return
		}
		defer sc.PutPayload(p)
		maxCode := int32(0)
		for _, c := range p.Codes {
			maxCode = max(maxCode, c)
		}
		if maxCode >= 1<<21 {
			// Beyond any quantizer capacity; the encoder's dense
			// frequency table would need gigabytes.
			return
		}
		enc, err := codec.EncodePayload(id, prec, int(maxCode)+1, p, sc)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		q, err := codec.DecodePayload(id, prec, enc, sc)
		if err != nil {
			t.Fatalf("decode of re-encoded payload: %v", err)
		}
		defer sc.PutPayload(q)
		if !slices.Equal(p.Codes, q.Codes) {
			t.Fatalf("codes changed across re-encode (%d vs %d)", len(p.Codes), len(q.Codes))
		}
		if !slices.EqualFunc(p.Literals, q.Literals, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("literals changed across re-encode (%d vs %d)", len(p.Literals), len(q.Literals))
		}
		if p.Transform != q.Transform || p.BlockSize != q.BlockSize {
			t.Fatalf("prefix changed across re-encode: (%v, %d) vs (%v, %d)", p.Transform, p.BlockSize, q.Transform, q.BlockSize)
		}
	})
}
