package huffman

import (
	"math/rand"
	"testing"
)

// quantCodes builds a realistic SZ code stream: Laplacian-ish codes around
// the interval radius with occasional unpredictable markers.
func quantCodes(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	radius := 32768
	syms := make([]int32, n)
	for i := range syms {
		mag := int(rng.ExpFloat64() * 2)
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		c := radius + mag
		if c < 1 {
			c = 1
		}
		if c > 2*radius-1 {
			c = 2*radius - 1
		}
		if rng.Intn(1000) == 0 {
			c = 0
		}
		syms[i] = int32(c)
	}
	return syms
}

func BenchmarkDecode(b *testing.B) {
	syms := quantCodes(1<<20, 2)
	enc, err := Encode(syms)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
