package transform

import "testing"

// benchBlock times one 8×8×8 block — the default otc block edge —
// through the kernel in one direction.
func benchBlock(b *testing.B, haar, inverse bool) {
	buf, work := randSlice(512, 3), make([]float64, 512)
	b.SetBytes(512 * 8)
	b.ReportAllocs()
	for b.Loop() {
		Block(buf, work, []int{8, 8, 8}, haar, inverse)
	}
}

func BenchmarkBlockForward8x8x8(b *testing.B) { benchBlock(b, false, false) }

func BenchmarkBlockInverse8x8x8(b *testing.B) { benchBlock(b, false, true) }

func BenchmarkHaarBlock8x8x8(b *testing.B) { benchBlock(b, true, false) }
