package transform

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func l2(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// blockRoundTrip runs Block forward on a copy of src, checks Parseval, and
// returns the coefficients and the inverse reconstruction.
func blockRoundTrip(t *testing.T, src []float64, sizes []int, haar bool) (coef, back []float64) {
	t.Helper()
	work := make([]float64, len(src))
	coef = append([]float64(nil), src...)
	Block(coef, work, sizes, haar, false)
	if math.Abs(l2(src)-l2(coef)) > 1e-12*l2(src) {
		t.Fatalf("sizes %v haar=%v: Parseval violated: %g vs %g", sizes, haar, l2(src), l2(coef))
	}
	back = append([]float64(nil), coef...)
	Block(back, work, sizes, haar, true)
	if diff := maxAbsDiff(src, back); diff > 1e-12 {
		t.Fatalf("sizes %v haar=%v: round-trip diff %g", sizes, haar, diff)
	}
	return coef, back
}

func TestDCTSize1Identity(t *testing.T) {
	src := []float64{3.5}
	dst := make([]float64, 1)
	refForward(newDCT(1), dst, src)
	if math.Abs(dst[0]-3.5) > 1e-14 {
		t.Fatalf("1-point DCT = %g", dst[0])
	}
	coef, _ := blockRoundTrip(t, src, []int{1}, false)
	if coef[0] != 3.5 {
		t.Fatalf("1-point block = %g", coef[0])
	}
}

// The DCT basis must be orthonormal: B·Bᵀ = I, and inv must be Bᵀ.
func TestDCTOrthonormal(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		d := newDCT(n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				var dot float64
				for j := 0; j < n; j++ {
					dot += d.fwd[a*n+j] * d.fwd[b*n+j]
				}
				want := 0.0
				if a == b {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-12 {
					t.Fatalf("n=%d: <b%d,b%d> = %g, want %g", n, a, b, dot, want)
				}
				if d.inv[a*n+b] != d.fwd[b*n+a] {
					t.Fatalf("n=%d: inv[%d][%d] is not fwd[%d][%d]", n, a, b, b, a)
				}
			}
		}
	}
}

func TestDCTRoundTrip1D(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		blockRoundTrip(t, randSlice(n, int64(n)), []int{n}, false)
	}
}

// Parseval: the transform preserves the l2 norm — the hypothesis of the
// paper's Theorem 2.
func TestDCTParseval1D(t *testing.T) {
	blockRoundTrip(t, randSlice(16, 2), []int{16}, false)
}

func TestDCT2DRoundTripAndParseval(t *testing.T) {
	blockRoundTrip(t, randSlice(64, 3), []int{8, 8}, false)
}

func TestDCT3DRoundTripAndParseval(t *testing.T) {
	blockRoundTrip(t, randSlice(64, 4), []int{4, 4, 4}, false)
	blockRoundTrip(t, randSlice(512, 5), []int{8, 8, 8}, false)
}

func TestDCTConstantMapsToDC(t *testing.T) {
	n := 8
	src := make([]float64, n)
	for i := range src {
		src[i] = 2
	}
	coef, _ := blockRoundTrip(t, src, []int{n}, false)
	if math.Abs(coef[0]-2*math.Sqrt(float64(n))) > 1e-12 {
		t.Fatalf("DC = %g, want %g", coef[0], 2*math.Sqrt(float64(n)))
	}
	for k := 1; k < n; k++ {
		if math.Abs(coef[k]) > 1e-12 {
			t.Fatalf("AC coefficient %d = %g, want 0", k, coef[k])
		}
	}
}

func TestHaarValidates(t *testing.T) {
	if err := HaarForward(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for non-pow2 length")
	}
	if err := HaarForward(make([]float64, 8), 4); err == nil {
		t.Fatal("expected error for too many levels")
	}
	if err := HaarForward(make([]float64, 8), -1); err == nil {
		t.Fatal("expected error for negative levels")
	}
	if err := HaarInverse(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for non-pow2 length in inverse")
	}
	if err := HaarInverse(make([]float64, 8), 9); err == nil {
		t.Fatal("expected error for too many levels in inverse")
	}
}

func TestHaarRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64} {
		for levels := 0; levels <= log2(n); levels++ {
			src := randSlice(n, int64(n*10+levels))
			x := append([]float64(nil), src...)
			if err := HaarForward(x, levels); err != nil {
				t.Fatal(err)
			}
			if err := HaarInverse(x, levels); err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(src, x); diff > 1e-12 {
				t.Fatalf("n=%d levels=%d: round-trip diff %g", n, levels, diff)
			}
		}
		blockRoundTrip(t, randSlice(n, int64(n)), []int{n}, true)
	}
	blockRoundTrip(t, randSlice(512, 6), []int{8, 8, 8}, true)
	blockRoundTrip(t, randSlice(96, 7), []int{4, 3, 8}, true)
}

func TestHaarParseval(t *testing.T) {
	blockRoundTrip(t, randSlice(256, 7), []int{256}, true)
}

// A 4-point block takes both Haar levels: [1 3 5 7] → level 1
// [4 12 −2 −2]/√2 → level 2 on the averages [8 −4].
func TestHaarKnownValues(t *testing.T) {
	x := []float64{1, 3, 5, 7}
	Block(x, make([]float64, 4), []int{4}, true, false)
	want := []float64{8, -4, -2 * invSqrt2, -2 * invSqrt2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("Haar[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// sameBits reports whether a and b agree bit for bit, treating any two
// NaNs as equal: which operand's payload a NaN carries is up to the
// instruction order the compiler picks, not the arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkBlockVsReference runs Block and refBlock on the same input in both
// directions and fails on the first coefficient whose bits differ.
func checkBlockVsReference(t *testing.T, src []float64, sizes []int, haar bool) {
	t.Helper()
	work := make([]float64, len(src))
	for _, inverse := range []bool{false, true} {
		got := append([]float64(nil), src...)
		want := append([]float64(nil), src...)
		Block(got, work, sizes, haar, inverse)
		refBlock(want, sizes, haar, inverse)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("sizes %v haar=%v inverse=%v: coefficient %d = %x, reference %x",
					sizes, haar, inverse, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestBlockMatchesReference pins the kernel bit for bit to the per-line
// reference on every block shape of rank 1–3 with edges 1–8 per axis
// (the partial blocks a field boundary cuts), plus a few longer edges
// for the general path. Inputs mix random values with +0 and −0 runs,
// so the signed zero a sum starting from +0 yields is checked too.
func TestBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fill := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
			}
		}
		return xs
	}
	var shapes [][]int
	for a := 1; a <= 8; a++ {
		shapes = append(shapes, []int{a})
		for b := 1; b <= 8; b++ {
			shapes = append(shapes, []int{a, b})
			for c := 1; c <= 8; c++ {
				shapes = append(shapes, []int{a, b, c})
			}
		}
	}
	shapes = append(shapes, []int{64}, []int{16, 13}, []int{9, 16, 10}, []int{32, 2, 8})
	for _, sizes := range shapes {
		n := 1
		for _, s := range sizes {
			n *= s
		}
		for _, haar := range []bool{false, true} {
			checkBlockVsReference(t, fill(n), sizes, haar)
			checkBlockVsReference(t, make([]float64, n), sizes, haar)
			neg := make([]float64, n)
			for i := range neg {
				neg[i] = math.Copysign(0, -1)
			}
			checkBlockVsReference(t, neg, sizes, haar)
		}
	}
}

// TestBlockAllocs pins the kernel allocation-free once the bases it needs
// are cached.
func TestBlockAllocs(t *testing.T) {
	buf, work := randSlice(512, 8), make([]float64, 512)
	for _, haar := range []bool{false, true} {
		Block(buf, work, []int{8, 8, 8}, haar, false)
		if a := testing.AllocsPerRun(20, func() {
			Block(buf, work, []int{8, 8, 8}, haar, false)
			Block(buf, work, []int{8, 8, 8}, haar, true)
		}); a != 0 {
			t.Fatalf("haar=%v: %v allocs per block round trip, want 0", haar, a)
		}
	}
}

// FuzzBlockTransform differentially checks Block against the per-line
// reference: the first bytes pick the shape (rank 1–3, edges 1–16) and
// the transform, the rest are the block's float64 bit patterns (NaN and
// ±Inf included), repeated to fill the block.
func FuzzBlockTransform(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{2, 8, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{0x12, 4, 3, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rank, haar := int(data[0]&3)%3+1, data[0]&0x10 != 0
		sizes := make([]int, rank)
		n := 1
		for a := range sizes {
			sizes[a] = int(data[1+a]&15) + 1
			n *= sizes[a]
		}
		raw := data[4:]
		if len(raw) < 8 {
			raw = append(raw, make([]byte, 8-len(raw))...)
		}
		src := make([]float64, n)
		for i := range src {
			var bits uint64
			for k := 0; k < 8; k++ {
				bits = bits<<8 | uint64(raw[(8*i+k)%len(raw)])
			}
			src[i] = math.Float64frombits(bits)
		}
		checkBlockVsReference(t, src, sizes, haar)
	})
}
