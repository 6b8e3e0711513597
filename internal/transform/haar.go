package transform

// haarStep applies one level of the orthonormal Haar DWT to the first m
// entries of every line along the middle axis of src, viewed as
// outer×n×inner, writes dst (which must not overlap src) and copies
// entries m..n through. Analysis maps the pair (2i, 2i+1) to
// (i, m/2+i) as ((a+b)/√2, (a−b)/√2); synthesis maps (i, m/2+i) back to
// (2i, 2i+1) with the same butterfly. Running analysis at m = n, n/2, …, 2
// is the full multi-level transform; synthesis at m = 2, 4, …, n inverts it.
func haarStep(dst, src []float64, outer, n, inner, m int, inverse bool) {
	half, span := m/2, n*inner
	for o := 0; o < outer*span; o += span {
		s, d := src[o:o+span], dst[o:o+span]
		for i := 0; i < half; i++ {
			a, b, lo, hi := 2*i, 2*i+1, i, half+i
			if inverse {
				a, b, lo, hi = lo, hi, a, b
			}
			sa, sb := s[a*inner:(a+1)*inner], s[b*inner:(b+1)*inner]
			dl, dh := d[lo*inner:(lo+1)*inner], d[hi*inner:(hi+1)*inner]
			for k, x := range sa {
				y := sb[k]
				dl[k] = (x + y) * invSqrt2
				dh[k] = (x - y) * invSqrt2
			}
		}
		copy(d[m*inner:], s[m*inner:])
	}
}

const invSqrt2 = 0.7071067811865476 // 1/√2
