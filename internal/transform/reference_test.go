package transform

import "fmt"

// This file keeps the per-line transforms Block replaced, as the
// bit-identity reference for its tests: each line of a block is gathered,
// transformed by a plain dot product (DCT) or the in-place lifting loop
// (Haar), and scattered back, axis 0 first in both directions.

// refForward applies the orthonormal DCT-II to one line:
// dst[k] = Σ_j fwd[k][j]·src[j].
func refForward(d *dct, dst, src []float64) {
	n := len(src)
	for k := 0; k < n; k++ {
		row := d.fwd[k*n : (k+1)*n]
		var s float64
		for j := 0; j < n; j++ {
			s += row[j] * src[j]
		}
		dst[k] = s
	}
}

// refInverse applies the orthonormal DCT-III (the transpose) to one line.
func refInverse(d *dct, dst, src []float64) {
	n := len(src)
	for j := 0; j < n; j++ {
		var s float64
		for k := 0; k < n; k++ {
			s += d.fwd[k*n+j] * src[k]
		}
		dst[j] = s
	}
}

// HaarForward applies an in-place multi-level orthonormal Haar transform
// to x (length must be a power of two ≥ 1). Each level maps pairs
// (a, b) → ((a+b)/√2, (a−b)/√2); levels counts how many times the
// averaging half is recursed (levels ≤ log2(len)).
func HaarForward(x []float64, levels int) error {
	n := len(x)
	if err := haarCheck(n, levels); err != nil {
		return err
	}
	tmp := make([]float64, n)
	m := n
	for l := 0; l < levels; l++ {
		half := m / 2
		for i := 0; i < half; i++ {
			a, b := x[2*i], x[2*i+1]
			tmp[i] = (a + b) * invSqrt2
			tmp[half+i] = (a - b) * invSqrt2
		}
		copy(x[:m], tmp[:m])
		m = half
	}
	return nil
}

// HaarInverse inverts HaarForward with the same level count.
func HaarInverse(x []float64, levels int) error {
	n := len(x)
	if err := haarCheck(n, levels); err != nil {
		return err
	}
	tmp := make([]float64, n)
	for l := levels - 1; l >= 0; l-- {
		m := n >> l
		half := m / 2
		for i := 0; i < half; i++ {
			s, d := x[i], x[half+i]
			tmp[2*i] = (s + d) * invSqrt2
			tmp[2*i+1] = (s - d) * invSqrt2
		}
		copy(x[:m], tmp[:m])
	}
	return nil
}

func haarCheck(n, levels int) error {
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	if top := log2(n); levels < 0 || levels > top {
		return fmt.Errorf("transform: %d levels out of range [0, %d]", levels, top)
	}
	return nil
}

func log2(n int) int {
	l := 0
	for m := n; m > 1; m >>= 1 {
		l++
	}
	return l
}

// refBlock is Block computed line by line: for each axis it gathers every
// line at its stride, transforms it on its own, and scatters it back.
func refBlock(buf []float64, sizes []int, haar, inverse bool) {
	rank := len(sizes)
	strides := make([]int, rank)
	s := 1
	for a := rank - 1; a >= 0; a-- {
		strides[a] = s
		s *= sizes[a]
	}
	for a, L := range sizes {
		if L == 1 {
			continue
		}
		line := make([]float64, L)
		out := make([]float64, L)
		for ln := 0; ln < s/L; ln++ {
			base, rem := 0, ln
			for x := rank - 1; x >= 0; x-- {
				if x == a {
					continue
				}
				base += rem % sizes[x] * strides[x]
				rem /= sizes[x]
			}
			for k := range line {
				line[k] = buf[base+k*strides[a]]
			}
			switch {
			case haar && L&(L-1) == 0:
				var err error
				if inverse {
					err = HaarInverse(line, log2(L))
				} else {
					err = HaarForward(line, log2(L))
				}
				if err != nil {
					panic(err)
				}
				copy(out, line)
			case inverse:
				refInverse(newDCT(L), out, line)
			default:
				refForward(newDCT(L), out, line)
			}
			for k, v := range out {
				buf[base+k*strides[a]] = v
			}
		}
	}
}
