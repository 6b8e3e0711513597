// Package transform provides the orthonormal linear transforms used by the
// transform-based compressor (internal/otc): the orthonormal DCT-II/III
// pair and a multi-level orthonormal Haar wavelet transform, applied to
// row-major blocks one axis at a time by Block.
//
// Every transform here is orthonormal — it preserves the l2 norm exactly
// (Parseval). That property is the hypothesis of the paper's Theorem 2:
// distortion introduced by quantizing the transformed coefficients equals
// the distortion of the reconstructed data, which is what lets the
// fixed-PSNR mode drive a transform-based compressor with the same Eq. 6.
package transform

import (
	"math"
	"sync"
)

// dct holds the orthonormal DCT-II basis of one size as a flat row-major
// n×n matrix, and its transpose, the DCT-III that inverts it.
type dct struct {
	fwd []float64 // fwd[k*n+j] = c(k)·cos(π(2j+1)k/2n)
	inv []float64 // inv[j*n+k] = fwd[k*n+j]
}

func newDCT(n int) *dct {
	d := &dct{fwd: make([]float64, n*n), inv: make([]float64, n*n)}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for j := 0; j < n; j++ {
			v := c * math.Cos(math.Pi*float64(2*j+1)*float64(k)/(2*float64(n)))
			d.fwd[k*n+j] = v
			d.inv[j*n+k] = v
		}
	}
	return d
}

// dcts shares one basis per edge length across blocks and calls.
var dcts sync.Map // int → *dct

func dctFor(n int) *dct {
	if v, ok := dcts.Load(n); ok {
		return v.(*dct)
	}
	v, _ := dcts.LoadOrStore(n, newDCT(n))
	return v.(*dct)
}

// Block applies the separable orthonormal block transform in place to buf,
// a row-major block with the given per-axis sizes, one axis at a time
// from axis 0; with inverse set it applies the inverse, in the same axis
// order. With haar set, power-of-two axes take the full multi-level Haar
// DWT and every other axis the DCT of its exact length, so a block cut at
// a field boundary stays orthonormal without padding. work is scratch of
// at least len(buf) floats. Block allocates only to build the basis of an
// edge length it has not met before, an n×n matrix, so callers bound the
// edges they pass.
func Block(buf, work []float64, sizes []int, haar, inverse bool) {
	cur, other := buf, work[:len(buf)]
	swapped := false
	outer, inner := 1, len(buf)
	for _, n := range sizes {
		inner /= n
		switch {
		case n == 1:
		case haar && n&(n-1) == 0:
			for m := n; m >= 2; m /= 2 {
				lm := m // synthesis runs the levels from the deepest out
				if inverse {
					lm = 2 * n / m
				}
				haarStep(other, cur, outer, n, inner, lm, inverse)
				cur, other, swapped = other, cur, !swapped
			}
		default:
			d := dctFor(n)
			mat := d.fwd
			if inverse {
				mat = d.inv
			}
			axis(other, cur, mat, outer, n, inner)
			cur, other, swapped = other, cur, !swapped
		}
		outer *= n
	}
	if swapped {
		copy(buf, cur)
	}
}

// axis multiplies every line along the middle axis of src, viewed as
// outer×n×inner, by the n×n matrix mat and writes dst, which must not
// overlap src: dst[o][r][i] = Σ_c mat[r*n+c]·src[o][c][i]. Each sum starts
// from zero and adds its terms in ascending c, the order of a dot product
// over one gathered line, so the result does not depend on the layout.
func axis(dst, src, mat []float64, outer, n, inner int) {
	if n == 8 {
		axis8(dst, src, (*[64]float64)(mat), outer, inner)
		return
	}
	span := n * inner
	for o := 0; o < outer*span; o += span {
		s, d := src[o:o+span], dst[o:o+span]
		for r := 0; r < n; r++ {
			dr := d[r*inner : (r+1)*inner]
			clear(dr)
			for c, m := range mat[r*n : (r+1)*n] {
				sr := s[c*inner : (c+1)*inner]
				sr = sr[:len(dr)]
				for i, x := range sr {
					dr[i] += m * x
				}
			}
		}
	}
}

// axis8 is axis for the default 8-point edge: it loads the 8 inputs of a
// line once and forms all 8 outputs from registers.
func axis8(dst, src []float64, mat *[64]float64, outer, inner int) {
	span := 8 * inner
	for o := 0; o < outer*span; o += span {
		for i := o; i < o+inner; i++ {
			x0, x1, x2, x3 := src[i], src[i+inner], src[i+2*inner], src[i+3*inner]
			x4, x5, x6, x7 := src[i+4*inner], src[i+5*inner], src[i+6*inner], src[i+7*inner]
			for r := 0; r < 8; r++ {
				m := (*[8]float64)(mat[8*r:])
				s := 0.0
				s += m[0] * x0
				s += m[1] * x1
				s += m[2] * x2
				s += m[3] * x3
				s += m[4] * x4
				s += m[5] * x5
				s += m[6] * x6
				s += m[7] * x7
				dst[i+r*inner] = s
			}
		}
	}
}
