package deflate

import (
	"math/bits"
	"slices"
)

// Alphabet sizes fixed by RFC 1951.
const (
	numLitLen  = 286 // literal/length alphabet: 0-255 literals, 256 EOB, 257-285 lengths
	numDist    = 30  // distance alphabet
	numCL      = 19  // code-length (tree-header) alphabet
	maxBits    = 15  // longest literal/length or distance code
	maxCLBits  = 7   // longest code-length code
	endOfBlock = 256
)

// clOrder is the fixed transmission order of code-length code lengths in
// a dynamic block header (RFC 1951 §3.2.7).
var clOrder = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// Length-code tables (codes 257-285): first length of each code and the
// number of extra bits that follow it.
var (
	lenBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	// lenCode maps length-3 (0..255) to the length code index 0..28.
	lenCode [256]uint8
)

// Distance-code tables (codes 0-29).
var (
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// distCodeLo maps distance-1 (0..255) to its code; distCodeHi maps
	// (distance-1)>>7 (2..255) to its code for distances above 256 —
	// zlib's classic two-level dist_code table.
	distCodeLo [256]uint8
	distCodeHi [256]uint8
)

// Fixed-Huffman code (BTYPE=01) lengths and pre-reversed codes.
var (
	fixedLitLen   [numLitLen]uint8
	fixedLitCode  [numLitLen]uint16
	fixedDistLen  [numDist]uint8
	fixedDistCode [numDist]uint16
)

func init() {
	for c, base := range lenBase {
		if base == 258 {
			continue // code 285 is reached only via the explicit 258 check
		}
		span := 1 << lenExtra[c]
		for l := int(base); l < int(base)+span && l <= 257; l++ {
			lenCode[l-3] = uint8(c)
		}
	}
	lenCode[258-3] = 28
	for c := range distBase {
		lo := int(distBase[c])
		hi := lo + 1<<distExtra[c]
		for d := lo; d < hi && d <= 256; d++ {
			distCodeLo[d-1] = uint8(c)
		}
		if lo > 256 {
			for d := lo; d < hi; d += 128 {
				distCodeHi[(d-1)>>7] = uint8(c)
			}
		}
	}
	for i := range fixedLitLen {
		switch {
		case i < 144:
			fixedLitLen[i] = 8
		case i < 256:
			fixedLitLen[i] = 9
		case i < 280:
			fixedLitLen[i] = 7
		default:
			fixedLitLen[i] = 8
		}
	}
	// The fixed code is canonical over the full 288-symbol alphabet; the
	// two trailing reserved symbols only shift code assignment, so build
	// over 288 and keep the first 286.
	var lens288 [288]uint8
	var codes288 [288]uint16
	for i := range lens288 {
		switch {
		case i < 144:
			lens288[i] = 8
		case i < 256:
			lens288[i] = 9
		case i < 280:
			lens288[i] = 7
		default:
			lens288[i] = 8
		}
	}
	canonicalCodes(lens288[:], codes288[:])
	copy(fixedLitCode[:], codes288[:numLitLen])
	for i := range fixedDistLen {
		fixedDistLen[i] = 5
	}
	canonicalCodes(fixedDistLen[:], fixedDistCode[:])
}

// lengthCode returns the length code index (0..28) for a match length in
// [3, 258].
func lengthCode(l int) uint8 { return lenCode[l-3] }

// distanceCode returns the distance code (0..29) for a distance in
// [1, 32768].
func distanceCode(d int) uint8 {
	if d <= 256 {
		return distCodeLo[d-1]
	}
	return distCodeHi[(d-1)>>7]
}

// canonicalCodes fills codes with the canonical DEFLATE code for each
// symbol's length, pre-reversed for LSB-first emission (RFC 1951 packs
// Huffman codes most-significant-bit first inside the LSB-first stream).
func canonicalCodes(lens []uint8, codes []uint16) {
	var blCount [maxBits + 1]uint16
	for _, l := range lens {
		blCount[l]++
	}
	blCount[0] = 0
	var next [maxBits + 2]uint16
	code := uint16(0)
	for b := 1; b <= maxBits; b++ {
		code = (code + blCount[b-1]) << 1
		next[b] = code
	}
	for i, l := range lens {
		if l == 0 {
			codes[i] = 0
			continue
		}
		codes[i] = bits.Reverse16(next[l]) >> (16 - l)
		next[l]++
	}
}

// buildLens computes optimal prefix-code lengths for freq, limited to
// maxLen bits, into lens (zeroed for unused symbols). It uses the
// standard two-queue Huffman construction over frequency-sorted symbols
// followed by zlib's bl_count overflow adjustment, and reassigns lengths
// monotonically (most frequent symbol gets the shortest code), which is
// optimal among limit-respecting codes with the same length multiset.
// scratch is the caller's reusable sort buffer. Returns the total coded
// size in bits, Σ freq·len.
func buildLens(freq []uint32, maxLen int, lens []uint8, scratch *[]uint32) uint64 {
	clear(lens[:len(freq)])
	// Pack (freq, symbol) pairs so a plain slices.Sort gives a
	// deterministic frequency-then-symbol order with no comparator
	// closure. Frequencies are < 2^23 (block sizes are ≤ 65535 bytes and
	// token counts smaller still), symbols < 2^9.
	syms := (*scratch)[:0]
	for i, f := range freq {
		if f != 0 {
			syms = append(syms, f<<9|uint32(i))
		}
	}
	*scratch = syms
	n := len(syms)
	switch n {
	case 0:
		return 0
	case 1:
		s := syms[0] & 511
		lens[s] = 1
		return uint64(syms[0] >> 9)
	}
	slices.Sort(syms)

	// Two-queue merge: leaves (sorted ascending) and internal nodes (built
	// in ascending weight order). parent[] links every node to its merge
	// parent; depth then flows root-down.
	const maxNodes = 2*numLitLen - 1
	var weight [maxNodes]uint64
	var parent [maxNodes]int16
	for i, s := range syms {
		weight[i] = uint64(s >> 9)
	}
	li, ii := 0, n // leaf cursor, internal-node read cursor
	next := n      // next internal node to create
	for next < 2*n-1 {
		var pick [2]int
		for k := 0; k < 2; k++ {
			if li < n && (ii >= next || weight[li] <= weight[ii]) {
				pick[k] = li
				li++
			} else {
				pick[k] = ii
				ii++
			}
		}
		weight[next] = weight[pick[0]] + weight[pick[1]]
		parent[pick[0]] = int16(next)
		parent[pick[1]] = int16(next)
		next++
	}
	var depth [maxNodes]uint8
	root := 2*n - 2
	depth[root] = 0
	for i := root - 1; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}

	// Histogram of leaf depths, clamping leaves deeper than maxLen, then
	// the zlib repair: move one interior slot down a level — which takes
	// one clamped leaf off the maxLen level and lowers the Kraft sum
	// Σ2^-len by exactly 2^-maxLen — until the sum is back to 1. The loop
	// runs on that exact excess, counted in units of 2^-maxLen, rather
	// than on half the number of clamped leaves: that count falls short
	// when a leaf sits two or more levels past the limit (zlib's
	// gen_bitlen also counts the clamped internal nodes), leaving an
	// over-subscribed code that inflaters reject. When every clamped
	// leaf sat one level past the limit the two agree, so the lengths
	// are zlib's.
	var blCount [maxBits + 1]int
	for i := 0; i < n; i++ {
		blCount[min(int(depth[i]), maxLen)]++
	}
	excess := -1 << maxLen
	for b := 1; b <= maxLen; b++ {
		excess += blCount[b] << (maxLen - b)
	}
	for ; excess > 0; excess-- {
		b := maxLen - 1
		for blCount[b] == 0 {
			b--
		}
		blCount[b]--
		blCount[b+1] += 2
		blCount[maxLen]--
	}

	// Reassign: shortest lengths to the most frequent symbols. syms is
	// sorted ascending, so walk it backwards while lengths grow.
	total := uint64(0)
	i := n - 1
	for b := 1; b <= maxLen; b++ {
		for c := blCount[b]; c > 0; c-- {
			s := syms[i] & 511
			i--
			lens[s] = uint8(b)
			total += uint64(b) * uint64(freq[s])
		}
	}
	return total
}

// clToken is one symbol of the RLE-compressed code-length sequence a
// dynamic header transmits: sym is the CL alphabet symbol (0-18), extra
// the value of its extra-bits field.
type clToken struct {
	sym   uint8
	extra uint8
}

// clEncode RLE-compresses the concatenated literal/length + distance
// code-length sequence into tokens (RFC 1951 §3.2.7: 16 repeats the
// previous length 3-6 times, 17 and 18 encode zero runs) and accumulates
// CL symbol frequencies. Returns the token list.
func clEncode(lens []uint8, tokens []clToken, clFreq *[numCL]uint32) []clToken {
	for i := 0; i < len(lens); {
		v := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == v {
			run++
		}
		switch {
		case v == 0 && run >= 3:
			for run >= 3 {
				r := run
				if r > 138 {
					r = 138
				}
				if r < 11 {
					tokens = append(tokens, clToken{17, uint8(r - 3)})
					clFreq[17]++
				} else {
					tokens = append(tokens, clToken{18, uint8(r - 11)})
					clFreq[18]++
				}
				run -= r
				i += r
			}
			for ; run > 0; run-- {
				tokens = append(tokens, clToken{0, 0})
				clFreq[0]++
				i++
			}
		case v != 0 && run >= 4:
			tokens = append(tokens, clToken{v, 0})
			clFreq[v]++
			i++
			run--
			for run >= 3 {
				r := run
				if r > 6 {
					r = 6
				}
				tokens = append(tokens, clToken{16, uint8(r - 3)})
				clFreq[16]++
				run -= r
				i += r
			}
			for ; run > 0; run-- {
				tokens = append(tokens, clToken{v, 0})
				clFreq[v]++
				i++
			}
		default:
			for ; run > 0; run-- {
				tokens = append(tokens, clToken{v, 0})
				clFreq[v]++
				i++
			}
		}
	}
	return tokens
}

// clExtraBits is the extra-bits width of CL symbols 16, 17, 18.
func clExtraBits(sym uint8) uint {
	switch sym {
	case 16:
		return 2
	case 17:
		return 3
	case 18:
		return 7
	}
	return 0
}
