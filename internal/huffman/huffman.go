// Package huffman implements the customized Huffman coding stage of the SZ
// pipeline: a canonical Huffman coder over integer symbols (quantization
// codes). The encoder builds the code from symbol frequencies, emits a
// compact table (code lengths only) followed by four interleaved packed
// bit streams (EncodeLanes4), and the decoder reconstructs the canonical
// code from the lengths. The single-stream body of the legacy chunk
// payloads is decoded only (DecodeInto); nothing writes it any more.
//
// Symbols are non-negative int32s — the quantization-code element type,
// which halves the memory traffic of the counting and emit passes over
// multi-megapoint symbol slices compared to machine-word ints. Typical alphabets are the 2n quantization codes of the SZ
// quantizer (tens of thousands of possible symbols of which a few hundred
// occur).
package huffman

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"fixedpsnr/internal/bitstream"
	"fixedpsnr/internal/kernels"
)

// maxCodeLen bounds canonical code lengths. A Huffman tree over n symbols
// with total count N has depth ≤ log_φ(N)+O(1); 62 accommodates any input
// this module can produce while keeping codes in a uint64.
const maxCodeLen = 62

// enode is a Huffman tree node in the arena-allocated encoder tree:
// children are arena indices, so the whole tree lives in one slice.
type enode struct {
	weight      int64
	symbol      int32 // leaf symbol; min subtree symbol on internal nodes
	left, right int32 // arena indices, -1 for leaves
}

// Scratch holds the Huffman encoder's construction state — frequency
// table, node arena, heap, and the canonical symbol/length/code tables —
// sized by the symbol alphabet, so sessions that encode many chunks
// reuse one set instead of rebuilding maps and trees from the heap every
// call. A nil *Scratch is valid and falls back to fresh allocation.
// Scratch is not safe for concurrent use; pool instances and hand one to
// each in-flight encode.
type Scratch struct {
	freq    []int64
	present []int32
	lenOf   []uint8
	codes   []uint64
	nodes   []enode
	heap    []int32
	stack   []int64
	lw      [4]bitstream.Writer // per-lane body writers (EncodeLanes4)
}

// NewScratch returns an empty Huffman scratch.
func NewScratch() *Scratch { return &Scratch{} }

// freqBuf returns a zeroed dense frequency table of length n.
func (s *Scratch) freqBuf(n int) []int64 {
	if s == nil || cap(s.freq) < n {
		buf := make([]int64, n)
		if s != nil {
			s.freq = buf
		}
		return buf
	}
	buf := s.freq[:n]
	clear(buf)
	return buf
}

// lenOfBuf returns a zeroed dense symbol→length table of length n.
func (s *Scratch) lenOfBuf(n int) []uint8 {
	if s == nil || cap(s.lenOf) < n {
		buf := make([]uint8, n)
		if s != nil {
			s.lenOf = buf
		}
		return buf
	}
	buf := s.lenOf[:n]
	clear(buf)
	return buf
}

// codesBuf returns a dense symbol→code table of length n (contents
// unspecified; only present symbols are written and read).
func (s *Scratch) codesBuf(n int) []uint64 {
	if s == nil || cap(s.codes) < n {
		buf := make([]uint64, n)
		if s != nil {
			s.codes = buf
		}
		return buf
	}
	return s.codes[:n]
}

// presentBuf returns an empty present-symbol list with capacity hint n.
func (s *Scratch) presentBuf(n int) []int32 {
	if s == nil || cap(s.present) < n {
		return make([]int32, 0, n)
	}
	return s.present[:0]
}

// nodesBuf returns an empty node arena with capacity hint n.
func (s *Scratch) nodesBuf(n int) []enode {
	if s == nil || cap(s.nodes) < n {
		return make([]enode, 0, n)
	}
	return s.nodes[:0]
}

// heapBuf returns an empty index heap with capacity hint n.
func (s *Scratch) heapBuf(n int) []int32 {
	if s == nil || cap(s.heap) < n {
		return make([]int32, 0, n)
	}
	return s.heap[:0]
}

// stackBuf returns an empty traversal stack with capacity hint n.
func (s *Scratch) stackBuf(n int) []int64 {
	if s == nil || cap(s.stack) < n {
		return make([]int64, 0, n)
	}
	return s.stack[:0]
}

// keep stores the final slices back so grown buffers survive to the next
// encode with this scratch.
func (s *Scratch) keep(present []int32, nodes []enode, heap []int32, stack []int64) {
	if s == nil {
		return
	}
	s.present, s.nodes, s.heap, s.stack = present, nodes, heap, stack
}

// nodeLess orders the build heap: by weight, tie-broken on the minimum
// subtree symbol so construction is deterministic.
func nodeLess(nodes []enode, a, b int32) bool {
	if nodes[a].weight != nodes[b].weight {
		return nodes[a].weight < nodes[b].weight
	}
	return nodes[a].symbol < nodes[b].symbol
}

// heapPush adds arena index v to the index min-heap h.
func heapPush(h []int32, nodes []enode, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(nodes, h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// heapPop removes and returns the minimum arena index from h.
func heapPop(h []int32, nodes []enode) ([]int32, int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && nodeLess(nodes, h[l], h[small]) {
			small = l
		}
		if r < len(h) && nodeLess(nodes, h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// tableBits is the width of the one-level decode lookup table: the next
// tableBits peeked bits resolve (canonical index, code length) for every
// code no longer than tableBits in a single load. Canonical order sorts
// short codes first, so at most 1<<tableBits of them exist and their
// canonical indices fit 11 bits — one uint16 entry packs idx<<4 | length.
// Longer codes (rare on real quantization-code distributions) fall back to
// the canonical per-length walk.
const tableBits = 11

// DecodeScratch holds the Huffman decoder's reusable state — the lookup
// table, the canonical symbol/length slices, and the per-length canonical
// tables — so sessions that decode many chunks stop rebuilding map-backed
// tables from the heap every call. A nil *DecodeScratch is valid and falls
// back to fresh allocation. Not safe for concurrent use; pool instances
// and hand one to each in-flight decode.
type DecodeScratch struct {
	syms []int32 // symbols in canonical order (by length, then symbol)
	lens []uint8 // parallel code lengths
	dup  []int32 // duplicate-detection scratch

	table     [1 << tableBits]uint16 // peek pattern → idx<<4 | len; 0 = fallback
	firstCode [maxCodeLen + 2]uint64
	firstSym  [maxCodeLen + 2]int32
	countAt   [maxCodeLen + 2]int32

	// Table cache: the canonical (symbol, length) vectors the lookup
	// tables above were last built from, plus a hash for fast rejection.
	// Chunks of one field frequently share histograms (smooth regions
	// quantize to near-identical code distributions), so a pooled scratch
	// sees the same table back to back and skips the 4 KB table clear and
	// populate. The full vector comparison after the hash match makes a
	// collision harmless.
	tblSyms  []int32
	tblLens  []uint8
	tblKey   uint64
	tblValid bool

	r     bitstream.Reader
	lanes [4]bitstream.Reader // four-lane round-robin readers (DecodeLanes4Into)
}

// NewDecodeScratch returns an empty Huffman decode scratch.
func NewDecodeScratch() *DecodeScratch { return &DecodeScratch{} }

// symsBuf returns empty canonical symbol/length slices with capacity hint n.
func (ds *DecodeScratch) symsBuf(n int) ([]int32, []uint8) {
	if ds == nil || cap(ds.syms) < n || cap(ds.lens) < n {
		return make([]int32, 0, n), make([]uint8, 0, n)
	}
	return ds.syms[:0], ds.lens[:0]
}

// dupBuf returns an empty duplicate-check slice with capacity hint n.
func (ds *DecodeScratch) dupBuf(n int) []int32 {
	if ds == nil || cap(ds.dup) < n {
		return make([]int32, 0, n)
	}
	return ds.dup[:0]
}

// keep stores grown slices back so they survive to the next decode.
func (ds *DecodeScratch) keep(syms []int32, lens []uint8, dup []int32) {
	if ds == nil {
		return
	}
	ds.syms, ds.lens, ds.dup = syms, lens, dup
}

// canonicalSorter orders parallel (symbol, length) slices by (length,
// symbol) — the canonical code order. Only corrupt or foreign streams
// need it: this package's encoder already emits the table sorted.
type canonicalSorter struct {
	syms []int32
	lens []uint8
}

func (c *canonicalSorter) Len() int { return len(c.syms) }
func (c *canonicalSorter) Less(i, j int) bool {
	if c.lens[i] != c.lens[j] {
		return c.lens[i] < c.lens[j]
	}
	return c.syms[i] < c.syms[j]
}
func (c *canonicalSorter) Swap(i, j int) {
	c.syms[i], c.syms[j] = c.syms[j], c.syms[i]
	c.lens[i], c.lens[j] = c.lens[j], c.lens[i]
}

// buildTable counts syms, builds the canonical code, and appends the
// self-describing table header — uvarint(len(syms)), uvarint(nsym), then
// the (symbol, length) pairs in canonical order — to dst. It returns the
// dense symbol→length and symbol→code tables the emit loops index; both
// are scratch-owned (valid until the next build with the same sc).
func buildTable(dst []byte, syms []int32, maxSym int, sc *Scratch) (out []byte, lenOf []uint8, codes []uint64, err error) {
	// Count into four interleaved lanes (kernels.CountLanes4): runs of
	// one dominant symbol (the common case for quantization codes)
	// otherwise serialize on store-to-load forwarding of a single
	// counter. The lane assignment (position i into lane i mod 4) is the
	// same assignment EncodeLanes4 splits the payload by, so lane i's
	// counts are exactly lane i's symbol frequencies; only the summed
	// totals feed the shared table, which is what keeps one canonical
	// code valid for all four lane bitstreams. The merge pass also
	// rebuilds the present list, replacing the per-symbol branch.
	m := maxSym + 1
	lanes := sc.freqBuf(4 * m)
	lane0, lane1 := lanes[:m], lanes[m:2*m]
	lane2, lane3 := lanes[2*m:3*m], lanes[3*m:]
	kernels.CountLanes4(lane0, lane1, lane2, lane3, syms)
	freq := lane0
	present := sc.presentBuf(256)
	for s, f := range lane0 {
		f += lane1[s] + lane2[s] + lane3[s]
		if f != 0 {
			freq[s] = f
			present = append(present, int32(s))
		}
	}
	nsym := len(present)

	// Code lengths per symbol (dense table; zero = absent).
	lenOf = sc.lenOfBuf(maxSym + 1)
	nodes := sc.nodesBuf(2 * nsym)
	heap := sc.heapBuf(nsym)
	stack := sc.stackBuf(2 * nsym)
	switch nsym {
	case 0:
		// Empty input: emit the trivial header below.
	case 1:
		lenOf[present[0]] = 1
	default:
		for _, s := range present {
			nodes = append(nodes, enode{weight: freq[s], symbol: s, left: -1, right: -1})
		}
		for i := range nodes {
			heap = heapPush(heap, nodes, int32(i))
		}
		for len(heap) > 1 {
			var a, b int32
			heap, a = heapPop(heap, nodes)
			heap, b = heapPop(heap, nodes)
			nodes = append(nodes, enode{
				weight: nodes[a].weight + nodes[b].weight,
				symbol: min(nodes[a].symbol, nodes[b].symbol),
				left:   a, right: b,
			})
			heap = heapPush(heap, nodes, int32(len(nodes)-1))
		}
		// Iterative depth-first walk assigning leaf depths; entries pack
		// (arena index << 8 | depth), depth ≤ maxCodeLen < 256.
		stack = append(stack, int64(heap[0])<<8)
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			idx, depth := int32(top>>8), int(top&0xff)
			n := nodes[idx]
			if n.left < 0 {
				if depth > maxCodeLen {
					sc.keep(present, nodes, heap, stack)
					return nil, nil, nil, fmt.Errorf("huffman: code length %d exceeds maximum %d", depth, maxCodeLen)
				}
				lenOf[n.symbol] = uint8(depth)
				continue
			}
			stack = append(stack, int64(n.left)<<8|int64(depth+1))
			stack = append(stack, int64(n.right)<<8|int64(depth+1))
		}
	}

	// Canonical order: by (length, symbol).
	slices.SortFunc(present, func(a, b int32) int {
		if lenOf[a] != lenOf[b] {
			return int(lenOf[a]) - int(lenOf[b])
		}
		return int(a - b)
	})
	codes = sc.codesBuf(maxSym + 1)
	var code uint64
	prevLen := uint8(0)
	for _, s := range present {
		l := lenOf[s]
		code <<= uint(l - prevLen)
		codes[s] = code
		code++
		prevLen = l
	}

	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	dst = binary.AppendUvarint(dst, uint64(nsym))
	for _, s := range present {
		dst = binary.AppendUvarint(dst, uint64(s))
		dst = binary.AppendUvarint(dst, uint64(lenOf[s]))
	}
	sc.keep(present, nodes, heap, stack)
	return dst, lenOf, codes, nil
}

// EncodeLanes4Scratch is EncodeLanes4 computing the symbol bound itself
// with a validation pass, for callers whose symbols carry no
// construction-time bound.
func EncodeLanes4Scratch(dst []byte, syms []int32, sc *Scratch) ([]byte, error) {
	maxSym := int32(0)
	for _, s := range syms {
		if s < 0 {
			return nil, fmt.Errorf("huffman: negative symbol %d", s)
		}
		if s > maxSym {
			maxSym = s
		}
	}
	return EncodeLanes4(dst, syms, int(maxSym), sc)
}

// emitPair packs two symbols' code words into w, one WriteBits call when
// their combined width fits one staged write.
func emitPair(w *bitstream.Writer, s0, s1 int32, lenOf []uint8, codes []uint64) {
	l0, l1 := uint(lenOf[s0]), uint(lenOf[s1])
	if l0+l1 <= 56 {
		w.WriteBits(codes[s0]<<l1|codes[s1], l0+l1)
		return
	}
	w.WriteBits(codes[s0], l0)
	w.WriteBits(codes[s1], l1)
}

// EncodeLanes4 appends the four-lane interleaved encoding of syms to dst:
// the canonical table header — uvarint(len(syms)), uvarint(nsym), then
// the (symbol, length) pairs in canonical order, built over all symbols
// and shared by every lane — then the four lane body byte lengths as
// uvarints, then the four packed lane bitstreams back to back. Lane i
// carries symbols i, i+4, i+8, … — the CountLanes4 assignment — each as
// an independent bitstream, so DecodeLanes4Into can keep four symbol
// resolutions in flight instead of serializing on one peek→consume
// chain.
//
// The emit fuses the lane split into one sequential pass: each block of
// eight input symbols hands lane j the pair (syms[i+j], syms[i+4+j]), so
// no staged kernels.LaneSplit4 scatter — a strided-store pass over the
// whole slice that profiles as most of the lane overhead — ever runs on
// the encode path. The bytes are identical to splitting first and
// emitting each lane slice on its own; the differential test against
// that kernels.LaneSplit4 reference pins the equivalence.
//
// Every symbol must lie in [0, maxSym] — a symbol outside that range
// panics (slice bounds) rather than returning an error — which lets
// callers whose symbols are bounded by construction (quantization codes
// are < capacity) skip a validation pass. The emitted table covers only
// symbols that occur, so an over-estimated bound costs scratch memory,
// not stream bytes. A nil sc allocates fresh; the encoded bytes are
// identical whatever sc is.
func EncodeLanes4(dst []byte, syms []int32, maxSym int, sc *Scratch) ([]byte, error) {
	if sc == nil {
		sc = NewScratch()
	}
	dst, lenOf, codes, err := buildTable(dst, syms, maxSym, sc)
	if err != nil {
		return nil, err
	}

	w0, w1, w2, w3 := &sc.lw[0], &sc.lw[1], &sc.lw[2], &sc.lw[3]
	w0.Reset()
	w1.Reset()
	w2.Reset()
	w3.Reset()
	i := 0
	for ; i+8 <= len(syms); i += 8 {
		emitPair(w0, syms[i], syms[i+4], lenOf, codes)
		emitPair(w1, syms[i+1], syms[i+5], lenOf, codes)
		emitPair(w2, syms[i+2], syms[i+6], lenOf, codes)
		emitPair(w3, syms[i+3], syms[i+7], lenOf, codes)
	}
	// Tail: each lane has at most two symbols left (positions i+j and
	// i+4+j), paired like the rest of the lane.
	for j, w := range [4]*bitstream.Writer{w0, w1, w2, w3} {
		if i+j >= len(syms) {
			break
		}
		if i+4+j < len(syms) {
			emitPair(w, syms[i+j], syms[i+4+j], lenOf, codes)
			continue
		}
		s := syms[i+j]
		w.WriteBits(codes[s], uint(lenOf[s]))
	}

	var bodies [4][]byte
	for lane, w := range [4]*bitstream.Writer{w0, w1, w2, w3} {
		bodies[lane] = w.Bytes()
	}
	for _, body := range bodies {
		dst = binary.AppendUvarint(dst, uint64(len(body)))
	}
	for _, body := range bodies {
		dst = append(dst, body...)
	}
	return dst, nil
}

// Decode decodes a single-stream Huffman block — the table header
// EncodeLanes4 also emits, then uvarint(bodyLen) and one packed bit
// stream — the layout of legacy chunk payloads. It returns the decoded
// symbols and the number of bytes consumed from buf, allowing the caller
// to embed the Huffman block inside a larger stream.
func Decode(buf []byte) (syms []int32, consumed int, err error) {
	return DecodeInto(nil, buf, nil)
}

// parseTable reads the leading symbol count and canonical (symbol,
// length) table shared by the single-stream and four-lane formats,
// returning the scratch-owned canonical slices and the bytes consumed.
// On return csyms/clens are kept in ds for reuse by the next parse.
func parseTable(buf []byte, ds *DecodeScratch) (n uint64, csyms []int32, clens []uint8, consumed int, err error) {
	rd := buf
	n, k := binary.Uvarint(rd)
	if k <= 0 {
		return 0, nil, nil, 0, fmt.Errorf("huffman: truncated symbol count")
	}
	rd = rd[k:]
	consumed += k
	nsym, k := binary.Uvarint(rd)
	if k <= 0 {
		return 0, nil, nil, 0, fmt.Errorf("huffman: truncated table size")
	}
	rd = rd[k:]
	consumed += k
	if nsym > uint64(len(rd)) {
		// Each table entry takes ≥ 2 bytes; reject the count before
		// sizing buffers from it.
		return 0, nil, nil, 0, fmt.Errorf("huffman: table size %d exceeds buffer", nsym)
	}

	csyms, clens = ds.symsBuf(int(nsym))
	sorted := true
	prevLen, prevSym := uint8(0), -1
	for i := uint64(0); i < nsym; i++ {
		s, k1 := binary.Uvarint(rd)
		if k1 <= 0 {
			ds.keep(csyms, clens, ds.dupBuf(0))
			return 0, nil, nil, 0, fmt.Errorf("huffman: truncated table entry")
		}
		rd = rd[k1:]
		consumed += k1
		l, k2 := binary.Uvarint(rd)
		if k2 <= 0 {
			ds.keep(csyms, clens, ds.dupBuf(0))
			return 0, nil, nil, 0, fmt.Errorf("huffman: truncated table entry length")
		}
		rd = rd[k2:]
		consumed += k2
		if l == 0 || l > maxCodeLen {
			ds.keep(csyms, clens, ds.dupBuf(0))
			return 0, nil, nil, 0, fmt.Errorf("huffman: invalid code length %d", l)
		}
		if s > 1<<31-1 {
			ds.keep(csyms, clens, ds.dupBuf(0))
			return 0, nil, nil, 0, fmt.Errorf("huffman: symbol %d out of range", s)
		}
		if uint8(l) < prevLen || (uint8(l) == prevLen && int(s) <= prevSym) {
			sorted = false
		}
		prevLen, prevSym = uint8(l), int(s)
		csyms = append(csyms, int32(s))
		clens = append(clens, uint8(l))
	}
	// This package's encoder emits the table in canonical (length, symbol)
	// order, so the sort below never runs on its own streams; foreign or
	// mutated tables are normalized the slow way.
	if !sorted {
		sort.Sort(&canonicalSorter{syms: csyms, lens: clens})
	}
	// Duplicate symbols would make the code ambiguous; the canonical sort
	// does not make equal symbols with different lengths adjacent, so the
	// check sorts a scratch copy by symbol value.
	dup := ds.dupBuf(len(csyms))
	dup = append(dup, csyms...)
	slices.Sort(dup)
	for i := 1; i < len(dup); i++ {
		if dup[i] == dup[i-1] {
			ds.keep(csyms, clens, dup)
			return 0, nil, nil, 0, fmt.Errorf("huffman: duplicate symbols in table")
		}
	}
	ds.keep(csyms, clens, dup)
	return n, csyms, clens, consumed, nil
}

// tableKey hashes the canonical (symbol, length) vectors — FNV-1a over
// both, length-prefixed — for the prepareTables cache's fast reject.
func tableKey(syms []int32, lens []uint8) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(len(syms))
	h *= prime
	for _, s := range syms {
		h ^= uint64(uint32(s))
		h *= prime
	}
	for _, l := range lens {
		h ^= uint64(l)
		h *= prime
	}
	return h
}

// prepareTables builds the decoding tables for the canonical code
// csyms/clens describe: the per-length first-code/first-symbol tables and
// the one-level lookup table. When the scratch last built the same
// canonical vectors — hash fast-reject, then full comparison — the
// existing tables are reused, skipping the 4 KB table clear and populate;
// chunks of one field frequently share histograms, so pooled scratches
// hit this cache back to back.
func (ds *DecodeScratch) prepareTables(csyms []int32, clens []uint8) {
	key := tableKey(csyms, clens)
	if ds.tblValid && ds.tblKey == key &&
		slices.Equal(ds.tblSyms, csyms) && slices.Equal(ds.tblLens, clens) {
		return
	}
	ds.tblValid = false

	// Canonical decoding tables: for each length, the first code word and
	// the index of its first symbol in the canonical order.
	firstCode := &ds.firstCode
	firstSym := &ds.firstSym
	countAt := &ds.countAt
	clear(countAt[:])
	for _, l := range clens {
		countAt[l]++
	}
	var code uint64
	var idx int32
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		firstSym[l] = idx
		code = (code + uint64(countAt[l])) << 1
		idx += countAt[l]
	}

	// One-level lookup table: every code of length ≤ tableBits owns all
	// 1<<(tableBits-len) patterns it prefixes; entry 0 marks the long-code
	// fallback. Canonical order puts short codes first, so their indices
	// fit the packed uint16.
	table := &ds.table
	clear(table[:])
	code = 0
	prev := uint8(0)
	for i, l := range clens {
		if uint(l) > tableBits {
			break
		}
		code <<= uint(l - prev)
		prev = l
		lo := code << (tableBits - uint(l))
		hi := lo + 1<<(tableBits-uint(l))
		if lo >= uint64(len(table)) {
			break // oversubscribed (corrupt) table; fallback still guards
		}
		if hi > uint64(len(table)) {
			hi = uint64(len(table))
		}
		e := uint16(i)<<4 | uint16(l)
		for j := lo; j < hi; j++ {
			table[j] = e
		}
		code++
	}

	ds.tblKey = key
	ds.tblSyms = append(ds.tblSyms[:0], csyms...)
	ds.tblLens = append(ds.tblLens[:0], clens...)
	ds.tblValid = true
}

// decodeSym resolves one symbol from r through the prepared tables: a
// single-load table hit on short codes, the canonical per-length walk on
// long ones. It is the checked slow path the four-lane decoder falls back
// to for tail symbols and rare long-code rounds; the hot loops inline the
// table hit themselves. Returns bitstream.ErrOutOfBits on exhaustion.
func (ds *DecodeScratch) decodeSym(r *bitstream.Reader, csyms []int32) (int32, error) {
	if r.Buffered() < tableBits {
		r.Refill()
	}
	if e := ds.table[r.Window()>>(64-tableBits)]; e != 0 {
		l := uint(e & 0xf)
		if l > r.Buffered() {
			return 0, bitstream.ErrOutOfBits
		}
		r.Skip(l)
		return csyms[e>>4], nil
	}
	var cw uint64
	l := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, bitstream.ErrOutOfBits
		}
		cw = cw<<1 | uint64(b)
		l++
		if l > maxCodeLen {
			return 0, fmt.Errorf("huffman: code longer than %d bits", maxCodeLen)
		}
		if ds.countAt[l] > 0 && cw-ds.firstCode[l] < uint64(ds.countAt[l]) {
			return csyms[ds.firstSym[l]+int32(cw-ds.firstCode[l])], nil
		}
	}
}

// DecodeInto is Decode appending the symbols into dst[:0] (grown as
// needed) and drawing every decoding table — the one-level lookup table,
// the canonical symbol/length slices, the per-length canonical tables,
// and the bit reader — from ds, so repeated decodes (one per chunk, in a
// long-lived session) stop rebuilding them from the heap. Nil dst and/or
// ds allocate fresh. The decoded symbols are identical whatever dst and
// ds are.
func DecodeInto(dst []int32, buf []byte, ds *DecodeScratch) (syms []int32, consumed int, err error) {
	if ds == nil {
		ds = &DecodeScratch{}
	}
	n, csyms, clens, consumed, err := parseTable(buf, ds)
	if err != nil {
		return nil, 0, err
	}
	rd := buf[consumed:]

	bodyLen, k := binary.Uvarint(rd)
	if k <= 0 {
		return nil, 0, fmt.Errorf("huffman: truncated body length")
	}
	rd = rd[k:]
	consumed += k
	if uint64(len(rd)) < bodyLen {
		return nil, 0, fmt.Errorf("huffman: body shorter than declared (%d < %d)", len(rd), bodyLen)
	}
	body := rd[:bodyLen]
	consumed += int(bodyLen)

	if n == 0 {
		if dst != nil {
			return dst[:0], consumed, nil
		}
		return []int32{}, consumed, nil
	}
	if len(csyms) == 0 {
		return nil, 0, fmt.Errorf("huffman: %d symbols declared but table is empty", n)
	}
	// Every symbol costs at least one bit, so a corrupt count larger
	// than the body could hold must be rejected before allocation.
	if n > bodyLen*8 {
		return nil, 0, fmt.Errorf("huffman: %d symbols cannot fit in %d body bytes", n, bodyLen)
	}

	ds.prepareTables(csyms, clens)
	table := &ds.table
	firstCode := &ds.firstCode
	firstSym := &ds.firstSym
	countAt := &ds.countAt

	r := &ds.r
	r.Reset(body)
	if uint64(cap(dst)) < n {
		dst = make([]int32, n)
	}
	out := dst[:n]
	// The hot loop refills the reader's 64-bit window once per symbol at
	// most, resolves short codes with a single table load, and consumes
	// their bits with an unchecked Skip — no per-bit calls, no double
	// refill check from a Peek/Consume pair.
	for pos := range out {
		if r.Buffered() < tableBits {
			r.Refill()
		}
		if e := table[r.Window()>>(64-tableBits)]; e != 0 {
			l := uint(e & 0xf)
			if l > r.Buffered() {
				return nil, 0, fmt.Errorf("huffman: bit stream exhausted after %d of %d symbols", pos, n)
			}
			r.Skip(l)
			out[pos] = csyms[e>>4]
			continue
		}
		// Long code (or exhaustion): canonical walk, one bit at a time.
		var cw uint64
		l := 0
		for {
			b, err := r.ReadBit()
			if err != nil {
				return nil, 0, fmt.Errorf("huffman: bit stream exhausted after %d of %d symbols", pos, n)
			}
			cw = cw<<1 | uint64(b)
			l++
			if l > maxCodeLen {
				return nil, 0, fmt.Errorf("huffman: code longer than %d bits", maxCodeLen)
			}
			if countAt[l] > 0 && cw-firstCode[l] < uint64(countAt[l]) {
				out[pos] = csyms[firstSym[l]+int32(cw-firstCode[l])]
				break
			}
		}
	}
	return out, consumed, nil
}

// DecodeLanes4Into reverses EncodeLanes4, appending the symbols into
// dst[:0] (grown as needed). The four lane bitstreams decode round-robin
// on four independent reader windows: one fused refill per round, then
// four table loads whose symbol resolutions carry no data dependency on
// each other, so the peek→consume chain that serializes single-stream
// decode runs four-wide. Nil dst and/or ds allocate fresh; the decoded
// symbols are identical to DecodeInto over the equivalent single-stream
// encoding.
func DecodeLanes4Into(dst []int32, buf []byte, ds *DecodeScratch) (syms []int32, consumed int, err error) {
	if ds == nil {
		ds = &DecodeScratch{}
	}
	n, csyms, clens, consumed, err := parseTable(buf, ds)
	if err != nil {
		return nil, 0, err
	}
	rd := buf[consumed:]

	var laneLen [4]int
	total := 0
	for i := range laneLen {
		l, k := binary.Uvarint(rd)
		if k <= 0 {
			return nil, 0, fmt.Errorf("huffman: truncated lane %d length", i)
		}
		rd = rd[k:]
		consumed += k
		if l > uint64(len(rd)) {
			return nil, 0, fmt.Errorf("huffman: lane %d body shorter than declared (%d < %d)", i, len(rd), l)
		}
		laneLen[i] = int(l)
		total += int(l)
	}
	if total > len(rd) {
		return nil, 0, fmt.Errorf("huffman: lane bodies shorter than declared (%d < %d)", len(rd), total)
	}
	var body [4][]byte
	off := 0
	for i := range body {
		body[i] = rd[off : off+laneLen[i]]
		off += laneLen[i]
	}
	consumed += total

	if n == 0 {
		if dst != nil {
			return dst[:0], consumed, nil
		}
		return []int32{}, consumed, nil
	}
	if len(csyms) == 0 {
		return nil, 0, fmt.Errorf("huffman: %d symbols declared but table is empty", n)
	}
	// Every symbol costs at least one bit in its lane; reject corrupt
	// counts before allocation, per lane so no lane can overrun its own
	// stream into a neighbor's bytes.
	if n > uint64(total)*8 {
		return nil, 0, fmt.Errorf("huffman: %d symbols cannot fit in %d lane body bytes", n, total)
	}
	c0, c1, c2, c3 := kernels.LaneLens4(int(n))
	for i, c := range [4]int{c0, c1, c2, c3} {
		if c > laneLen[i]*8 {
			return nil, 0, fmt.Errorf("huffman: lane %d: %d symbols cannot fit in %d body bytes", i, c, laneLen[i])
		}
	}

	ds.prepareTables(csyms, clens)
	table := &ds.table

	r0, r1, r2, r3 := &ds.lanes[0], &ds.lanes[1], &ds.lanes[2], &ds.lanes[3]
	r0.Reset(body[0])
	r1.Reset(body[1])
	r2.Reset(body[2])
	r3.Reset(body[3])
	if uint64(cap(dst)) < n {
		dst = make([]int32, n)
	}
	out := dst[:n]
	// Block hot loop: one fused refill buys every lane ≥ 44 staged bits —
	// four table codes of ≤ tableBits each — so four whole rounds (16
	// symbols) run with no refill branch, no exhaustion check, and no
	// per-symbol call. Within each round the four table lookups depend
	// only on their own lane's window, so the CPU overlaps all four
	// symbol resolutions — the ILP the single-stream peek→consume chain
	// can never expose. A fallback entry (long code, or a lane too near
	// its end to re-arm) exits to the checked per-round loop below, which
	// finishes the stream.
	pos := 0
blocks:
	for pos+16 <= int(n) {
		if r0.Buffered() < 4*tableBits || r1.Buffered() < 4*tableBits ||
			r2.Buffered() < 4*tableBits || r3.Buffered() < 4*tableBits {
			bitstream.Refill4(r0, r1, r2, r3)
			if r0.Buffered() < 4*tableBits || r1.Buffered() < 4*tableBits ||
				r2.Buffered() < 4*tableBits || r3.Buffered() < 4*tableBits {
				break
			}
		}
		for k := 0; k < 4; k++ {
			e0 := table[r0.Window()>>(64-tableBits)]
			e1 := table[r1.Window()>>(64-tableBits)]
			e2 := table[r2.Window()>>(64-tableBits)]
			e3 := table[r3.Window()>>(64-tableBits)]
			if e0 == 0 || e1 == 0 || e2 == 0 || e3 == 0 {
				break blocks // nothing consumed this round; finish below
			}
			r0.Skip(uint(e0 & 0xf))
			r1.Skip(uint(e1 & 0xf))
			r2.Skip(uint(e2 & 0xf))
			r3.Skip(uint(e3 & 0xf))
			out[pos] = csyms[e0>>4]
			out[pos+1] = csyms[e1>>4]
			out[pos+2] = csyms[e2>>4]
			out[pos+3] = csyms[e3>>4]
			pos += 4
		}
	}
	// Checked per-round loop: the block loop's remainder (stream tails,
	// long codes, corrupt streams) decodes with full per-symbol guards.
	for ; pos+4 <= int(n); pos += 4 {
		if r0.Buffered() < tableBits || r1.Buffered() < tableBits ||
			r2.Buffered() < tableBits || r3.Buffered() < tableBits {
			bitstream.Refill4(r0, r1, r2, r3)
		}
		e0 := table[r0.Window()>>(64-tableBits)]
		e1 := table[r1.Window()>>(64-tableBits)]
		e2 := table[r2.Window()>>(64-tableBits)]
		e3 := table[r3.Window()>>(64-tableBits)]
		if e0 == 0 || e1 == 0 || e2 == 0 || e3 == 0 {
			for lane, r := range [4]*bitstream.Reader{r0, r1, r2, r3} {
				s, derr := ds.decodeSym(r, csyms)
				if derr == bitstream.ErrOutOfBits {
					return nil, 0, fmt.Errorf("huffman: lane %d bit stream exhausted after %d of %d symbols", lane, pos+lane, n)
				}
				if derr != nil {
					return nil, 0, derr
				}
				out[pos+lane] = s
			}
			continue
		}
		l0, l1 := uint(e0&0xf), uint(e1&0xf)
		l2, l3 := uint(e2&0xf), uint(e3&0xf)
		if l0 > r0.Buffered() || l1 > r1.Buffered() ||
			l2 > r2.Buffered() || l3 > r3.Buffered() {
			return nil, 0, fmt.Errorf("huffman: bit stream exhausted after %d of %d symbols", pos, n)
		}
		r0.Skip(l0)
		r1.Skip(l1)
		r2.Skip(l2)
		r3.Skip(l3)
		out[pos] = csyms[e0>>4]
		out[pos+1] = csyms[e1>>4]
		out[pos+2] = csyms[e2>>4]
		out[pos+3] = csyms[e3>>4]
	}
	// Tail: the final 1–3 symbols land on lanes 0.. in order, matching
	// LaneSplit4.
	for lane, r := range [4]*bitstream.Reader{r0, r1, r2, r3} {
		if pos+lane >= int(n) {
			break
		}
		s, derr := ds.decodeSym(r, csyms)
		if derr == bitstream.ErrOutOfBits {
			return nil, 0, fmt.Errorf("huffman: lane %d bit stream exhausted after %d of %d symbols", lane, pos+lane, n)
		}
		if derr != nil {
			return nil, 0, derr
		}
		out[pos+lane] = s
	}
	return out, consumed, nil
}
