package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"fixedpsnr/internal/deflate"
	"fixedpsnr/internal/huffman"
)

// Scratch is the reusable compression state a session-style caller (an
// Encoder in the public API) threads through repeated Compress calls so
// the hot path stops allocating its large transient buffers fresh every
// time: quantization-code slices, reconstruction buffers, transform block
// buffers, pre-DEFLATE staging bytes, output buffers, DEFLATE encoders,
// and inflate readers (whose window state dominates a flate.NewReader
// call).
//
// All pools are backed by sync.Pool, so one Scratch is safe for
// concurrent use by any number of goroutines — a single Encoder shared
// across request handlers feeds every worker from the same Scratch.
//
// A nil *Scratch is valid everywhere: getters fall back to plain
// allocation and puts become no-ops, which is exactly the behavior of the
// one-shot (non-session) API.
type Scratch struct {
	int32s   sync.Pool // *[]int32
	floats   sync.Pool // *[]float64
	bytes    sync.Pool // *[]byte
	bufs     sync.Pool // *bytes.Buffer
	huffs    sync.Pool // *huffman.Scratch
	huffDecs sync.Pool // *huffman.DecodeScratch
	flateRs  sync.Pool // io.ReadCloser from flate.NewReader
	deflates sync.Pool // *deflate.Encoder

	mu     sync.Mutex // guards shards
	shards []*Scratch // per-worker children, created lazily by Shard
}

// NewScratch returns an empty scratch pool set.
func NewScratch() *Scratch { return &Scratch{} }

// Shard returns the per-worker child scratch for worker slot w,
// creating it on first use. Shards live as long as their parent, so a
// session's buffers stay warm across encodes, but each shard is only
// ever handed to one worker slot of a parallel section at a time —
// buffers recycled by a worker are reused by the same worker, never
// migrated through a pool another core is hammering. Negative w (or a
// nil receiver) returns the receiver itself, preserving the nil-safe
// one-shot behavior.
func (s *Scratch) Shard(w int) *Scratch {
	if s == nil || w < 0 {
		return s
	}
	s.mu.Lock()
	for len(s.shards) <= w {
		s.shards = append(s.shards, &Scratch{})
	}
	sh := s.shards[w]
	s.mu.Unlock()
	return sh
}

// Int32s returns an int32 slice of length n — the element type of the
// quantization-code buffers, which at tens of millions of points per
// field halves the memory traffic of every pass over the codes compared
// to a machine-word slice. Contents are unspecified; the caller must
// fully overwrite it.
func (s *Scratch) Int32s(n int) []int32 {
	if s != nil {
		if v, ok := s.int32s.Get().(*[]int32); ok && cap(*v) >= n {
			return (*v)[:n]
		}
	}
	return make([]int32, n)
}

// PutInt32s returns a slice obtained from Int32s to the pool.
func (s *Scratch) PutInt32s(p []int32) {
	if s == nil || cap(p) == 0 {
		return
	}
	p = p[:0]
	s.int32s.Put(&p)
}

// Floats returns a float64 slice of length n. Contents are unspecified;
// the caller must fully overwrite it.
func (s *Scratch) Floats(n int) []float64 {
	if s != nil {
		if v, ok := s.floats.Get().(*[]float64); ok && cap(*v) >= n {
			return (*v)[:n]
		}
	}
	return make([]float64, n)
}

// PutFloats returns a slice obtained from Floats to the pool.
func (s *Scratch) PutFloats(p []float64) {
	if s == nil || cap(p) == 0 {
		return
	}
	p = p[:0]
	s.floats.Put(&p)
}

// Bytes returns an empty byte slice with at least capHint capacity, for
// append-style staging buffers.
func (s *Scratch) Bytes(capHint int) []byte {
	if s != nil {
		if v, ok := s.bytes.Get().(*[]byte); ok {
			if cap(*v) >= capHint {
				return (*v)[:0]
			}
			// Too small for this request; drop it and allocate. Pool
			// contents converge on the working-set size quickly.
		}
	}
	return make([]byte, 0, capHint)
}

// PutBytes returns a slice obtained from Bytes to the pool. The caller
// must no longer reference it (or any slice sharing its backing array).
func (s *Scratch) PutBytes(p []byte) {
	if s == nil || cap(p) == 0 {
		return
	}
	p = p[:0]
	s.bytes.Put(&p)
}

// PutPayload returns the codes and literals of a payload obtained from
// DecodePayload to the pools.
func (s *Scratch) PutPayload(p Payload) {
	s.PutInt32s(p.Codes)
	s.PutFloats(p.Literals)
}

// Buffer returns a reset bytes.Buffer.
func (s *Scratch) Buffer() *bytes.Buffer {
	if s != nil {
		if v, ok := s.bufs.Get().(*bytes.Buffer); ok {
			v.Reset()
			return v
		}
	}
	return &bytes.Buffer{}
}

// PutBuffer returns a buffer obtained from Buffer to the pool. The caller
// must have copied out any bytes it still needs.
func (s *Scratch) PutBuffer(b *bytes.Buffer) {
	if s == nil || b == nil {
		return
	}
	s.bufs.Put(b)
}

// Huffman returns a reusable Huffman construction scratch (nil when s is
// nil, which huffman.EncodeLanes4 accepts). Each instance serves one
// encode at a time; get one per in-flight chunk and put it back after.
func (s *Scratch) Huffman() *huffman.Scratch {
	if s == nil {
		return nil
	}
	if v, ok := s.huffs.Get().(*huffman.Scratch); ok {
		return v
	}
	return huffman.NewScratch()
}

// PutHuffman returns a scratch obtained from Huffman to the pool.
func (s *Scratch) PutHuffman(h *huffman.Scratch) {
	if s == nil || h == nil {
		return
	}
	s.huffs.Put(h)
}

// HuffDecode returns a reusable Huffman decode scratch (nil when s is
// nil, which huffman.DecodeInto accepts). Each instance serves one decode
// at a time; get one per in-flight chunk and put it back after.
func (s *Scratch) HuffDecode() *huffman.DecodeScratch {
	if s == nil {
		return nil
	}
	if v, ok := s.huffDecs.Get().(*huffman.DecodeScratch); ok {
		return v
	}
	return huffman.NewDecodeScratch()
}

// PutHuffDecode returns a scratch obtained from HuffDecode to the pool.
func (s *Scratch) PutHuffDecode(d *huffman.DecodeScratch) {
	if s == nil || d == nil {
		return
	}
	s.huffDecs.Put(d)
}

// Deflater returns a pooled purpose-built DEFLATE encoder (the
// internal/deflate back-end). An Encoder carries its hash table, token
// buffers, and code tables — pooling them keeps the encode hot path
// allocation-free.
func (s *Scratch) Deflater() *deflate.Encoder {
	if s != nil {
		if v, ok := s.deflates.Get().(*deflate.Encoder); ok {
			return v
		}
	}
	return deflate.NewEncoder()
}

// PutDeflater returns an encoder obtained from Deflater to the pool.
func (s *Scratch) PutDeflater(e *deflate.Encoder) {
	if s == nil || e == nil {
		return
	}
	s.deflates.Put(e)
}

// AppendDeflate compresses src into a complete DEFLATE stream appended
// to dst with a pooled internal/deflate encoder and returns the extended
// slice.
func (s *Scratch) AppendDeflate(dst, src []byte) []byte {
	e := s.Deflater()
	dst = e.AppendEncode(dst, src)
	s.PutDeflater(e)
	return dst
}

// Inflate decompresses the DEFLATE stream src into a pooled buffer,
// reusing a pooled reader's window state when one is available (flate
// readers allocate ~50 KB of history and dictionary per NewReader, which
// dominates small-chunk decode profiles). The reader goes back to the
// pool on every path; on success the caller owns the buffer and must
// PutBuffer it once done with the bytes.
func (s *Scratch) Inflate(src []byte) (*bytes.Buffer, error) {
	var fr io.ReadCloser
	if s != nil {
		if v, ok := s.flateRs.Get().(io.ReadCloser); ok {
			v.(flate.Resetter).Reset(bytes.NewReader(src), nil)
			fr = v
		}
	}
	if fr == nil {
		fr = flate.NewReader(bytes.NewReader(src))
	}
	buf := s.Buffer()
	_, err := buf.ReadFrom(fr)
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	if s != nil {
		s.flateRs.Put(fr)
	}
	if err != nil {
		s.PutBuffer(buf)
		return nil, fmt.Errorf("codec: inflate: %w", err)
	}
	return buf, nil
}
