package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer was created; Parent is the ID of the
// enclosing span the benchmark had open (0 for a root), Req groups the
// spans of one operation or request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Recording can be
// switched on and off between measurement windows, which is how a
// traced run measures its own overhead. A nil tracer records nothing.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	next atomic.Int64
	mu   sync.Mutex
	all  []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// openSpan is a started span; the zero value is a span that was not
// recorded, and closing it is a no-op.
type openSpan struct {
	id, parent, req int64
	name            string
	start           int64
}

// start opens a span if recording is on.
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil || !t.on.Load() {
		return openSpan{}
	}
	return openSpan{
		id:     t.next.Add(1),
		parent: parent,
		req:    req,
		name:   name,
		start:  int64(time.Since(t.t0)),
	}
}

// end closes a span opened by start.
func (t *tracer) end(o openSpan) {
	if o.id == 0 {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// enabled switches recording for later start calls.
func (t *tracer) enabled(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// layerTime is the per-name aggregate of a span set.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MeanUs  float64 `json:"mean_us"`
	selfSum time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval covered by its children
// (children may overlap one another, so their union is subtracted).
func selfTimes(spans []span) []layerTime {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		self := dur - covered(kids[s.ID], s.Start, s.End)
		lt.Count++
		lt.TotalS += float64(dur) / 1e9
		lt.selfSum += time.Duration(self)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		lt.SelfS = lt.selfSum.Seconds()
		lt.MeanUs = lt.TotalS / float64(lt.Count) * 1e6
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per span to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
