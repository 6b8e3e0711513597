package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// failure is why one operation failed. wrong marks an output the
// program returned as a success that a check rejected (a bound or
// target missed, a response whose bytes differ); otherwise the program
// itself reported an error (encode or decode error, HTTP error status).
type failure struct {
	wrong  bool
	cause  string
	detail string
}

func opError(cause string, err error) *failure {
	return &failure{cause: cause, detail: err.Error()}
}

func opWrong(cause, format string, a ...any) *failure {
	return &failure{wrong: true, cause: cause, detail: fmt.Sprintf(format, a...)}
}

// ledger counts operations and their failures. Every operation is
// recorded exactly once, with at most one failure; a failure never
// aborts the run.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	causes    map[string]int
	examples  map[string]string
}

func newLedger() *ledger {
	return &ledger{causes: map[string]int{}, examples: map[string]string{}}
}

// record adds one operation; f is nil for a success.
func (l *ledger) record(f *failure) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if f == nil {
		return
	}
	l.failed++
	if f.wrong {
		l.wrong++
	}
	l.causes[f.cause]++
	if _, ok := l.examples[f.cause]; !ok {
		l.examples[f.cause] = f.detail
	}
}

// causeReport lists each failure cause with its count and first detail.
func (l *ledger) causeReport() []map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.causes))
	for c := range l.causes {
		names = append(names, c)
	}
	sort.Strings(names)
	out := make([]map[string]any, 0, len(names))
	for _, c := range names {
		out = append(out, map[string]any{"cause": c, "count": l.causes[c], "example": l.examples[c]})
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finish builds the final line. correct is false when any output the
// program returned as a success failed its check; program-reported
// errors count as failed operations but leave correct true. Metric
// values that came out NaN or infinite (no samples) are reported as 0
// and listed in nonFinite.
func (l *ledger) finish(ms map[string]metric) (result, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var nonFinite []string
	clean := make(map[string]metric, len(ms))
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			nonFinite = append(nonFinite, k)
			m.Value = 0
		}
		clean[k] = m
	}
	sort.Strings(nonFinite)
	return result{Correct: l.wrong == 0, Attempted: l.attempted, Failed: l.failed, Metrics: clean}, nonFinite
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf(`{"marshal_error":%q}`, err.Error())
	}
	return string(b)
}
