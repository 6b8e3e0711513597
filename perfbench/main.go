// Command perfbench is the repository's benchmark. It runs one workload
// against the public entry points of each layer, checks every output,
// and prints one JSON result line:
//
//	go run . --workload snapshot-psnr --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, and the spans the run recorded are
// written under --work-dir. See README.md.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fixedpsnr/internal/kernels"
)

// runCtx is the state one run shares across its phases.
type runCtx struct {
	workload string
	workDir  string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	tr       *tracer // nil unless traced
	led      *ledger
	metrics  map[string]metric
	info     map[string]any
}

var workloads = map[string]func(context.Context, *runCtx) error{
	"snapshot-psnr": runSnapshot,
	"steer-mix":     runSteer,
	"region-serve":  runServe,
}

func main() {
	workload := flag.String("workload", "", "snapshot-psnr, steer-mix or region-serve")
	seed := flag.Int64("seed", 1, "input seed (0 = datagen's canonical data set)")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	tiny := flag.Bool("tiny", false, "tiny inputs: runs in seconds, numbers not comparable")
	workDir := flag.String("work-dir", ".bench_build", "scratch directory (serve catalog, spans of traced runs)")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload snapshot-psnr|steer-mix|region-serve, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	sz := fullSizes
	if *tiny {
		sz = tinySizes
	}
	r := newRun(*workload, *workDir, *seed, *seconds, *trace == 1, sz)
	r.info["tiny"] = *tiny
	res, err := r.execute(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s\n", mustJSON(map[string]any{"info": r.info}))
	fmt.Fprintf(w, "%s\n", mustJSON(res))
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

func newRun(workload, workDir string, seed int64, seconds float64, traced bool, sz sizes) *runCtx {
	r := &runCtx{
		workload: workload,
		workDir:  workDir,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		sz:       sz,
		led:      newLedger(),
		metrics:  map[string]metric{},
		info:     map[string]any{},
	}
	if traced {
		r.tr = newTracer()
	}
	r.info["workload"] = workload
	r.info["seed"] = seed
	r.info["seconds"] = seconds
	r.info["traced"] = traced
	r.info["nproc"] = runtime.NumCPU()
	r.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.info["kernels"] = kernels.Active()
	r.info["go"] = runtime.Version()
	return r
}

// execute runs the workload and builds the result line. An error means
// the benchmark could not run at all; failures of single operations are
// counted in the result instead.
func (r *runCtx) execute(ctx context.Context) (result, error) {
	if err := workloads[r.workload](ctx, r); err != nil {
		return result{}, err
	}
	if r.traced {
		spans := r.tr.spans()
		path := filepath.Join(r.workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := writeSpans(path, spans); err != nil {
			return result{}, err
		}
		r.info["spans_file"] = path
		r.info["layer_times"] = selfTimes(spans)
		r.metrics["trace.spans"] = metric{float64(len(spans)), "count"}
	}
	res, nonFinite := r.led.finish(r.metrics)
	r.info["failures"] = r.led.causeReport()
	if len(nonFinite) > 0 {
		r.info["non_finite_metrics"] = nonFinite
	}
	return res, nil
}

// settle collects garbage, returns freed memory to the OS and restarts
// the peak-RSS high-water mark, so the peak reported covers the program
// from here on rather than input synthesis.
func (r *runCtx) settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0).
	r.info["peak_rss_reset"] = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memSnap is the process allocation and GC counters at one instant.
type memSnap struct {
	alloc, pauseNs uint64
	numGC          uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}

// deadline is when a timed phase that starts now ends.
func (r *runCtx) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 7
