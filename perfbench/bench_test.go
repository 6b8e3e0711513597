package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

func TestPercentileAndRates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		if got := percentile(hundred, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := mbps(50e6, 2*time.Second); got != 25 {
		t.Errorf("50 MB in 2 s = %v MB/s, want 25", got)
	}
	if !math.IsNaN(mbps(1, 0)) {
		t.Error("a rate over zero time should be NaN")
	}
	if got := psnrDB(2, 1e-4); math.Abs(got-(20*math.Log10(2)+40)) > 1e-12 {
		t.Errorf("psnr = %v", got)
	}
	if mse, maxErr := errStats([]float64{0, 1, 2}, []float64{0, 1.5, 1}); math.Abs(mse-1.25/3) > 1e-15 || maxErr != 1 {
		t.Errorf("errStats = %v, %v", mse, maxErr)
	}
	if _, maxErr := errStats([]float64{0, 1}, []float64{math.NaN(), 1}); !math.IsNaN(maxErr) {
		t.Error("a NaN reconstruction must fail the bound check")
	}
	if got := covered([][2]int64{{0, 4}, {2, 6}, {8, 20}}, 1, 10); got != 7 {
		t.Errorf("covered = %d, want 7", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	}
	for _, lt := range selfTimes(spans) {
		want := map[string]float64{"parent": 50e-9, "child": 60e-9}[lt.Name]
		if math.Abs(lt.SelfS-want) > 1e-15 {
			t.Errorf("%s self = %v s, want %v", lt.Name, lt.SelfS, want)
		}
	}
}

func tinyNYX(t *testing.T, seed int64) []*fixedpsnr.Field {
	t.Helper()
	fs, err := synthesize(datagen.NYX(tinySizes.snapshotDims), seed)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestSameSeedSameInputsStreamsAndQueries(t *testing.T) {
	a, b, c := tinyNYX(t, 3), tinyNYX(t, 3), tinyNYX(t, 4)
	enc, err := fixedpsnr.NewEncoder(fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(80))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		sa, _, err := enc.Encode(context.Background(), a[i])
		if err != nil {
			t.Fatal(err)
		}
		sb, _, err := enc.Encode(context.Background(), b[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Errorf("field %s: same seed gave different streams", a[i].Name)
		}
		if reflect.DeepEqual(a[i].Data, c[i].Data) {
			t.Errorf("field %s: seeds 3 and 4 gave the same data", a[i].Name)
		}
	}
	d := tinySizes.serveDims
	q1 := makeQueries(3, d, 6, 50, tinySizes.serveQueryExt)
	q2 := makeQueries(3, d, 6, 50, tinySizes.serveQueryExt)
	if !reflect.DeepEqual(q1, q2) {
		t.Error("same seed gave different queries")
	}
	if reflect.DeepEqual(q1, makeQueries(4, d, 6, 50, tinySizes.serveQueryExt)) {
		t.Error("seeds 3 and 4 gave the same queries")
	}
}

// tinyBatch is a set-up snapshot engine over the tiny NYX fields.
func tinyBatch(t *testing.T) (*batchRun, *mode) {
	t.Helper()
	m := &mode{name: "sz-eq8-80db", check: checkEq8, targetPSNR: 80, opts: []fixedpsnr.Option{
		fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(80)}}
	r := newRun("snapshot-psnr", t.TempDir(), 1, 1, false, tinySizes)
	b := &batchRun{r: r, fields: tinyNYX(t, 1), modes: []*mode{m}}
	for _, f := range b.fields {
		b.vr = append(b.vr, valueRange(f.Data))
	}
	if _, err := b.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	return b, m
}

func TestCorruptStreamIsOneFailedOperation(t *testing.T) {
	b, m := tinyBatch(t)
	ctx := context.Background()
	blob, _, err := m.enc.Encode(ctx, b.fields[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, fail := b.decodeCheck(ctx, m, 0, blob); fail != nil {
		t.Fatalf("intact stream failed: %s: %s", fail.cause, fail.detail)
	}
	bad := append([]byte(nil), blob...)
	for i := len(bad) / 2; i < len(bad)/2+64; i++ {
		bad[i] ^= 0x5a
	}
	_, _, fail := b.decodeCheck(ctx, m, 0, bad)
	b.r.led.record(fail)
	res, _ := b.r.led.finish(nil)
	if res.Attempted != 1 || res.Failed != 1 {
		t.Fatalf("corrupt stream: attempted %d failed %d, want 1 and 1", res.Attempted, res.Failed)
	}

	// A decode the program returns as a success but that breaks the
	// bound is wrong output: counted once, and the run is not correct.
	recon, _, err := b.dec.Decode(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	recon.Data[17] += 1e-3 * b.vr[0]
	_, fail = checkStream(m, b.fields[0], b.vr[0], blob, recon)
	if fail == nil || !fail.wrong {
		t.Fatalf("perturbed reconstruction passed the check: %+v", fail)
	}
	b.r.led.record(fail)
	if res, _ = b.r.led.finish(nil); res.Attempted != 2 || res.Failed != 2 || res.Correct {
		t.Fatalf("after a wrong output: %+v, want 2 attempted, 2 failed, not correct", res)
	}
}

func TestMismatchedResponseIsOneFailedOperation(t *testing.T) {
	dir := t.TempDir()
	fields := tinyNYX(t, 1)
	if _, _, err := buildArchive(context.Background(), dir+"/nyx.fpsa", fields, tinySizes.serveChunkPts); err != nil {
		t.Fatal(err)
	}
	r := newRun("region-serve", dir, 1, 1, false, tinySizes)
	qs := makeQueries(1, tinySizes.serveDims, len(fields), 4, tinySizes.serveQueryExt)
	for i := range qs {
		qs[i].path = "/v1/archives/nyx/fields/" + fields[qs[i].field].Name + "/region?off=" + csv(qs[i].off) + "&ext=" + csv(qs[i].ext)
	}
	if _, err := groundTruth(context.Background(), r, dir+"/nyx.fpsa", fields, qs); err != nil {
		t.Fatal(err)
	}
	ls, err := startServer(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := ls.stop(); err != nil {
			t.Error(err)
		}
	}()
	c := &client{hc: &http.Client{}, base: ls.base, led: newLedger()}
	defer c.hc.CloseIdleConnections()
	ctx := context.Background()
	for i := range qs {
		if _, _, f := c.do(ctx, &qs[i], int64(i), false); f != nil {
			t.Fatalf("query %d: %s: %s", i, f.cause, f.detail)
		}
	}
	bad := qs[1]
	bad.wantCRC ^= 1
	_, _, f := c.do(ctx, &bad, 9, false)
	c.led.record(f)
	short := qs[2]
	short.wantLen--
	_, _, f = c.do(ctx, &short, 10, false)
	c.led.record(f)
	res, _ := c.led.finish(nil)
	if res.Attempted != 2 || res.Failed != 2 || res.Correct {
		t.Fatalf("mismatched responses: %+v, want 2 attempted, 2 failed, not correct", res)
	}
	if got := c.led.causes; got["response_crc"] != 1 || got["response_length"] != 1 {
		t.Errorf("causes = %v", got)
	}
	if f := checkResponse(&qs[0], http.StatusServiceUnavailable, []byte("busy")); f == nil || f.wrong {
		t.Errorf("a shed request is a failed operation, not wrong output: %+v", f)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the result must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			r := newRun(w.Name, t.TempDir(), 2, 0.5, traced, tinySizes)
			res, err := r.execute(context.Background())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, r.info["failures"])
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, spec has %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if el := time.Since(start); el > 30*time.Second {
				t.Errorf("%s traced=%v took %v in tiny mode", w.Name, traced, el)
			}
		}
	}
}
