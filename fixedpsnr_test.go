package fixedpsnr_test

import (
	"math"
	"testing"

	"fixedpsnr"
	"fixedpsnr/datasets"
)

// waveField builds a smooth single-precision test field.
func waveField(name string, dims ...int) *fixedpsnr.Field {
	f := fixedpsnr.NewField(name, fixedpsnr.Float32, dims...)
	n := f.Len()
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i)/29) + 0.3*math.Cos(float64(i)/7)
		f.Data[i] = float64(float32(v))
	}
	return f
}

func TestFixedPSNRHitsTarget(t *testing.T) {
	f := waveField("wave", 120, 140)
	for _, target := range []float64{40, 60, 80, 100} {
		stream, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{
			Mode:       fixedpsnr.ModePSNR,
			TargetPSNR: target,
		})
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		if math.Abs(res.EstimatedPSNR-target) > 1e-9 {
			t.Fatalf("estimate %g != target %g", res.EstimatedPSNR, target)
		}
		g, _, err := fixedpsnr.Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		d := fixedpsnr.CompareFields(f, g)
		if d.PSNR < target-1 || d.PSNR > target+15 {
			t.Fatalf("target %g: actual %g out of band", target, d.PSNR)
		}
	}
}

func TestCompressFixedPSNRShorthand(t *testing.T) {
	f := waveField("sh", 80, 80)
	stream, res, err := fixedpsnr.CompressFixedPSNR(f, 70)
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetPSNR != 70 {
		t.Fatalf("TargetPSNR = %g", res.TargetPSNR)
	}
	g, info, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.TargetPSNR != 70 {
		t.Fatalf("stream header target = %g", info.TargetPSNR)
	}
	d := fixedpsnr.CompareFields(f, g)
	if math.Abs(d.PSNR-70) > 1 {
		t.Fatalf("actual %g", d.PSNR)
	}
}

func TestModeAbsBoundsMaxError(t *testing.T) {
	f := waveField("abs", 90, 70)
	const eb = 1e-3
	stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if d := fixedpsnr.CompareFields(f, g); d.MaxErr > eb*(1+1e-12) {
		t.Fatalf("max error %g exceeds bound %g", d.MaxErr, eb)
	}
}

func TestModeRelBoundsMaxError(t *testing.T) {
	f := waveField("rel", 90, 70)
	_, _, vr := f.ValueRange()
	const rel = 1e-4
	stream, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeRel, RelBound: rel})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EbAbs-rel*vr) > 1e-15 {
		t.Fatalf("EbAbs = %g, want %g", res.EbAbs, rel*vr)
	}
	g, _, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if d := fixedpsnr.CompareFields(f, g); d.MaxErr > rel*vr*(1+1e-12) {
		t.Fatalf("max error %g exceeds bound %g", d.MaxErr, rel*vr)
	}
}

func TestModePWRel(t *testing.T) {
	f := fixedpsnr.NewField("pw", fixedpsnr.Float64, 500)
	for i := range f.Data {
		f.Data[i] = math.Exp(float64(i%37) - 18)
	}
	stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModePWRel, PWRelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] == 0 {
			continue
		}
		if rel := math.Abs(g.Data[i]-f.Data[i]) / math.Abs(f.Data[i]); rel > 1e-3*(1+1e-9) {
			t.Fatalf("pointwise bound violated at %d: %g", i, rel)
		}
	}
}

func TestTransformPipelineFixedPSNR(t *testing.T) {
	f := waveField("dct", 96, 96)
	stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{
		Mode:       fixedpsnr.ModePSNR,
		TargetPSNR: 70,
		Compressor: fixedpsnr.CompressorTransform,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, info, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec.String() != "otc-dct" {
		t.Fatalf("codec = %v", info.Codec)
	}
	d := fixedpsnr.CompareFields(f, g)
	if d.PSNR < 69 || d.PSNR > 90 {
		t.Fatalf("transform actual %g", d.PSNR)
	}
}

// The transform pipeline caps a block's effective edge, min(BlockSize,
// extent), at 64 on every axis: a 64 edge round-trips, an edge of 65
// fails with an error (it once panicked slicing a 64-float line buffer),
// and a larger BlockSize on a field narrower than 65 still works.
func TestTransformBlockEdgeCap(t *testing.T) {
	for _, tc := range []struct {
		blockSize, rows, cols int
		ok                    bool
	}{
		{64, 64, 80, true},
		{65, 10, 100, false},
		{65, 10, 50, true},
		{1 << 20, 40, 30, true},
	} {
		f := waveField("edge", tc.rows, tc.cols)
		stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 60,
			Compressor: fixedpsnr.CompressorTransform, BlockSize: tc.blockSize,
		})
		if !tc.ok {
			if err == nil {
				t.Errorf("BlockSize %d on %dx%d: Compress succeeded, want an edge error", tc.blockSize, tc.rows, tc.cols)
			}
			continue
		}
		if err != nil {
			t.Fatalf("BlockSize %d on %dx%d: %v", tc.blockSize, tc.rows, tc.cols, err)
		}
		g, _, err := fixedpsnr.Decompress(stream)
		if err != nil {
			t.Fatalf("BlockSize %d on %dx%d: decode: %v", tc.blockSize, tc.rows, tc.cols, err)
		}
		if d := fixedpsnr.CompareFields(f, g); d.PSNR < 59 {
			t.Errorf("BlockSize %d on %dx%d: PSNR %.2f dB, target 60", tc.blockSize, tc.rows, tc.cols, d.PSNR)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	f := waveField("bad", 32, 32)
	cases := []fixedpsnr.Options{
		{Mode: fixedpsnr.ModeAbs},                  // missing bound
		{Mode: fixedpsnr.ModeRel},                  // missing bound
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: -3}, // bad target
		{Mode: fixedpsnr.ModePWRel, PWRelBound: 2}, // bad pwrel
		{Mode: fixedpsnr.ModePWRel, PWRelBound: 0.1, Compressor: fixedpsnr.CompressorTransform}, // unsupported combo
		{Mode: fixedpsnr.Mode(42), ErrorBound: 1},                                               // unknown mode
		{Mode: fixedpsnr.ModeAbs, ErrorBound: 1, Compressor: fixedpsnr.Compressor(9)},           // unknown pipeline
	}
	for i, opt := range cases {
		if _, _, err := fixedpsnr.Compress(f, opt); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, opt)
		}
	}
}

func TestConstantFieldAnyMode(t *testing.T) {
	f := fixedpsnr.NewField("const", fixedpsnr.Float32, 20, 20)
	for i := range f.Data {
		f.Data[i] = 7
	}
	for _, opt := range []fixedpsnr.Options{
		{Mode: fixedpsnr.ModeAbs},
		{Mode: fixedpsnr.ModePSNR, TargetPSNR: 100},
	} {
		stream, _, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt.Mode, err)
		}
		g, _, err := fixedpsnr.Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if g.Data[i] != 7 {
				t.Fatalf("%v: constant broken", opt.Mode)
			}
		}
	}
}

func TestInspectWithoutDecompression(t *testing.T) {
	f := waveField("insp", 40, 40)
	stream, _, err := fixedpsnr.CompressFixedPSNR(f, 88)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fixedpsnr.Inspect(stream)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "insp" || h.TargetPSNR != 88 || h.NPoints() != 1600 {
		t.Fatalf("header: %+v", h)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, _, err := fixedpsnr.Decompress([]byte("garbage stream")); err == nil {
		t.Fatal("expected error")
	}
}

func TestEq8Helpers(t *testing.T) {
	// RelBoundForPSNR and EstimatePSNR must be inverses through a range.
	for _, p := range []float64{20, 55.5, 90, 131} {
		eb := fixedpsnr.RelBoundForPSNR(p)
		if back := fixedpsnr.EstimatePSNR(1, eb); math.Abs(back-p) > 1e-9 {
			t.Fatalf("PSNR %g -> ebrel %g -> %g", p, eb, back)
		}
	}
	plan, err := fixedpsnr.PlanFixedPSNR(80, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.EbAbs-10*plan.EbRel) > 1e-15 {
		t.Fatalf("plan inconsistent: %+v", plan)
	}
}

func TestFieldFromData(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	f, err := fixedpsnr.FieldFromData("wrapped", fixedpsnr.Float64, data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.At2(1, 2) != 6 {
		t.Fatal("indexing broken")
	}
	if _, err := fixedpsnr.FieldFromData("bad", fixedpsnr.Float64, data, 4, 2); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestModeStrings(t *testing.T) {
	if fixedpsnr.ModePSNR.String() != "psnr" || fixedpsnr.CompressorTransform.String() != "transform" {
		t.Fatal("string names wrong")
	}
	if fixedpsnr.Mode(9).String() == "" || fixedpsnr.Compressor(9).String() == "" {
		t.Fatal("unknown values should still render")
	}
}

// End-to-end: a real synthetic data-set field through the public API.
func TestDatasetFieldRoundTrip(t *testing.T) {
	hur := datasets.Hurricane([]int{8, 32, 32})
	f, err := hur.FieldByName("U", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream, res, err := fixedpsnr.CompressFixedPSNR(f, 65)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio <= 1 {
		t.Fatalf("ratio %g", res.Ratio)
	}
	g, _, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	d := fixedpsnr.CompareFields(f, g)
	if d.PSNR < 64 {
		t.Fatalf("actual %g below 65-1", d.PSNR)
	}
}

func TestDatasetsPackage(t *testing.T) {
	if len(datasets.Registry()) != 3 {
		t.Fatal("registry size")
	}
	if _, err := datasets.ByName("ATM"); err != nil {
		t.Fatal(err)
	}
	if datasets.ATM(nil).NumFields() != 79 {
		t.Fatal("ATM field count")
	}
	if datasets.NYX(nil).NumFields() != 6 {
		t.Fatal("NYX field count")
	}
}

func TestWaveletPipelineFixedPSNR(t *testing.T) {
	f := waveField("haar", 64, 96)
	stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{
		Mode:       fixedpsnr.ModePSNR,
		TargetPSNR: 70,
		Compressor: fixedpsnr.CompressorWavelet,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	d := fixedpsnr.CompareFields(f, g)
	if d.PSNR < 69 || d.PSNR > 90 {
		t.Fatalf("wavelet actual %g", d.PSNR)
	}
	if fixedpsnr.CompressorWavelet.String() != "wavelet" {
		t.Fatal("name wrong")
	}
}

// The calibrated mode must land within ±0.5 dB at low targets where the
// plain Eq.-8 mode overshoots, and must not regress at high targets.
func TestCalibratedModeTightensLowTargets(t *testing.T) {
	hur := datasets.Hurricane([]int{10, 48, 48})
	f, err := hur.FieldByName("TC", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{30, 40, 80} {
		stream, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{
			Mode:       fixedpsnr.ModePSNR,
			TargetPSNR: target,
			Calibrated: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := fixedpsnr.Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		d := fixedpsnr.CompareFields(f, g)
		if math.Abs(d.PSNR-target) > 0.75 {
			t.Fatalf("calibrated target %g: actual %g (ebAbs %g)", target, d.PSNR, res.EbAbs)
		}
	}
}

// Result.MSE measured during compression must equal the decompressed MSE
// exactly — this is Theorem 1 used as a feature.
func TestCompressionReportsExactMSE(t *testing.T) {
	f := waveField("msecheck", 70, 90)
	stream, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := fixedpsnr.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	d := fixedpsnr.CompareFields(f, g)
	if math.Abs(res.MSE-d.MSE) > 1e-15*(1+d.MSE) {
		t.Fatalf("in-compression MSE %g != decompressed MSE %g", res.MSE, d.MSE)
	}
	if math.Abs(res.MeasuredPSNR-d.PSNR) > 1e-9 {
		t.Fatalf("in-compression PSNR %g != decompressed PSNR %g", res.MeasuredPSNR, d.PSNR)
	}
}
