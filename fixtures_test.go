package fixedpsnr_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/kernels"
)

// -update regenerates the committed stream fixtures from the current
// code. Run it only when a format change is intentional:
//
//	go test -run TestStreamFixtures -update .
var updateFixtures = flag.Bool("update", false, "regenerate testdata stream fixtures")

// fixtureField builds the deterministic synthetic field the committed
// fixtures were generated from. Any change here invalidates testdata.
func fixtureField(name string, prec fixedpsnr.Precision, dims ...int) *fixedpsnr.Field {
	f := fixedpsnr.NewField(name, prec, dims...)
	inner := 1
	for _, d := range dims[1:] {
		inner *= d
	}
	for i := range f.Data {
		r, c := i/inner, i%inner
		v := math.Sin(0.11*float64(r))*math.Cos(0.07*float64(c)) +
			0.3*math.Sin(0.013*float64(r)*float64(c%37)) +
			0.05*math.Cos(0.41*float64(i%101))
		if prec == fixedpsnr.Float32 {
			v = float64(float32(v))
		}
		f.Data[i] = v
	}
	return f
}

// fixtureConfigs are the encode configurations pinned by committed
// fixtures: every steered target and both pipelines, all with explicit
// Workers and ChunkPoints so the tiling is machine-independent.
func fixtureConfigs() map[string]fixedpsnr.Options {
	return map[string]fixedpsnr.Options{
		"sz_psnr_calibrated": {
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Calibrated: true,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
		"sz_psnr_plain": {
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 80,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
		"sz_ratio": {
			Mode: fixedpsnr.ModeRatio, TargetRatio: 8,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
		"sz_abs": {
			Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
		"otc_psnr": {
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 60,
			Compressor:  fixedpsnr.CompressorTransform,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
	}
}

// otcFixtureConfigs pin the transform paths otc_psnr misses: the Haar
// wavelet, and a block edge that leaves partial blocks on every axis and
// at every chunk boundary. They postdate the four-lane payload, so they
// have no frozen legacy counterpart and stay out of fixtureConfigs.
func otcFixtureConfigs() map[string]fixedpsnr.Options {
	return map[string]fixedpsnr.Options{
		"otc_haar": {
			Mode: fixedpsnr.ModePSNR, TargetPSNR: 60,
			Compressor:  fixedpsnr.CompressorWavelet,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
		"otc_block6": {
			Mode: fixedpsnr.ModeRatio, TargetRatio: 8,
			Compressor: fixedpsnr.CompressorTransform, BlockSize: 6,
			ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2,
		},
	}
}

// currentFixtureConfigs is every configuration with a current-format
// fixture under testdata/streams/lanes4.
func currentFixtureConfigs() map[string]fixedpsnr.Options {
	m := fixtureConfigs()
	for name, opt := range otcFixtureConfigs() {
		m[name] = opt
	}
	return m
}

// TestStreamFixtures pins the exact bytes every no-region-target encode
// produces: refactors of the steering stack (per-region targets, group
// tables) must leave plain streams untouched, so new code is compared
// byte for byte against fixtures committed from the previous release.
// The current (four-lane payload) fixtures live under
// testdata/streams/lanes4; the files directly under testdata/streams are
// the frozen legacy single-stream fixtures TestLegacyStreamFixtures
// guards and -update never rewrites.
func TestStreamFixtures(t *testing.T) {
	f := fixtureField("fixture", fixedpsnr.Float32, 64, 64, 16)
	for name, opt := range currentFixtureConfigs() {
		t.Run(name, func(t *testing.T) {
			blob, _, err := fixedpsnr.Compress(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "streams", "lanes4", name+".fpsz")
			if *updateFixtures {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(blob))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("stream bytes differ from committed fixture %s (%d vs %d bytes): no-region-target output must stay byte-identical across releases",
					path, len(blob), len(want))
			}
			// The fixture must still round-trip through current decoders.
			g, _, err := fixedpsnr.Decompress(want)
			if err != nil {
				t.Fatal(err)
			}
			if d := fixedpsnr.CompareFields(f, g); !(d.PSNR > 40) {
				t.Fatalf("fixture round-trip PSNR %.2f dB", d.PSNR)
			}
		})
	}
}

// TestLegacyStreamFixtures is the backward-compatibility guard for the
// pre-lane payload format: the streams directly under testdata/streams
// were committed before the four-lane payload existed and are frozen —
// -update deliberately does not rewrite them. Each must keep decoding
// through the legacy dispatch path, and its reconstruction must be
// bit-identical to decoding a current-format encode of the same input:
// the lane refactor changed only the entropy-stage serialization, never
// the codes or literals, so the two decodes must agree on every float.
func TestLegacyStreamFixtures(t *testing.T) {
	f := fixtureField("fixture", fixedpsnr.Float32, 64, 64, 16)
	for name, opt := range fixtureConfigs() {
		t.Run(name, func(t *testing.T) {
			legacy, err := os.ReadFile(filepath.Join("testdata", "streams", name+".fpsz"))
			if err != nil {
				t.Fatalf("missing frozen legacy fixture: %v", err)
			}
			got, _, err := fixedpsnr.Decompress(legacy)
			if err != nil {
				t.Fatalf("legacy stream no longer decodes: %v", err)
			}
			if opt.Mode == fixedpsnr.ModeRatio {
				// Fixed-ratio steering converges on the achieved
				// compressed size, which the payload format changes, so
				// the legacy stream's error bound legitimately differs
				// from a current encode's. Guard decode fidelity instead
				// of bit-equality.
				if d := fixedpsnr.CompareFields(f, got); !(d.PSNR > 40) {
					t.Fatalf("legacy fixture round-trip PSNR %.2f dB", d.PSNR)
				}
				return
			}
			blob, _, err := fixedpsnr.Compress(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := fixedpsnr.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Data) != len(want.Data) {
				t.Fatalf("legacy decode has %d points, current %d", len(got.Data), len(want.Data))
			}
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("legacy decode diverges from current-format decode at point %d: %x vs %x",
						i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		})
	}
}

// TestStreamFixturesKernelIndependent is the kernel-drift guard: every
// fixture input is encoded twice in one process — once under whatever
// kernel implementation init dispatched (AVX2 assembly on capable amd64
// hosts) and once with the generic kernels forced — and the container
// bytes must be identical. Together with the committed-fixture
// comparison in TestStreamFixtures this pins the bit-identity contract:
// no assembly change can silently alter stream bytes without tripping
// one of the two. On builds where dispatch already selected the generic
// kernels the two encodes coincide; the test still guards against a
// ForceGeneric restore bug.
func TestStreamFixturesKernelIndependent(t *testing.T) {
	f := fixtureField("fixture", fixedpsnr.Float32, 64, 64, 16)
	for name, opt := range currentFixtureConfigs() {
		t.Run(name, func(t *testing.T) {
			dispatched, _, err := fixedpsnr.Compress(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			restore := kernels.ForceGeneric()
			generic, _, genErr := fixedpsnr.Compress(f, opt)
			restore()
			if genErr != nil {
				t.Fatal(genErr)
			}
			if !bytes.Equal(dispatched, generic) {
				t.Fatalf("%s: %s-kernel stream (%d bytes) differs from generic-kernel stream (%d bytes): kernel implementations must be bit-identical",
					name, kernels.Active(), len(dispatched), len(generic))
			}
		})
	}
}
