package main

import (
	"fmt"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
	"fixedpsnr/internal/parallel"
)

// sizes holds every input dimension a run uses, so the full-size and
// tiny configurations differ in one place.
type sizes struct {
	// NYX snapshot for snapshot-psnr. 128×128×256 has the point count
	// of 160³ (within 3%) on power-of-two edges, which datagen's FFT
	// synthesizes without padding to 256³ — 4× less set-up work.
	snapshotDims []int
	// Hurricane snapshot for steer-mix, and the ROI row slab and chunk
	// size of its region-target encode.
	steerDims        []int
	roiRows          [2]int
	regionChunkPts   int
	serveDims        []int
	serveChunkPts    int
	serveCacheBytes  int64
	serveQueries     int
	serveQueryExt    []int   // every region has this shape: 2–3 chunks
	serveWindow      float64 // seconds per latency window
	serveWarmSeconds float64
}

var fullSizes = sizes{
	snapshotDims:     []int{128, 128, 256},
	steerDims:        []int{40, 160, 160},
	roiRows:          [2]int{10, 20},
	regionChunkPts:   1 << 17,
	serveDims:        []int{128, 128, 128},
	serveChunkPts:    1 << 16,
	serveCacheBytes:  32 << 20,
	serveQueries:     1024,
	serveQueryExt:    []int{6, 32, 32},
	serveWindow:      1,
	serveWarmSeconds: 1,
}

// tinySizes runs every workload end to end in seconds (self-tests and
// smoke runs); its numbers are not comparable with full-size runs.
var tinySizes = sizes{
	snapshotDims:     []int{32, 32, 64},
	steerDims:        []int{48, 32, 32},
	roiRows:          [2]int{16, 24},
	regionChunkPts:   1 << 14,
	serveDims:        []int{32, 32, 64},
	serveChunkPts:    1 << 14,
	serveCacheBytes:  256 << 10,
	serveQueries:     64,
	serveQueryExt:    []int{12, 16, 16},
	serveWindow:      0.25,
	serveWarmSeconds: 0.2,
}

// dataLabel folds the workload seed into the data-set label datagen
// hashes into each field's GRF seed. Seed 0 keeps datagen's canonical
// label, so `--seed 0` reproduces the stock data set bit for bit.
func dataLabel(dataset string, seed int64) string {
	if seed == 0 {
		return dataset
	}
	return fmt.Sprintf("%s/seed=%d", dataset, seed)
}

// synthesize builds every field of ds from the seed, rounded to float32
// as datagen does. Fields are synthesized in parallel; the result is
// identical for any worker count.
func synthesize(ds *datagen.Dataset, seed int64) ([]*fixedpsnr.Field, error) {
	label := dataLabel(ds.Name, seed)
	out := make([]*fixedpsnr.Field, len(ds.Specs))
	err := parallel.ForEach(len(ds.Specs), parallel.DefaultWorkers(), func(i int) error {
		f, err := datagen.Synthesize(label, ds.Specs[i], ds.Dims, 1)
		if err != nil {
			return err
		}
		out[i] = f
		return nil
	})
	return out, err
}
