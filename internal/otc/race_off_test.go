//go:build !race

package otc

// raceEnabled reports that the race detector is active.
const raceEnabled = false
