//go:build race

package otc

// raceEnabled reports that the race detector is active; allocation-bound
// assertions are skipped because instrumentation inflates every
// measurement and defeats the scratch pools.
const raceEnabled = true
