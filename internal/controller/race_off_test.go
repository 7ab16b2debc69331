//go:build !race

package controller

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pools drop a fraction of Puts and
// allocations grow: the small-report allocation gate skips there. CI's
// allocation gate runs without the detector.
const raceEnabled = false
