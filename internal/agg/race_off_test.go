//go:build !race

package agg

// raceEnabled reports whether this test binary was built with the race
// detector; the allocation gate skips under it (race-mode sync.Pools
// drop a fraction of Puts, so pooled reuse is not measurable there).
const raceEnabled = false
