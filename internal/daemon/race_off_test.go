//go:build !race

package daemon

// raceEnabled reports whether this test binary was built with the race
// detector. The small round trip's allocation gate skips under race:
// race-mode sync.Pools deliberately drop a fraction of Puts, so reused
// reply timers are not measurable there. CI's allocation gate runs
// without the detector.
const raceEnabled = false
