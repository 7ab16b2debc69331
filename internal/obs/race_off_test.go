//go:build !race

package obs

// raceEnabled reports whether this test binary was built with the race
// detector, under which the allocation gates skip: it inflates
// allocations, so a count of none is not measurable there.
const raceEnabled = false
