//go:build race

package obs

// See race_off_test.go.
const raceEnabled = true
