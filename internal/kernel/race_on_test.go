//go:build race

package kernel

// See race_off_test.go.
const raceEnabled = true
