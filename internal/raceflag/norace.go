//go:build !race

// Package raceflag tells tests whether the race detector is on, so
// allocation-budget tests (testing.AllocsPerRun counts the detector's
// own allocations) can skip themselves under -race.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
