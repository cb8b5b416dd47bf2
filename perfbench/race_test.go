//go:build race

package main

// raceEnabled reports a -race build, whose CPU profiles are dominated by the
// race detector's C code with no Go frames to attribute.
const raceEnabled = true
