//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: it slows
// the cluster several-fold, past what the open loop's fixed rate allows.
const raceEnabled = true
