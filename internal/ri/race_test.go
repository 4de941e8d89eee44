//go:build race

package ri

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop items at random, so allocation counts mean nothing.
const raceEnabled = true
