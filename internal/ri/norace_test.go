//go:build !race

package ri

const raceEnabled = false
