//go:build !race

package otgo

// raceEnabled reports that the race detector is on: it instruments memory
// accesses and allocates on its own, so allocation pins skip.
const raceEnabled = false
