//go:build race

package race

// Enabled reports that the race detector is on.
const Enabled = true
