// Package race reports whether the race detector is built in. It
// instruments memory accesses and allocates on its own, so the allocation
// pins skip when Enabled is set.
package race
