package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/locking"
)

// TestArrayOTSymmetryIsAUsageError: array_ot declares no symmetry, so
// -symmetry on it is refused as a usage error (exit 2) before anything is
// explored, instead of being ignored.
func TestArrayOTSymmetryIsAUsageError(t *testing.T) {
	cfg := specConfig{specName: "arrayot", symmetry: true}
	err := run(context.Background(), cfg, "", false, 1, 0, false, "", 0, "", 0, 0, "")
	if !errors.Is(err, errUsage) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}

// TestTooManyActorsIsAUsageError: a locking state holds at most
// locking.MaxActors actors, so -actors past it is refused as a usage error
// (exit 2) before the spec is built, instead of panicking in it.
func TestTooManyActorsIsAUsageError(t *testing.T) {
	cfg := specConfig{specName: "locking", actors: locking.MaxActors + 1}
	err := run(context.Background(), cfg, "", false, 1, 0, false, "", 0, "", 0, 0, "")
	if !errors.Is(err, errUsage) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}
