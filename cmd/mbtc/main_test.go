package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mbtc"
)

// TestNegativeVerdictIsAnError pins the exit-status contract: a passing
// scenario returns nil (exit 0), a divergent one returns mbtc.ErrFailed
// after printing its report (exit 1).
func TestNegativeVerdictIsAnError(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		want     error
	}{
		{"write_3_and_replicate", nil},
		{"two_leaders_across_partition", mbtc.ErrFailed},
	} {
		err := run(context.Background(), tc.scenario, "v2", false, 0, 7, false, false, 1, 0, 0)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: run = %v, want %v", tc.scenario, err, tc.want)
		}
	}
}
