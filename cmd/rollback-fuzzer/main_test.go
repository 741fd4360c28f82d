package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mbtc"
)

// TestNegativeVerdictIsAnError pins the exit-status contract of -check: the
// long synced run passes (nil, exit 0), and the default 1,500-step run's
// BecomePrimaryByMagic divergence returns mbtc.ErrFailed after printing
// its report (exit 1).
func TestNegativeVerdictIsAnError(t *testing.T) {
	for _, tc := range []struct {
		steps     int
		syncFirst bool
		want      error
	}{
		{8400, true, nil},
		{1500, false, mbtc.ErrFailed},
	} {
		err := run(context.Background(), tc.steps, 7, 3, "", false, tc.syncFirst, true, "v2", 1, 0, 0)
		if !errors.Is(err, tc.want) {
			t.Errorf("steps=%d sync=%v: run = %v, want %v", tc.steps, tc.syncFirst, err, tc.want)
		}
	}
}
