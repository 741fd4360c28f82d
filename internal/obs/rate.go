package obs

import "time"

// Rate turns successive readings of a count into a per-second rate: the
// derivative the progress lines and the checking service report. The zero
// value has no reading yet.
type Rate struct {
	last int
	at   time.Time
}

// Observe records the reading n taken at now and returns the count's rate
// since the previous reading. It returns 0 for the first reading, for one
// taken no later than the previous, and for one below the previous: a
// count that falls has restarted (a retried job, a trace checked again
// from its start), so the reading is a new baseline, not a negative rate.
func (r *Rate) Observe(n int, now time.Time) float64 {
	var rate float64
	if dt := now.Sub(r.at).Seconds(); !r.at.IsZero() && dt > 0 && n >= r.last {
		rate = float64(n-r.last) / dt
	}
	r.last, r.at = n, now
	return rate
}
