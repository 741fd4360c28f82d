package checkd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/locking"
	"repro/internal/tla"
)

// doJSON issues one request against the test server and decodes the JSON
// response into out (skipped when out is nil).
func doJSON(t *testing.T, srv *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPJobLifecycle drives the full API surface end to end: specs
// listing, submission, status polling, result retrieval, the cache-hit
// response shape, cancellation, health and readiness.
func TestHTTPJobLifecycle(t *testing.T) {
	s := newTestSup(t, nil)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var specs []string
	if code := doJSON(t, srv, "GET", "/specs", nil, &specs); code != http.StatusOK {
		t.Fatalf("GET /specs = %d", code)
	}
	want := map[string]bool{"raftmongo-v1": true, "raftmongo-v2": true, "locking": true, "arrayot": true}
	for _, name := range specs {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("GET /specs missing %v (got %v)", want, specs)
	}

	// Invalid submissions map to 400 with a JSON error body.
	var apiErr map[string]string
	if code := doJSON(t, srv, "POST", "/jobs",
		JobRequest{Spec: "no-such"}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("unknown spec = %d, want 400", code)
	}
	if apiErr["error"] == "" {
		t.Fatal("400 body carries no error")
	}

	// Submit, poll to done, fetch the result.
	var res JobResult
	if code := doJSON(t, srv, "POST", "/jobs",
		JobRequest{Spec: "slow", Config: SpecParams{Nodes: 20}}, &res); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		if code := doJSON(t, srv, "GET", "/jobs/"+res.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", res.ID, code)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var final JobResult
	if code := doJSON(t, srv, "GET", "/jobs/"+res.ID+"/result", nil, &final); code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if final.State != JobDone || final.Outcome == nil || final.Outcome.Verdict != "ok" {
		t.Fatalf("final = %+v / %+v, want done with an ok verdict", final.JobStatus, final.Outcome)
	}
	if final.Outcome.Distinct != ctrDistinct(20) {
		t.Fatalf("distinct = %d, want %d", final.Outcome.Distinct, ctrDistinct(20))
	}

	// An identical submission answers 200 from the verdict cache, outcome
	// inline — no polling needed.
	var hit JobResult
	if code := doJSON(t, srv, "POST", "/jobs",
		JobRequest{Spec: "slow", Config: SpecParams{Nodes: 20}}, &hit); code != http.StatusOK {
		t.Fatalf("cached POST = %d, want 200", code)
	}
	if !hit.Cached || hit.Outcome == nil || hit.Outcome.Distinct != final.Outcome.Distinct {
		t.Fatalf("cached response = %+v / %+v", hit.JobStatus, hit.Outcome)
	}

	// The listing shows both records.
	var all []JobStatus
	if code := doJSON(t, srv, "GET", "/jobs", nil, &all); code != http.StatusOK || len(all) != 2 {
		t.Fatalf("GET /jobs = %d with %d records, want 200 with 2", code, len(all))
	}

	// Cancel a fresh slow job through the API.
	var slow JobResult
	if code := doJSON(t, srv, "POST", "/jobs",
		JobRequest{Spec: "slow", Config: SpecParams{Nodes: 60, MaxTerm: 40}}, &slow); code != http.StatusAccepted {
		t.Fatalf("POST slow = %d", code)
	}
	if code := doJSON(t, srv, "DELETE", "/jobs/"+slow.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", code)
	}
	waitJob(t, s, slow.ID, JobCanceled)
	if code := doJSON(t, srv, "DELETE", "/jobs/unknown", nil, nil); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", code)
	}
	if code := doJSON(t, srv, "GET", "/jobs/unknown", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown = %d, want 404", code)
	}

	var health map[string]any
	if code := doJSON(t, srv, "GET", "/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	if n, _ := health["cached_verdicts"].(float64); int(n) != s.CacheLen() {
		t.Fatalf("healthz cached_verdicts = %v, want %d", health["cached_verdicts"], s.CacheLen())
	}
	if code := doJSON(t, srv, "GET", "/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("GET /readyz = %d before drain", code)
	}

	s.Drain()
	if code := doJSON(t, srv, "GET", "/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz = %d after drain, want 503", code)
	}
	if code := doJSON(t, srv, "POST", "/jobs",
		JobRequest{Spec: "slow", Config: SpecParams{Nodes: 3}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", code)
	}
}

// TestHTTPQueueFull: admission over the bounded queue surfaces as 429.
func TestHTTPQueueFull(t *testing.T) {
	s := newTestSup(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 1
	})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var running JobResult
	if code := doJSON(t, srv, "POST", "/jobs",
		JobRequest{Spec: "slow", Config: SpecParams{Nodes: 60, MaxTerm: 40}}, &running); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitRunningProgress(t, s, running.ID, 1)
	for i := 0; ; i++ {
		code := doJSON(t, srv, "POST", "/jobs",
			JobRequest{Spec: "slow", Config: SpecParams{Nodes: 10 + i}}, nil)
		if code == http.StatusTooManyRequests {
			break
		}
		if code != http.StatusAccepted || i > 1 {
			t.Fatalf("submission %d = %d, want the queue to fill within 2", i, code)
		}
	}
	if code := doJSON(t, srv, "DELETE", fmt.Sprintf("/jobs/%s", running.ID), nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE = %d", code)
	}
}

// TestTooManyActorsRefused: a locking state holds at most
// locking.MaxActors actors, so a job asking for more is refused at
// admission (ErrInvalidOptions, HTTP 400) instead of panicking in the
// spec's constructor.
func TestTooManyActorsRefused(t *testing.T) {
	s := newTestSup(t, nil)
	req := JobRequest{Spec: "locking", Config: SpecParams{Actors: locking.MaxActors + 1}}
	if _, err := s.Submit(req); !errors.Is(err, tla.ErrInvalidOptions) {
		t.Fatalf("Submit = %v, want ErrInvalidOptions", err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	var apiErr map[string]string
	if code := doJSON(t, srv, "POST", "/jobs", req, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("POST /jobs = %d, want 400", code)
	}
	if !strings.Contains(apiErr["error"], "actors") {
		t.Fatalf("400 body %q does not name the actors option", apiErr["error"])
	}
}

// TestArrayOTSymmetryRefused: array_ot declares no symmetry, so a job
// asking for it is refused at admission (ErrInvalidOptions, HTTP 400)
// rather than normalised into the unreduced job.
func TestArrayOTSymmetryRefused(t *testing.T) {
	s := newTestSup(t, nil)
	req := JobRequest{Spec: "arrayot", Config: SpecParams{Symmetry: true}}
	if _, err := s.Submit(req); !errors.Is(err, tla.ErrInvalidOptions) {
		t.Fatalf("Submit = %v, want ErrInvalidOptions", err)
	}
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	var apiErr map[string]string
	if code := doJSON(t, srv, "POST", "/jobs", req, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("POST /jobs = %d, want 400", code)
	}
	if !strings.Contains(apiErr["error"], "symmetry") {
		t.Fatalf("400 body %q does not name the symmetry option", apiErr["error"])
	}
}
