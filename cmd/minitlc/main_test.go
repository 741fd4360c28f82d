package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/checkd"
	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/specs"
	"repro/internal/tla"
)

// TestArrayOTSymmetryIsAUsageError: array_ot declares no symmetry, so
// -symmetry on it is refused as a usage error (exit 2) before anything is
// explored, instead of being ignored.
func TestArrayOTSymmetryIsAUsageError(t *testing.T) {
	err := run(context.Background(), config{spec: "arrayot", params: specs.Params{Symmetry: true}, opts: tla.Options{Workers: 1}})
	if !isUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}

// TestTooManyActorsIsAUsageError: a locking state holds at most
// locking.MaxActors actors, so -actors past it is refused as a usage error
// (exit 2) before the spec is built, instead of panicking in it.
func TestTooManyActorsIsAUsageError(t *testing.T) {
	err := run(context.Background(), config{spec: "locking", params: specs.Params{Actors: locking.MaxActors + 1}, opts: tla.Options{Workers: 1}})
	if !isUsage(err) {
		t.Fatalf("run = %v, want a usage error", err)
	}
}

// TestTooManyNodesIsAUsageError: a raftmongo state holds at most
// raftmongo.MaxNodes nodes, so -nodes past it is refused as a usage error
// (exit 2) on both variants before the spec is built, instead of
// panicking in it.
func TestTooManyNodesIsAUsageError(t *testing.T) {
	for _, spec := range []string{"raftmongo-v1", "raftmongo-v2"} {
		cfg := config{spec: spec, params: specs.Params{Nodes: raftmongo.MaxNodes + 1, MaxTerm: 1, MaxLog: 1}, opts: tla.Options{Workers: 1}}
		if err := run(context.Background(), cfg); !isUsage(err) {
			t.Fatalf("%s: run = %v, want a usage error", spec, err)
		}
	}
}

// TestFrontEndsAgreeOnParams runs the same spec params through minitlc's
// front end and through checkd's Submit and HTTP API: both accept a row
// with the same effective params (checkd's verdict-cache fingerprint of
// the raw row equals that of minitlc's resolved params), or both refuse
// it with the same text — a usage error here, HTTP 400 there.
func TestFrontEndsAgreeOnParams(t *testing.T) {
	small := specs.Params{Nodes: 2, MaxTerm: 1, MaxLog: 1}
	with := func(f func(*specs.Params)) specs.Params {
		p := small
		f(&p)
		return p
	}
	over := raftmongo.MaxValue + 1
	rows := []struct {
		spec string
		p    specs.Params
		ok   bool
	}{
		{"raftmongo-v1", small, true},
		{"raftmongo-v1", with(func(p *specs.Params) { p.Nodes = 0 }), true},
		{"raftmongo-v1", with(func(p *specs.Params) { p.Nodes = -1 }), false},
		{"raftmongo-v1", with(func(p *specs.Params) { p.Nodes = raftmongo.MaxNodes + 1 }), false},
		{"raftmongo-v2", with(func(p *specs.Params) { p.MaxTerm = 2 }), true},
		{"raftmongo-v2", with(func(p *specs.Params) { p.MaxTerm = 0 }), true},
		{"raftmongo-v2", with(func(p *specs.Params) { p.MaxTerm = -1 }), false},
		{"raftmongo-v2", with(func(p *specs.Params) { p.MaxTerm = over }), false},
		{"raftmongo-v1", with(func(p *specs.Params) { p.MaxLog = 2 }), true},
		{"raftmongo-v1", with(func(p *specs.Params) { p.MaxLog = 0 }), true},
		{"raftmongo-v1", with(func(p *specs.Params) { p.MaxLog = -1 }), false},
		{"raftmongo-v1", with(func(p *specs.Params) { p.MaxLog = over }), false},
		{"locking", specs.Params{Actors: 3}, true},
		{"locking", specs.Params{}, true},
		{"locking", specs.Params{Actors: -1}, false},
		{"locking", specs.Params{Actors: locking.MaxActors + 1}, false},
		{"arrayot", specs.Params{}, true},
		{"arrayot", specs.Params{Symmetry: true}, false},
		{"no-such-spec", specs.Params{}, false},
	}
	sup, err := checkd.New(checkd.Config{Root: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Drain)
	srv := httptest.NewServer(checkd.NewHandler(sup))
	defer srv.Close()
	// One state is enough: an accepted job's verdict is not the question.
	jobOpts := checkd.JobOptions{MaxStates: 1}

	for _, r := range rows {
		c := config{spec: r.spec, params: r.p}
		_, cliErr := c.resolve()
		req := checkd.JobRequest{Spec: r.spec, Config: r.p, Options: jobOpts}
		res, subErr := sup.Submit(req)
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()

		if !r.ok {
			if cliErr == nil || !isUsage(cliErr) {
				t.Errorf("%s %+v: minitlc = %v, want a usage error", r.spec, r.p, cliErr)
				continue
			}
			if subErr == nil || subErr.Error() != cliErr.Error() {
				t.Errorf("%s %+v: Submit = %v, want %q", r.spec, r.p, subErr, cliErr)
			}
			if resp.StatusCode != http.StatusBadRequest || apiErr.Error != cliErr.Error() {
				t.Errorf("%s %+v: POST /jobs = %d %q, want 400 %q", r.spec, r.p, resp.StatusCode, apiErr.Error, cliErr)
			}
			continue
		}
		if cliErr != nil || subErr != nil || resp.StatusCode == http.StatusBadRequest {
			t.Errorf("%s %+v: minitlc = %v, Submit = %v, POST /jobs = %d %q; want all accepted",
				r.spec, r.p, cliErr, subErr, resp.StatusCode, apiErr.Error)
			continue
		}
		resolved, err := sup.Submit(checkd.JobRequest{Spec: r.spec, Config: c.params, Options: jobOpts})
		if err != nil {
			t.Fatal(err)
		}
		if resolved.Fingerprint != res.Fingerprint {
			t.Errorf("%s %+v: checkd runs it as job %s, minitlc as %+v (job %s)",
				r.spec, r.p, res.Fingerprint, c.params, resolved.Fingerprint)
		}
	}
}

// TestReportPrintsNegativeVerdicts: a violation prints its invariant and
// counterexample, a liveness failure its stuck state, a -dot dump its
// size, and run then returns errFailed (exit 1) after the report.
func TestReportPrintsNegativeVerdicts(t *testing.T) {
	sum := &specs.Summary{
		Verdict: "violation",
		Spec:    "Locking",
		Violation: &specs.ViolationInfo{Invariant: "Compatibility", Error: "actors 0 and 1 hold X and S",
			Trace: []string{"a", "b"}, TraceActs: []string{"Acquire"}},
		Liveness:   "failed",
		Stuck:      "b",
		GraphNodes: 2,
		GraphEdges: 1,
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = report(config{dot: "g.dot"}, sum, nil)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if !errors.Is(err, errFailed) {
		t.Errorf("report = %v, want errFailed", err)
	}
	want := "Locking: invariant Compatibility VIOLATED: actors 0 and 1 hold X and S\n" +
		"counterexample (1 steps):\n" +
		"   0 <init>                                        a\n" +
		"   1 Acquire                                       b\n" +
		"liveness FAILED: state \"b\" cannot reach agreement\n" +
		"state graph written to g.dot (2 nodes, 1 edges)\n"
	if string(out) != want {
		t.Errorf("report printed\n%s\nwant\n%s", out, want)
	}
}
