package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/checkd"
	"repro/internal/locking"
	"repro/internal/tla"
)

// jobMix is one round of the closed loop: four small jobs whose latency is
// supervisor overhead, six whose latency is engine time. The mix is a fixed
// multiset — a seed-drawn mix would make a round's total work vary with
// the seed — and the seed decides the order jobs arrive in.
//
// The small jobs are the minority so that the median job, which verdict_s
// reports, is an arrayot check: a small job's 10–20 ms are thread wake-ups
// and file-system calls, which on a shared host move twice as far as
// processor time does (median small-job latency ran from 11 to 22 ms
// between one ten-run set and the next, and its spread within a set reached
// 27 %, against 5–6 % for the arrayot jobs of the same rounds). The traced
// run reports the small job on its own as checkd.small_job_ms.
func jobMix(smoke bool) []checkd.JobRequest {
	mix := []struct {
		n   int
		req checkd.JobRequest
	}{
		{4, smallJob(smoke)},
		{3, job("arrayot", checkd.SpecParams{})},
		{3, job("raftmongo-v2", checkd.SpecParams{Nodes: 3, MaxTerm: 2, MaxLog: 2})},
	}
	if smoke {
		mix[0].n, mix[1].n, mix[2].n = 2, 0, 1
		mix[2].req.Config = checkd.SpecParams{Nodes: 3, MaxTerm: 1, MaxLog: 1}
	}
	var jobs []checkd.JobRequest
	for _, m := range mix {
		for i := 0; i < m.n; i++ {
			jobs = append(jobs, m.req)
		}
	}
	return jobs
}

func job(spec string, p checkd.SpecParams) checkd.JobRequest {
	return checkd.JobRequest{Spec: spec, Config: p, Options: checkd.JobOptions{NoCache: true}}
}

// smallJob is the mix's 2,107-state job, the one whose latency is mostly
// the service's own.
func smallJob(smoke bool) checkd.JobRequest {
	if smoke {
		return job("locking", checkd.SpecParams{Actors: 2})
	}
	return job("locking", checkd.SpecParams{Actors: 3})
}

// service is an in-process checkd: a supervisor behind its real HTTP
// handler on a loopback listener.
type service struct {
	sup    *checkd.Supervisor
	srv    *httptest.Server
	client *http.Client
}

func startService(root string) (*service, error) {
	sup, err := checkd.New(checkd.Config{Root: root, MaxConcurrent: 2})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(checkd.NewHandler(sup))
	return &service{sup: sup, srv: srv, client: srv.Client()}, nil
}

func (s *service) close() {
	s.srv.Close()
	s.sup.Drain()
}

// call does one JSON request and decodes the response body into out.
func (s *service) call(method, path string, body, out any) error {
	var rd bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&rd).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, s.srv.URL+path, &rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jobTiming is what one client saw for one job.
type jobTiming struct {
	spec            string
	latency, submit float64 // seconds: POST sent → result read; POST round trip
	polls           int
}

// runJob is one client's handling of one job: POST it, poll its status
// every millisecond until terminal, read the result.
func (s *service) runJob(rec *recorder, parent int, req checkd.JobRequest) (checkd.JobResult, jobTiming, error) {
	var res checkd.JobResult
	t := jobTiming{spec: req.Spec}
	t0 := time.Now()
	jid := rec.begin(parent, "checkd.job "+req.Spec, "")
	pid := rec.begin(jid, "POST /jobs", "")
	if err := s.call("POST", "/jobs", req, &res); err != nil {
		return res, t, err
	}
	t.submit = time.Since(t0).Seconds()
	rec.end(pid)
	id := res.ID
	wid := rec.begin(jid, "poll GET /jobs/{id}", "")
	for {
		var st checkd.JobStatus
		if err := s.call("GET", "/jobs/"+id, nil, &st); err != nil {
			return res, t, err
		}
		t.polls++
		if st.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rec.end(wid)
	rid := rec.begin(jid, "GET /jobs/{id}/result", "")
	if err := s.call("GET", "/jobs/"+id+"/result", nil, &res); err != nil {
		return res, t, err
	}
	rec.end(rid)
	rec.end(jid)
	rec.setUnit(id, jid, pid, wid, rid)
	t.latency = time.Since(t0).Seconds()
	return res, t, nil
}

// round runs jobs through the closed loop, one client wide: the next job is
// sent only after the previous verdict is read, so a slower service is
// offered less load. One client, not the two the supervisor could run at
// once: two put four engine workers and two pollers on two cores, a small
// job's latency then depends on whether a large one happens to run beside
// it, and the median job latency moved by 25–38 % between seeds (one: 4 %).
// Every verdict is checked.
func (s *service) round(rec *recorder, unit string, jobs []checkd.JobRequest, exp expectation) (unitResult, []jobTiming, error) {
	u := unitResult{items: len(jobs)}
	var timings []jobTiming
	rid := rec.begin(0, "checkd.round", unit)
	for _, req := range jobs {
		res, t, err := s.runJob(rec, rid, req)
		if err != nil {
			return u, timings, err
		}
		u.attempted++
		timings = append(timings, t)
		u.latencies = append(u.latencies, t.latency)
		want := exp.Jobs[req.Spec]
		switch {
		case res.State != checkd.JobDone || res.Outcome == nil:
			u.fail("job %s (%s) ended %s: %s", res.ID, req.Spec, res.State, res.Error)
		case res.Outcome.Verdict != want.Verdict || res.Outcome.Distinct != want.Distinct:
			u.fail("job %s (%s): %s with %d states, expected %s with %d",
				res.ID, req.Spec, res.Outcome.Verdict, res.Outcome.Distinct, want.Verdict, want.Distinct)
		}
	}
	rec.end(rid)
	return u, timings, nil
}

func checkdJobs() workload {
	return workload{
		name: "checkd-jobs", item: "job",
		why: "submit-to-verdict latency as a user of the checking service sees it, one HTTP client in a closed loop, three job sizes: the supervisor (job dir, arena, checkpoints, result) on top of the engine",
		prepare: func(e *env) (*instance, error) {
			root, err := os.MkdirTemp(e.tmp, "checkd-")
			if err != nil {
				return nil, err
			}
			svc, err := startService(root)
			if err != nil {
				return nil, err
			}
			jobs := jobMix(e.smoke)
			rng := rand.New(rand.NewSource(e.seed))
			return &instance{
				unit: func() (unitResult, error) {
					rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
					u, _, err := svc.round(nil, "", jobs, e.exp)
					return u, err
				},
				close: func() {
					svc.close()
					os.RemoveAll(root)
				},
			}, nil
		},
		trace: traceCheckd,
	}
}

// traceCheckd is the traced run: rounds with a span per job and per HTTP
// exchange, paired with unrecorded rounds.
func traceCheckd(e *env, rec *recorder, rep *report) (layerMetrics, error) {
	start := time.Now()
	root, err := os.MkdirTemp(e.tmp, "checkd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	svc, err := startService(root)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	jobs := jobMix(e.smoke)
	rng := rand.New(rand.NewSource(e.seed))
	var all []jobTiming
	round := func(r *recorder, unit string) (unitResult, []jobTiming, error) {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		u, ts, err := svc.round(r, unit, jobs, e.exp)
		all = append(all, ts...)
		return u, ts, err
	}
	warm, _, err := round(nil, "")
	if err != nil {
		return nil, err
	}
	rep.absorb(warm)
	all = nil // the warm-up's latencies are not samples
	var lastPolls int
	ratios, err := pairs(e, start, rep,
		func() (unitResult, error) {
			u, _, err := round(nil, "")
			return u, err
		},
		func(i int) (float64, error) {
			runtime.GC()
			t0 := time.Now()
			u, ts, err := round(rec, fmt.Sprintf("round-%d", i))
			wall := time.Since(t0).Seconds()
			rep.absorb(u)
			lastPolls = 0
			for _, t := range ts {
				lastPolls += t.polls
			}
			return wall, err
		})
	if err != nil {
		return nil, err
	}
	var latencies, submits, small []float64
	for _, t := range all {
		latencies = append(latencies, t.latency)
		submits = append(submits, t.submit*1000)
		if t.spec == "locking" {
			small = append(small, t.latency*1000)
		}
	}

	// What the smallest job costs with no service around it.
	lspec := locking.Spec(locking.SpecConfig{Actors: smallJob(e.smoke).Config.Actors})
	var bare []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := tla.Check(lspec, tla.Options{Workers: workers, StateArena: true}); err != nil {
			return nil, err
		}
		bare = append(bare, time.Since(t0).Seconds()*1000)
	}

	retries := svc.sup.Metrics().Counter("checkd_job_retries_total").Value()
	if retries != 0 {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d job attempts were retried", retries))
	}
	tail := summarize(latencies)
	return layerMetrics{
		"checkd.submit_ms":           median(submits),
		"checkd.small_job_ms":        median(small),
		"checkd.service_overhead_ms": median(small) - median(bare[1:]),
		"checkd.poll_requests":       float64(lastPolls),
		"checkd.retries":             float64(retries),
		"checkd.verdict_tail_s":      tail.Tail,
		"checkd.verdict_tail_p":      tail.TailP,
		"bench.trace_overhead_pct":   (median(ratios) - 1) * 100,
	}, nil
}
