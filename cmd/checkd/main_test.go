package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkd"
	"repro/internal/raftmongo"
	"repro/internal/specs"
	"repro/internal/tla"
)

// checkdProc is one running checkd binary under test.
type checkdProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startCheckd launches the built binary over root and parses the announced
// listen address off stdout.
func startCheckd(t *testing.T, bin, root string, extraArgs ...string) *checkdProc {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-root", root}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "checkd listening on "); ok {
			go func() { // keep draining stdout so the child never blocks on it
				for sc.Scan() {
				}
			}()
			return &checkdProc{cmd: cmd, base: rest}
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("checkd never announced its listen address")
	return nil
}

func (p *checkdProc) doJSON(t *testing.T, method, path string, body, out any) int {
	t.Helper()
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestKillDashNineRecoversToOracleVerdict is the acceptance test for the
// service's crash-tolerance contract: SIGKILL the process mid-check,
// restart it over the same root, and the job resumes from its last
// checkpoint to a verdict and counters byte-identical to an uninterrupted
// in-process oracle run.
func TestKillDashNineRecoversToOracleVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real checkd process")
	}
	bin := filepath.Join(t.TempDir(), "checkd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building checkd: %v", err)
	}
	root := t.TempDir()

	// -checkpoint-every 1 maximises checkpoint cadence so the kill window
	// is wide; the contract bounds lost work to one checkpoint interval.
	// The whole check takes under a second on a fast host, so progress is
	// published every 20ms (default 1s) for the poll below to see the run
	// mid-flight rather than already done.
	proc := startCheckd(t, bin, root, "-checkpoint-every", "1", "-max-concurrent", "1",
		"-progress-every", "20ms")
	defer func() {
		proc.cmd.Process.Kill()
		proc.cmd.Wait()
	}()

	req := checkd.JobRequest{
		Spec:    "raftmongo-v2",
		Config:  checkd.SpecParams{Nodes: 3, MaxTerm: 3, MaxLog: 2},
		Options: checkd.JobOptions{Workers: 2},
	}
	var sub checkd.JobResult
	if code := proc.doJSON(t, "POST", "/jobs", req, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}

	// Let the run make real progress — and commit at least one checkpoint —
	// then kill -9 the process.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st checkd.JobStatus
		if code := proc.doJSON(t, "GET", "/jobs/"+sub.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("GET status = %d", code)
		}
		if st.State == checkd.JobDone {
			t.Fatal("job finished before the kill; raise the state space or lower the threshold")
		}
		manifest := filepath.Join(root, sub.ID, "ck", "MANIFEST.json")
		if _, err := os.Stat(manifest); err == nil &&
			st.Progress != nil && st.Progress.Distinct >= 15000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpointed progress to kill into (last: %+v)", st.Progress)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := proc.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	proc.cmd.Wait()

	// Restart over the same root: the startup scan must re-queue the job
	// and resume it from the manifest to completion.
	proc2 := startCheckd(t, bin, root, "-checkpoint-every", "4", "-max-concurrent", "1")
	defer func() {
		proc2.cmd.Process.Kill()
		proc2.cmd.Wait()
	}()
	var final checkd.JobResult
	for {
		if code := proc2.doJSON(t, "GET", "/jobs/"+sub.ID+"/result", nil, &final); code != http.StatusOK {
			t.Fatalf("GET result after restart = %d", code)
		}
		if final.State == checkd.JobDone {
			break
		}
		if final.State == checkd.JobFailed || final.State == checkd.JobCanceled {
			t.Fatalf("recovered job ended %q: %s", final.State, final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job stuck in %q", final.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The oracle: the same spec checked uninterrupted, in process, with
	// checkpoint-shaped options (same visited-store selection) at Workers=1.
	oracle, err := specs.Check(
		raftmongo.SpecV2(raftmongo.Config{Nodes: 3, MaxTerm: 3, MaxLogLen: 2}),
		tla.Options{Workers: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 8}, specs.Checks{}, nil)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got, want := final.Outcome, oracle
	if got.Verdict != want.Verdict || got.Distinct != want.Distinct ||
		got.Transitions != want.Transitions || got.Depth != want.Depth || got.Terminal != want.Terminal {
		t.Fatalf("resumed verdict diverged from oracle:\n got  %+v\n want %+v", got, want)
	}

	// Graceful exit: SIGTERM drains and the process exits 0.
	if err := proc2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc2.cmd.Wait(); err != nil {
		t.Fatalf("drained process exit: %v", err)
	}
}

// TestDrainParksRunningJobAcrossRestart: SIGTERM mid-run checkpoints the
// job and exits 0; the restarted process resumes it to completion.
func TestDrainParksRunningJobAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real checkd process")
	}
	bin := filepath.Join(t.TempDir(), "checkd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building checkd: %v", err)
	}
	root := t.TempDir()
	// Fast progress, as in TestKillDashNineRecoversToOracleVerdict: the
	// drain must land while the job is still running.
	proc := startCheckd(t, bin, root, "-checkpoint-every", "1", "-progress-every", "20ms")
	defer func() {
		proc.cmd.Process.Kill()
		proc.cmd.Wait()
	}()

	req := checkd.JobRequest{
		Spec:    "raftmongo-v2",
		Config:  checkd.SpecParams{Nodes: 3, MaxTerm: 3, MaxLog: 2},
		Options: checkd.JobOptions{Workers: 2},
	}
	var sub checkd.JobResult
	if code := proc.doJSON(t, "POST", "/jobs", req, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st checkd.JobStatus
		proc.doJSON(t, "GET", "/jobs/"+sub.ID, nil, &st)
		if st.State == checkd.JobDone {
			t.Fatal("job finished before the drain")
		}
		if st.Progress != nil && st.Progress.Distinct >= 5000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress to drain into")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := proc.cmd.Wait(); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, sub.ID, "ck", "MANIFEST.json")); err != nil {
		t.Fatalf("drain left no checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, sub.ID, "result.json")); err == nil {
		t.Fatal("drained job has a terminal result; it should be parked")
	}

	proc2 := startCheckd(t, bin, root)
	defer func() {
		proc2.cmd.Process.Signal(syscall.SIGTERM)
		proc2.cmd.Wait()
	}()
	for {
		var final checkd.JobResult
		if code := proc2.doJSON(t, "GET", "/jobs/"+sub.ID+"/result", nil, &final); code != http.StatusOK {
			t.Fatalf("GET result = %d", code)
		}
		if final.State == checkd.JobDone {
			if final.Outcome == nil || final.Outcome.Verdict != "ok" {
				t.Fatalf("resumed outcome = %+v", final.Outcome)
			}
			break
		}
		if final.State.Terminal() {
			t.Fatalf("resumed job ended %q: %s", final.State, final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %q", final.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("drain/restart cycle complete")
}
