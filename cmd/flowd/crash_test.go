package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCrashRecoveryE2E is the whole-process durability gate (CI crash
// job, `make crash`): build the real flowd binary, kill -9 it in the
// middle of a run, restart it over the same data directory and require
// the resumed run's final masked trace to be byte-identical to the
// trace of an uninterrupted golden instance. Gated behind CRASH_E2E=1
// so plain `go test ./...` stays fast.
func TestCrashRecoveryE2E(t *testing.T) {
	if os.Getenv("CRASH_E2E") == "" {
		t.Skip("set CRASH_E2E=1 to run the kill -9 crash/recovery round trip")
	}
	bin := filepath.Join(t.TempDir(), "flowd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building flowd: %v\n%s", err, out)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "slow-chain.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Golden: an uninterrupted run of the slow chain, then a graceful
	// SIGTERM drain that must exit 0 and leave a checkpoint behind.
	goldenDir := t.TempDir()
	g := startFlowd(t, bin, goldenDir)
	id := submitRun(t, g.base, doc)
	waitState(t, g.base, id, "succeeded")
	golden := traceLines(t, g.base, id)
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := g.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited nonzero: %v", err)
	}
	if _, err := os.Stat(filepath.Join(goldenDir, "store.json")); err != nil {
		t.Fatalf("no datastore checkpoint after graceful shutdown: %v", err)
	}

	// Crash: same scenario, same id, but kill -9 mid-run: as soon as the
	// followed trace shows the first unit committed. The chain's next
	// unit sleeps 40ms before it can commit, so the kill lands mid-run by
	// construction.
	crashDir := t.TempDir()
	c := startFlowd(t, bin, crashDir)
	if id2 := submitRun(t, c.base, doc); id2 != id {
		t.Fatalf("crash instance assigned id %s, golden got %s", id2, id)
	}
	awaitFirstCommit(t, c.base, id)
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = c.cmd.Wait()
	if runFinished(filepath.Join(crashDir, "runs", id+".wal")) {
		t.Fatal("the kill landed after the run finished: nothing left to resume")
	}

	// Restart over the same data dir: the run must come back, rebuilt
	// from its logged scenario and resumed from its last committed unit,
	// and its trace must equal the golden.
	r := startFlowd(t, bin, crashDir)
	waitState(t, r.base, id, "succeeded")
	resumed := traceLines(t, r.base, id)
	if len(resumed) != len(golden) {
		t.Fatalf("resumed trace has %d events, golden %d\nresumed: %v\ngolden:  %v",
			len(resumed), len(golden), resumed, golden)
	}
	for i := range resumed {
		if resumed[i] != golden[i] {
			t.Fatalf("resumed trace diverges at event %d:\nresumed: %s\ngolden:  %s",
				i, resumed[i], golden[i])
		}
	}
}

type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startFlowd launches the built binary on a loopback port with the
// given data directory and waits until it serves.
func startFlowd(t *testing.T, bin, dataDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving on "); i >= 0 {
			addr := strings.Fields(line[i+len("serving on "):])[0]
			go func() {
				for sc.Scan() {
				}
			}()
			d := &daemon{cmd: cmd, base: "http://" + addr}
			waitHealthy(t, d.base)
			return d
		}
	}
	t.Fatalf("flowd exited before serving (scan err %v)", sc.Err())
	return nil
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("flowd at %s never became healthy: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitRun(t *testing.T, base string, doc []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"scenario":`+string(doc)+`,"user":"crash"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.ID == "" {
		t.Fatalf("submit: status %d, decode err %v", resp.StatusCode, err)
	}
	return v.ID
}

// awaitFirstCommit follows the run's trace stream until it carries the
// first UnitCommitted event.
func awaitFirstCommit(t *testing.T, base, id string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "UnitCommitted" {
			return
		}
	}
	t.Fatalf("trace of %s ended without a committed unit (scan err %v)", id, sc.Err())
}

func waitState(t *testing.T, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var v struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	for {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return
		}
		if v.State != "running" || time.Now().After(deadline) {
			t.Fatalf("run %s is %q (error %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func traceLines(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	return lines
}
