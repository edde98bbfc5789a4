// Command flowd runs the flow service: one long-lived engine with a
// shared worker pool and admission control, executing many designers'
// submitted scenarios concurrently and streaming each run's masked
// JSONL trace over HTTP (internal/service).
//
// Usage:
//
//	flowd                      # serve on :8080
//	flowd -addr 127.0.0.1:9090 # serve elsewhere
//	flowd -data-dir ./flowd    # durable runs: WAL per run, crash recovery
//	flowd -smoke               # self-test: start on a loopback port, do a
//	                           # submit→status→trace→cancel round trip,
//	                           # print "smoke ok" and exit (CI)
//	flowd -scenario f.json     # conformance-check one scenario file
//	                           # (internal/scenario) against its golden
//	                           # trace and exit; -update re-blesses it
//	flowd -data-dir ./flowd -verify-provenance
//	                           # replay every run log under <data-dir>/runs
//	                           # against its chain digests and exit
//	                           # (non-zero if any log is corrupt)
//
// Flags:
//
//	-workers <n>   shared worker-pool size (default 4)
//	-max-runs <n>  concurrently executing run bound (default 64)
//	-queue <n>     queued-run bound beyond -max-runs (default 256)
//	-data-dir <d>  durable state directory: one WAL per run; on boot,
//	               finished runs come back with their status and trace,
//	               and interrupted runs are rebuilt from their logged
//	               scenario and resume from their last committed unit
//	               (empty = in-memory only)
//	-drain <d>     graceful-shutdown drain timeout (default 30s)
//
// On SIGTERM/SIGINT flowd drains: new submissions get 503, active runs
// get -drain to finish (WALs flushed and closed), and flowd exits 0 —
// or 2 when the deadline forced running flows to abort (their WALs
// keep every committed unit, so the next boot resumes them from
// there).
//
// Try it:
//
//	curl -X POST localhost:8080/v1/runs \
//	  -d "{\"scenario\": $(cat testdata/scenarios/quickstart.json), \"user\": \"alice\"}"
//	curl localhost:8080/v1/runs/r-0001/trace
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "shared worker-pool size")
	maxRuns := flag.Int("max-runs", 0, "concurrently executing run bound (0 = default 64)")
	queue := flag.Int("queue", -1, "queued-run bound (-1 = default 256)")
	dataDir := flag.String("data-dir", "", "durable state directory (empty = in-memory only)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	smoke := flag.Bool("smoke", false, "start on a loopback port, run a self round trip, exit")
	scenarioPath := flag.String("scenario", "", "run the conformance check on one scenario file and exit")
	goldenDir := flag.String("golden-dir", "", "with -scenario: golden trace directory (default <scenario dir>/golden)")
	updateGolden := flag.Bool("update", false, "with -scenario: write the golden trace instead of comparing")
	verifyProv := flag.Bool("verify-provenance", false, "verify every run log under -data-dir against its chain digests and exit")
	flag.Parse()

	if *scenarioPath != "" {
		if err := runScenario(*scenarioPath, *goldenDir, *updateGolden); err != nil {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(1)
		}
		return
	}
	if *verifyProv {
		if err := runVerifyProvenance(*dataDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "flowd:", err)
			os.Exit(1)
		}
		return
	}

	srv, err := service.New(service.Config{
		Workers: *workers, MaxRuns: *maxRuns, MaxQueue: *queue, DataDir: *dataDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowd:", err)
		os.Exit(1)
	}

	if *smoke {
		if err := runSmoke(srv); err != nil {
			fmt.Fprintln(os.Stderr, "smoke failed:", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowd:", err)
		os.Exit(1)
	}
	fmt.Printf("flowd: serving on %s (%d workers)\n", ln.Addr(), *workers)
	// Followed trace streams stay open for a run's lifetime, so there is
	// no read or write deadline — only the idle phases are bounded.
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "flowd:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Printf("flowd: %v: draining (timeout %s)\n", sig, *drain)
		// Drain the service first (admission stops immediately, active
		// runs finish and flush their WALs), then close out the HTTP
		// side — by now every followed trace stream has ended, so
		// in-flight requests wind down fast.
		forced, err := srv.Shutdown(*drain)
		hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(hctx)
		hcancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowd: shutdown:", err)
			os.Exit(1)
		}
		if forced {
			fmt.Fprintln(os.Stderr, "flowd: drain timeout: running flows aborted")
			os.Exit(2)
		}
		fmt.Println("flowd: drained cleanly")
	}
}

// Smoke-test scenarios, inline because the binary cannot rely on the
// repository's testdata: a generated 6-cell world for the round trip,
// and a one-tool world whose tool sleeps (context-aware) far longer
// than the test waits, for the cancel.
const (
	smokeScenario  = `{"name":"smoke","generate":{"cells":6,"shape":"diamond","seed":1}}`
	sleepyScenario = `{"name":"smoke-sleep",
	  "schema":["tool Sleeper -- sleeps until cancelled","data Out -- never produced","  fd Sleeper"],
	  "tools":[{"type":"Sleeper","sleepMs":30000}],
	  "imports":[{"key":"s","type":"Sleeper","data":"sleeper"}],
	  "flow":[{"op":"add","node":"out","type":"Out"},{"op":"expand","node":"out"},
	          {"op":"bind","node":"out.fd","to":["s"]}]}`
)

// runSmoke exercises the service end to end against a real listener:
// submit a sleeping scenario and cancel it mid-dispatch, then submit a
// generated world, poll it to success and read its full masked trace.
func runSmoke(srv *service.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = http.Serve(ln, srv) }()
	base := "http://" + ln.Addr().String()

	var run struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Tasks int    `json:"tasks_run"`
		Error string `json:"error"`
	}
	post := func(path, body string, out any) error {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			var e map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("POST %s: status %d (%v)", path, resp.StatusCode, e)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	get := func(path string, out any) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	submit := func(doc string) error {
		return post("/v1/runs", `{"scenario":`+doc+`,"user":"smoke"}`, &run)
	}

	// Cancel a sleeping run mid-dispatch.
	if err := submit(sleepyScenario); err != nil {
		return err
	}
	time.Sleep(5 * time.Millisecond)
	if err := post("/v1/runs/"+run.ID+"/cancel", "", &run); err != nil {
		return err
	}
	if run.State != "cancelled" {
		return fmt.Errorf("after cancel run is %s, want cancelled", run.State)
	}

	// Submit → poll to success.
	if err := submit(smokeScenario); err != nil {
		return err
	}
	id := run.ID
	deadline := time.Now().Add(10 * time.Second)
	for run.State == "running" {
		if time.Now().After(deadline) {
			return fmt.Errorf("run %s still running after 10s", id)
		}
		time.Sleep(5 * time.Millisecond)
		if err := get("/v1/runs/"+id, &run); err != nil {
			return err
		}
	}
	if run.State != "succeeded" || run.Tasks != 6 {
		return fmt.Errorf("run %s ended %s with %d tasks (error %q), want succeeded/6",
			id, run.State, run.Tasks, run.Error)
	}

	// Trace: complete masked JSONL, PlanBuilt first, RunFinished last.
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var first, last map[string]any
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad trace line %q: %v", line, err)
		}
		if n == 0 {
			first = ev
		}
		last = ev
		n++
	}
	if n < 2 || first["kind"] != "PlanBuilt" || last["kind"] != "RunFinished" {
		return fmt.Errorf("trace shape wrong: %d events, first %v last %v",
			n, first["kind"], last["kind"])
	}

	if err := get("/metrics", nil); err != nil {
		return err
	}
	return ln.Close()
}

// runVerifyProvenance is the cold tamper check: replay every run log
// under <data-dir>/runs (service.ReplayLog reads, never writes) and
// write one line per log to w: ok, CORRUPT naming the first bad unit,
// unverified or interrupted. It fails iff some log is corrupt.
func runVerifyProvenance(dataDir string, w io.Writer) error {
	if dataDir == "" {
		return fmt.Errorf("-verify-provenance needs -data-dir")
	}
	paths, err := filepath.Glob(filepath.Join(dataDir, "runs", "*.wal"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	bad := 0
	for _, p := range paths {
		_, n, err := service.ReplayLog(p)
		switch {
		case err == nil:
			fmt.Fprintf(w, "%s: ok (%d records)\n", filepath.Base(p), n)
		case errors.Is(err, service.ErrInterrupted):
			fmt.Fprintf(w, "%s: interrupted: verified when resumed\n", filepath.Base(p))
		case errors.Is(err, service.ErrUnverified):
			fmt.Fprintf(w, "%s: %v\n", filepath.Base(p), err)
		default:
			fmt.Fprintf(w, "%s: CORRUPT: %v\n", filepath.Base(p), err)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d run logs failed verification", bad, len(paths))
	}
	fmt.Fprintf(w, "%d run logs checked, none corrupt\n", len(paths))
	return nil
}

// runScenario runs the conformance harness on one scenario file — the
// command-line face of the corpus test, for authoring new scenarios
// (write the JSON, run with -update, inspect the golden, commit both).
func runScenario(path, goldenDir string, update bool) error {
	if goldenDir == "" {
		goldenDir = filepath.Join(filepath.Dir(path), "golden")
	}
	rep, err := harness.RunFile(path, harness.Options{
		GoldenDir: goldenDir,
		Update:    update,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if rep.GoldenUpdated {
		fmt.Printf("scenario %s: golden written: %s\n", rep.Scenario, rep.GoldenPath)
		return nil
	}
	fmt.Printf("scenario %s ok: %d tasks per run, identical across %s\n",
		rep.Scenario, rep.TasksRun, strings.Join(rep.Configs, ", "))
	return nil
}
