// Package service exposes the multi-run execution engine as an
// HTTP/JSON flow service — the paper's flow manager as a long-lived
// daemon supervising many designers' flows at once. A submission is a
// declarative scenario (internal/scenario): its schema, tools, imports
// and flow are materialized server-side into a world of its own (own
// history database, own result cache) and executed on the one shared
// engine, worker pool and content-addressed datastore, with its own
// streamed trace.
//
// Endpoints:
//
//	GET  /healthz              liveness
//	POST /v1/runs              submit {"scenario": {...}, "user": name}
//	                           (body at most 1 MiB, unknown fields 400)
//	GET  /v1/runs              list runs
//	GET  /v1/runs/{id}         one run's status
//	GET  /v1/runs/{id}/trace   masked JSONL event stream (follows until
//	                           the run finishes)
//	GET  /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N
//	                           derivation/use-dependency chaining over the
//	                           run's provenance index (provenance.go)
//	POST /v1/runs/{id}/cancel  cancel (DELETE /v1/runs/{id} also works)
//	GET  /metrics              plain-text exposition of the shared fold
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// maxSubmitBytes caps a submission body. The largest corpus scenario is
// under 4 KB and a generated world is a one-line stanza.
const maxSubmitBytes = 1 << 20

// Config sizes the service.
type Config struct {
	// Workers is the shared pool size (default 4).
	Workers int
	// MaxRuns bounds concurrently executing runs (default
	// exec.DefaultMaxConcurrentRuns).
	MaxRuns int
	// MaxQueue bounds runs queued behind the bound (default
	// exec.DefaultMaxQueuedRuns).
	MaxQueue int
	// DataDir, when set, makes runs durable: every submission writes a
	// write-ahead log under <DataDir>/runs and New recovers whatever it
	// finds there — finished runs are replayed into the datastore,
	// interrupted runs are re-materialized from their logged scenario and
	// resumed from their last committed unit. Shutdown checkpoints the
	// datastore to <DataDir>/store.json. Empty = in-memory only.
	DataDir string
}

// runState is the lifecycle of one submission.
type runState string

const (
	stateRunning   runState = "running"
	stateSucceeded runState = "succeeded"
	stateFailed    runState = "failed"
	stateCancelled runState = "cancelled"
)

// runRecord is the server-side state of one submission.
type runRecord struct {
	id       string
	flowName string
	user     string
	log      *eventLog
	cancel   context.CancelFunc
	done     chan struct{}
	// wal/walLog are set on durable runs: the run's write-ahead log and
	// the file beneath it, both closed by the run goroutine at the end.
	wal    *storage.RunWAL
	walLog storage.Log
	// db/prov/chain are the run's provenance surface: the world's
	// history database, the commit-time adjacency index the provenance
	// endpoint queries, and the hash chain of committed derivation
	// records (runs/<id>.chain in durable mode, an in-memory log
	// otherwise). All nil on runs recovered without executing again,
	// which have no live world. The chain stays open past the run's end
	// so /provenance?verify=1 works; Shutdown closes it.
	db    *history.DB
	prov  *provenance.Index
	chain *provenance.Chain
	// world is the run's materialized scenario, closed by the run
	// goroutine at the end. Nil on runs recovered without executing.
	world *harness.World

	mu      sync.Mutex
	state   runState
	res     *exec.Result
	err     error
	started time.Time
	elapsed time.Duration
}

// Server is the flow service: an http.Handler plus the shared engine
// behind it.
type Server struct {
	cfg     Config
	store   *datastore.Store
	engine  *exec.Engine
	metrics *trace.Metrics
	mux     *http.ServeMux
	dataDir string // durable root; empty = in-memory only

	mu       sync.Mutex
	seq      int
	runs     map[string]*runRecord
	draining bool // Shutdown in progress: submissions get 503
}

// New assembles a server: one engine over a fresh shared datastore.
// With Config.DataDir set it also recovers every run log found there
// before returning, so the server comes up with its pre-crash runs
// queryable (finished) or running again (interrupted).
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	store := datastore.NewStore()
	// The engine carries no schema, registry or database of its own:
	// every run brings its world's through exec.RunOptions.
	engine := exec.New(nil, nil, store, nil)
	engine.SetWorkers(cfg.Workers)
	if cfg.MaxRuns > 0 {
		engine.SetMaxConcurrentRuns(cfg.MaxRuns)
	}
	if cfg.MaxQueue >= 0 {
		engine.SetMaxQueuedRuns(cfg.MaxQueue)
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		engine:  engine,
		metrics: trace.NewMetrics(),
		mux:     http.NewServeMux(),
		runs:    make(map[string]*runRecord),
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/runs/{id}/provenance", s.handleProvenance)
	s.mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, s.metrics.Expose())
	})
	if cfg.DataDir != "" {
		s.dataDir = cfg.DataDir
		if err := s.initDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the shared engine (benchmarks and tests).
func (s *Server) Engine() *exec.Engine { return s.engine }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitRequest is the POST /v1/runs body: an inline declarative
// scenario (internal/scenario), whose schema, tools, imports and flow
// are materialized server-side and run on the shared engine via
// per-run overrides (exec.RunOptions).
type submitRequest struct {
	Scenario json.RawMessage `json:"scenario"`
	User     string          `json:"user"`
}

// runView is the JSON shape of one run.
type runView struct {
	ID        string `json:"id"`
	Flow      string `json:"flow"`
	User      string `json:"user"`
	State     string `json:"state"`
	TasksRun  int    `json:"tasks_run,omitempty"`
	CacheHits int    `json:"cache_hits,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (rec *runRecord) view() runView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := runView{ID: rec.id, Flow: rec.flowName, User: rec.user, State: string(rec.state)}
	if rec.res != nil {
		v.TasksRun = rec.res.TasksRun
		if rec.res.Stats != nil {
			v.CacheHits = rec.res.Stats.CacheHits
		}
	}
	if rec.elapsed > 0 {
		v.ElapsedMS = rec.elapsed.Milliseconds()
	}
	if rec.err != nil {
		v.Error = rec.err.Error()
	}
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Scenario) == 0 {
		writeErr(w, http.StatusBadRequest, `submit {"scenario": {...}, "user": name}`)
		return
	}
	var doc bytes.Buffer
	if err := json.Compact(&doc, req.Scenario); err != nil {
		writeErr(w, http.StatusBadRequest, "scenario: %v", err)
		return
	}
	if req.User == "" {
		req.User = "designer"
	}
	// Best-effort back-pressure before doing any work; the engine's own
	// admission control is the authoritative gate.
	maxRuns, maxQueue := s.engineBounds()
	if active, queued := s.engine.Runs(); active >= maxRuns && queued >= maxQueue {
		writeErr(w, http.StatusTooManyRequests,
			"engine is busy: %d runs active, %d queued", active, queued)
		return
	}

	world, flowName, opts, err := s.materialize(doc.Bytes())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "scenario: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		world.Close()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.seq++
	id := fmt.Sprintf("r-%04d", s.seq)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: flowName, user: req.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, world: world}
	rec.started = time.Now()
	// abort releases everything acquired for a run that never launches.
	abort := func(code int, format string, args ...any) {
		cancel()
		s.discardRunWAL(rec)
		world.Close()
		writeErr(w, code, format, args...)
	}

	// Durable mode: open the run's WAL and make the identity record —
	// scenario included — stable before the submission is acknowledged.
	if s.dataDir != "" {
		if err := s.openRunWAL(rec, doc.Bytes()); err != nil {
			abort(http.StatusInternalServerError, "run log: %v", err)
			return
		}
	}

	s.mu.Lock()
	if s.draining { // drain began while the WAL was being created
		s.mu.Unlock()
		abort(http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.runs[id] = rec
	s.mu.Unlock()

	// Attach the provenance surface: index and hash chain observe every
	// commit of the world's database (existing records — the imports —
	// are backfilled first, in commit order).
	if err := s.attachProvenance(rec, world.DB()); err != nil {
		s.dropRun(id)
		abort(http.StatusInternalServerError, "provenance chain: %v", err)
		return
	}

	s.launch(ctx, rec, opts)
	writeJSON(w, http.StatusCreated, rec.view())
}

// materialize is the one path from a scenario document to a runnable
// world, shared by submission and boot-time resume: decode, build the
// declared world (schema, tools, imports, flow) against the shared
// datastore, and derive the per-run overrides that execute it on the
// shared engine. It also returns the run's display name.
func (s *Server) materialize(doc []byte) (*harness.World, string, *exec.RunOptions, error) {
	sc, err := scenario.Decode(doc)
	if err != nil {
		return nil, "", nil, err
	}
	m, err := harness.Materialize(sc, s.store)
	if err != nil {
		return nil, "", nil, err
	}
	opts := &exec.RunOptions{Schema: m.Schema(), Registry: m.Registry(), DB: m.DB()}
	applyRunSpec(sc, opts)
	// A result cache is keyed by content-addressed derivation alone,
	// which is sound only within one tool semantics. Every scenario
	// declares its own — the same tool type and bytes may be failing or
	// fault-instrumented here and clean elsewhere — so each run gets a
	// private cache.
	opts.Memo = memo.New(0)
	return m, "scenario:" + sc.Name, opts, nil
}

// applyRunSpec carries a submitted scenario's run stanza — failure
// policy, retry budget, per-task timeout, fan-out cap — onto the run's
// options, with the same semantics as the conformance harness. Worker
// and scheduler sweeps stay harness-side: the service runs everything
// on its one shared pool.
func applyRunSpec(sc *scenario.Scenario, o *exec.RunOptions) {
	o.MaxCombos = sc.Run.MaxCombos
	if sc.Run.Policy == "continue" {
		p := exec.ContinueOnError
		o.Policy = &p
	}
	if r := sc.Run.Retry; r != nil {
		o.Retry = &exec.RetryPolicy{
			MaxAttempts: r.Attempts,
			BaseDelay:   time.Duration(r.BaseMicros) * time.Microsecond,
			Seed:        r.Seed,
		}
	}
	if sc.Run.TimeoutMs > 0 {
		d := time.Duration(sc.Run.TimeoutMs) * time.Millisecond
		o.TaskTimeout = &d
	}
}

// dropRun removes a registered run that failed before launch.
func (s *Server) dropRun(id string) {
	s.mu.Lock()
	delete(s.runs, id)
	s.mu.Unlock()
}

// launch starts the run goroutine: execute the world's flow (or the
// sub-flow rooted at its target), settle the record's terminal state,
// then release the event log, the WAL, the world and the done channel
// — the same exit path for fresh and resumed runs. The provenance chain
// is synced (durability barrier) but stays open for post-run
// verification.
func (s *Server) launch(ctx context.Context, rec *runRecord, opts *exec.RunOptions) {
	opts.User = rec.user
	opts.Label = rec.id
	opts.Tracer = trace.Multi(rec.log, s.metrics)
	opts.WAL = rec.wal
	go func() {
		var res *exec.Result
		var err error
		if target := rec.world.Target(); target != 0 {
			res, err = s.engine.RunNodeOptions(ctx, rec.world.Flow(), target, opts)
		} else {
			res, err = s.engine.RunFlowOptions(ctx, rec.world.Flow(), opts)
		}
		if rec.chain != nil {
			if cerr := rec.chain.Sync(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if rec.wal != nil {
			if werr := rec.wal.Close(); werr != nil && err == nil {
				err = werr
			}
			_ = rec.walLog.Close()
		}
		rec.world.Close()
		rec.mu.Lock()
		rec.res, rec.err = res, err
		rec.elapsed = time.Since(rec.started)
		switch {
		case err == nil:
			rec.state = stateSucceeded
		case errors.Is(err, context.Canceled):
			rec.state = stateCancelled
		default:
			rec.state = stateFailed
		}
		rec.mu.Unlock()
		rec.log.close()
		close(rec.done)
	}()
}

func (s *Server) engineBounds() (maxRuns, maxQueue int) {
	maxRuns, maxQueue = s.cfg.MaxRuns, s.cfg.MaxQueue
	if maxRuns <= 0 {
		maxRuns = exec.DefaultMaxConcurrentRuns
	}
	if maxQueue < 0 {
		maxQueue = exec.DefaultMaxQueuedRuns
	}
	return maxRuns, maxQueue
}

func (s *Server) record(id string) *runRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recs := make([]*runRecord, 0, len(s.runs))
	for _, rec := range s.runs {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	views := make([]runView, len(recs))
	for i, rec := range recs {
		views[i] = rec.view()
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec.view())
}

// handleTrace streams the run's masked JSONL trace, following until the
// run reaches a terminal state (a finished run's trace returns
// immediately and completely).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		ev, ok := rec.log.next(i)
		if !ok {
			return
		}
		if err := enc.Encode(trace.Mask(ev)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	rec.cancel()
	<-rec.done
	writeJSON(w, http.StatusOK, rec.view())
}
