// Package service exposes the multi-run execution engine as an
// HTTP/JSON flow service — the paper's flow manager as a long-lived
// daemon supervising many designers' flows at once. A submission is a
// declarative scenario (internal/scenario): its schema, tools, imports
// and flow are materialized server-side into a world of its own (own
// history database and content-addressed datastore, both freed with
// the world when the run ends) and executed on the one shared engine
// and worker pool, with its own streamed trace.
//
// Endpoints:
//
//	GET  /healthz              liveness
//	POST /v1/runs              submit {"scenario": {...}, "user": name}
//	                           (body at most 1 MiB, unknown fields 400);
//	                           answers with the run as accepted, so its
//	                           state is "running"
//	GET  /v1/runs              list runs
//	GET  /v1/runs/{id}         one run's status
//	GET  /v1/runs/{id}/trace   masked JSONL event stream (follows until
//	                           the run finishes)
//	GET  /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N&verify=1
//	                           chaining over the run's derivation graph;
//	                           verify=1 replays its WAL (provenance.go)
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

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/history"
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
	// MaxQueue bounds runs queued behind the bound. Zero means no
	// queue: a submission beyond MaxRuns is refused at once. A negative
	// value selects exec.DefaultMaxQueuedRuns (flowd's -queue -1).
	MaxQueue int
	// DataDir, when set, makes runs durable: every submission writes one
	// write-ahead log, its only record, under <DataDir>/runs and New
	// recovers whatever it finds there — finished runs come back with
	// their status and trace, interrupted runs are re-materialized from
	// their logged scenario and resumed from their last committed unit.
	// A run's artifacts live in its world's datastore and go with it.
	// Empty = in-memory only.
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

// runRecord is the server-side state of one submission. The run's
// world is held by its goroutine alone, so a finished run keeps only
// what later requests read: the view fields, the event log and the
// world database's derivation graph.
type runRecord struct {
	id       string
	flowName string
	user     string
	log      *eventLog
	cancel   context.CancelFunc
	done     chan struct{}
	// wal/walLog are set on durable runs while they execute: the run's
	// write-ahead log and the file beneath it, both closed and dropped by
	// the run goroutine at the end.
	wal    *storage.RunWAL
	walLog storage.Log
	// logPath is the run's WAL under the data dir; empty in memory.
	logPath string
	// prov is the derivation graph of the run's world database, which
	// the provenance endpoint queries; the world itself is dropped when
	// the run ends. A run recovered as finished gets it, or provErr, from
	// a replay (graph).
	prov    *history.Graph
	provErr error
	replay  sync.Once

	mu       sync.Mutex
	state    runState
	tasksRun int
	err      error
	started  time.Time
	elapsed  time.Duration
}

// Server is the flow service: an http.Handler plus the shared engine
// behind it.
type Server struct {
	cfg     Config
	engine  *exec.Engine
	metrics *trace.Metrics
	mux     *http.ServeMux
	dataDir string // durable root; empty = in-memory only

	mu       sync.Mutex
	seq      int
	runs     map[string]*runRecord
	draining bool // Shutdown in progress: submissions get 503
}

// New assembles a server around one engine. With Config.DataDir set it
// also recovers every run log found there before returning, so the
// server comes up with its pre-crash runs queryable (finished) or
// running again (interrupted).
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	// The engine carries no schema, registry, database or datastore of
	// its own: every run brings its world's through exec.RunOptions.
	engine := exec.New(nil, nil, nil, nil)
	engine.SetWorkers(cfg.Workers)
	if cfg.MaxRuns > 0 {
		engine.SetMaxConcurrentRuns(cfg.MaxRuns)
	}
	if cfg.MaxQueue >= 0 {
		engine.SetMaxQueuedRuns(cfg.MaxQueue)
	}
	s := &Server{
		cfg:     cfg,
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
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (rec *runRecord) view() runView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := runView{ID: rec.id, Flow: rec.flowName, User: rec.user, State: string(rec.state), TasksRun: rec.tasksRun}
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

	world, flowName, opts, err := materialize(doc.Bytes())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "scenario: %v", err)
		return
	}
	accepted, err := s.start(world, flowName, opts, req.User, doc.Bytes())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errDraining) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, accepted)
}

// errDraining refuses a submission once Shutdown has begun.
var errDraining = errors.New("server is draining")

// start registers and launches a submission's run over its
// materialized world. In durable mode the run's WAL is opened first and
// its identity record — scenario included — made stable, so a run is
// acknowledged only once it can be recovered. It returns the run as
// accepted: the view is taken before the launch, so its state is
// running however soon the run finishes. On failure everything
// acquired, the world included, is released.
func (s *Server) start(world *harness.World, flowName string, opts *exec.RunOptions, user string, doc []byte) (runView, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		world.Close()
		return runView{}, errDraining
	}
	s.seq++
	id := fmt.Sprintf("r-%04d", s.seq)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: flowName, user: user,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, started: time.Now()}
	// abort releases everything acquired for a run that never launches.
	abort := func(err error) (runView, error) {
		cancel()
		s.discardRunWAL(rec, err)
		world.Close()
		return runView{}, err
	}
	if s.dataDir != "" {
		if err := s.openRunWAL(rec, doc); err != nil {
			return abort(fmt.Errorf("run log: %w", err))
		}
	}
	// The provenance endpoint queries the world database's derivation
	// graph, which outlives the world.
	rec.prov = world.DB().Graph()

	s.mu.Lock()
	if s.draining { // drain began while the WAL was being created
		s.mu.Unlock()
		return abort(errDraining)
	}
	s.runs[id] = rec
	s.mu.Unlock()
	accepted := rec.view()
	s.launch(ctx, rec, world, opts)
	return accepted, nil
}

// materialize is the one path from a scenario document to a runnable
// world, shared by submission, boot-time resume and ReplayLog: decode,
// build the declared world (schema, tools, imports, flow) over a
// datastore of its own, and derive the per-run overrides that execute
// it on an engine, run stanza included. Worker sweeps stay
// harness-side: the service runs everything on its one shared pool. It
// also returns the run's display name.
func materialize(doc []byte) (*harness.World, string, *exec.RunOptions, error) {
	sc, err := scenario.Decode(doc)
	if err != nil {
		return nil, "", nil, err
	}
	m, err := harness.Materialize(sc, nil)
	if err != nil {
		return nil, "", nil, err
	}
	// No result cache: one keyed by content-addressed derivation alone
	// is sound only within one tool semantics, and every scenario
	// declares its own, so a cache could serve only the run that filled
	// it. The goldens a run's trace must equal are recorded without one.
	return m, "scenario:" + sc.Name, m.RunOptions(), nil
}

// launch starts the run goroutine: execute the world's flow (or the
// sub-flow rooted at its target), release the WAL — logging the error
// of a run that ended before planning, so no boot resumes it — and the
// world, settle the record's terminal state, then close the event log
// and the done channel — the same exit path for fresh and resumed
// runs. Only the goroutine holds the world — its history database and
// datastore included — so it is garbage once the run ends.
func (s *Server) launch(ctx context.Context, rec *runRecord, world *harness.World, opts *exec.RunOptions) {
	opts.User = rec.user
	opts.Label = rec.id
	opts.Tracer = trace.Multi(rec.log, s.metrics)
	opts.WAL = rec.wal
	go func() {
		res, err := world.Run(ctx, s.engine, opts)
		if rec.wal != nil {
			if res == nil || res.Stats == nil { // no PlanBuilt: err is set
				rec.wal.AppendError(err.Error())
			}
			if werr := rec.wal.Close(); werr != nil && err == nil {
				err = werr
			}
			_ = rec.walLog.Close()
			rec.wal, rec.walLog = nil, nil // nothing reads them after launch
		}
		world.Close()
		rec.mu.Lock()
		if res != nil {
			rec.tasksRun = res.TasksRun
		}
		rec.err = err
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
// immediately and completely). Each pass writes every line emitted
// since the last one in one Write and one Flush.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	for off := 0; ; {
		batch, ok := rec.log.next(off)
		if !ok {
			return
		}
		if _, err := w.Write(batch); err != nil {
			return
		}
		off += len(batch)
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
