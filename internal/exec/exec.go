// Package exec is the task-execution engine of the flow manager: it
// turns a dynamically defined flow (package flow) into tool runs
// (package encap), records every created object in the design history
// (package history) and its artifact in the datastore, and implements
// the framework services of §3.3:
//
//   - automatic task sequencing from the dependencies in the task graph,
//     via a dependency-counting dataflow scheduler (see sched.go): a job
//     dispatches the moment its producers finish, with no barrier
//     between dependency levels;
//   - parallel execution of independent work, as on the "different
//     machines" of Fig. 6 (a worker pool with optional simulated
//     per-task dispatch latency);
//   - fan-out over multi-instance bindings (§4.1: selecting a set of
//     instances causes the task to be run for each combination);
//   - multi-output tasks: sibling nodes sharing one construction are
//     computed by a single tool run (Fig. 5);
//   - composite entities with their implicit compose function and
//     consistency checks;
//   - automatic retracing of stale derivations (consistency
//     maintenance), each retrace run as a flow on the same path.
//
// One long-lived Engine executes many flows concurrently. A run is
// configured by its RunOptions alone: at admission they are resolved
// into a per-run context (the run type), the run executes over the
// engine's shared, bounded worker pool, and it commits to its own
// history database. Admission control bounds how many runs are in
// flight (see pool.go); runs that share one history database serialize
// on it, because the determinism contract pins commit order per
// database.
//
// Execution is observable through one path, the run's event stream
// (package trace): every unit event carries its wall times, and a run
// that executes ends with a RunFinished event — worker count, busy time,
// scheduling span, measured critical path, failed units and skipped
// jobs — which Result.Finished returns whether the run is traced or
// not. trace.Metrics folds the stream into counters and histograms.
// A durable run logs that stream (RunOptions.WAL); a resume checks each
// logged unit's event and chain digest against the replan (durable.go).
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
)

// DefaultMaxCombos bounds the cartesian product a single node's
// multi-instance bindings may fan out into (RunOptions.MaxCombos
// overrides it). Generous — real flows fan out into dozens of combos,
// not tens of thousands — but finite, so an adversarial binding fails
// with a clear error instead of exhausting memory.
const DefaultMaxCombos = 100_000

// runConfig is the complete configuration of one run: its RunOptions
// resolved over the world passed to New and the defaults (see config).
// It is built at admission and never changes while the run lives.
type runConfig struct {
	schema      *schema.Schema
	reg         *encap.Registry
	db          *history.DB
	store       *datastore.Store
	archives    func(name string, rev int) (string, error)
	user        string
	label       string
	maxCombos   int
	taskDelay   func(node flow.NodeID, goal string) time.Duration
	retry       RetryPolicy
	policy      FailurePolicy
	taskTimeout time.Duration
	tracer      trace.Sink
	memo        *memo.Cache
	wal         *storage.RunWAL
	resume      *storage.Recovered
}

// Engine executes flows. A single long-lived Engine serves many
// concurrent runs over a shared, bounded worker pool. It holds only
// that pool, its admission bounds and the world passed to New; all else
// about a run — its user, tracer, result cache, retry and failure
// policy, timeouts and delays, and when it brings its own, its schema,
// registry, database and datastore — is passed in that run's
// RunOptions, so no run's configuration reaches another.
//
// Runs that commit to the same history database are serialized on it:
// the planner pre-assigns instance IDs from the database's sequence
// counter, so only one run at a time may hold a database's commit
// window. Give each run its own database (RunOptions.DB) for true
// concurrency; the content-addressed datastore and the result cache
// are safe to share.
type Engine struct {
	// The world passed to New, used where a run's options name none.
	schema *schema.Schema
	reg    *encap.Registry
	db     *history.DB
	store  *datastore.Store

	// mu guards the pool and the admission state below.
	mu       sync.Mutex
	workers  int
	maxRuns  int
	maxQueue int
	pool     *pool
	active   int
	waiters  []chan struct{}

	// dbMu guards dbLocks, the per-database commit locks.
	dbMu    sync.Mutex
	dbLocks map[*history.DB]*dbLock
}

// New creates an engine over a world: the schema, history database,
// datastore and registry a run uses unless its RunOptions name its
// own. workers defaults to 1 (fully serial); use SetWorkers to allow
// parallel branches.
func New(s *schema.Schema, db *history.DB, store *datastore.Store, reg *encap.Registry) *Engine {
	return &Engine{
		schema:   s,
		reg:      reg,
		db:       db,
		store:    store,
		workers:  1,
		maxRuns:  DefaultMaxConcurrentRuns,
		maxQueue: DefaultMaxQueuedRuns,
	}
}

// SetWorkers sets the size of the shared worker pool ("machines");
// values below 1 are treated as 1. The pool is resized lazily: the
// next run admitted while no other run is in flight swaps it.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.workers = n
	e.mu.Unlock()
}

// RunOptions configure one run; they are the only run configuration,
// and the engine keeps none of them once the run ends. Nil and zero
// fields take the world passed to New (Schema, Registry, DB, Store) or
// the default: user "designer", DefaultMaxCombos, one attempt per unit,
// FailFast, no timeout, no delay, no tracer, no result cache. The usual
// multi-tenant arrangement gives each run its own history database (so
// commit windows never contend) while sharing a datastore and result
// cache, which are content-addressed and safe to share.
type RunOptions struct {
	// Schema is the task schema the run plans and validates against.
	// Overriding it (with Registry and DB) lets one long-lived engine
	// execute flows from methodologies it was not built with — the
	// service runs declarative scenarios this way.
	Schema *schema.Schema
	// Registry supplies the run's tool encapsulations.
	Registry *encap.Registry
	// DB is the history database the run plans against and commits to.
	DB *history.DB
	// Store is the artifact store of the run.
	Store *datastore.Store
	// Archives checks out archive-backed instances (footnote 5:
	// instances whose artifact lives at a revision of a shared archive
	// rather than as a blob). Without it such an instance cannot be read.
	Archives func(name string, rev int) (string, error)
	// User is recorded on created instances.
	User string
	// Label tags every trace event of the run (Event.Run), so streams
	// from concurrent runs sharing one sink stay attributable.
	Label string
	// Tracer receives the run's events (see internal/trace).
	Tracer trace.Sink
	// Memo is the derivation-keyed result cache to consult and feed.
	Memo *memo.Cache
	// WAL is the run's write-ahead log writer: every trace event is
	// appended to it, with UnitCommitted events additionally carrying
	// the unit's durable payload (artifacts + derivation key), and the
	// run forces a durability barrier before returning. PlanBuilt and
	// every UnitCommitted also log the run's provenance-chain head. The
	// caller owns the WAL (and its underlying log) and closes it after
	// the run.
	WAL *storage.RunWAL
	// Resume carries a recovered WAL prefix (see storage.RecoverRun):
	// before dispatching anything the run replays the committed units
	// through the normal commit step — re-recording history, datastore
	// and memo without re-running tools — checking each unit's logged
	// UnitCommitted event against the replan and its logged chain
	// digest, then executes only the rest, with event Seq continuing
	// where the prefix ends. A log without chain digests is refused. A
	// finished log replays whole and runs nothing.
	Resume *storage.Recovered
	// Retry is the per-unit retry policy (nil: one attempt).
	Retry *RetryPolicy
	// Policy is the failure policy (nil: FailFast).
	Policy *FailurePolicy
	// TaskTimeout bounds every unit attempt: an attempt still running
	// when it expires is cut off with context.DeadlineExceeded (and,
	// under the default classification, not retried). Nil or 0
	// disables it.
	TaskTimeout *time.Duration
	// TaskDelay, when set, returns a simulated dispatch latency slept
	// before each tool run, keyed by the job's representative node and
	// goal type — the stand-in for remote-machine tool startup used to
	// demonstrate Fig. 6, uniform or unbalanced.
	TaskDelay func(node flow.NodeID, goal string) time.Duration
	// MaxCombos caps the cartesian product of input combinations a
	// single node may fan out into (§4.1 multi-instance bindings) when
	// positive; a run exceeding it fails with a clear error instead of
	// exhausting memory.
	MaxCombos int
}

// config resolves one run's configuration: o over the world passed to
// New and the defaults (see RunOptions). A nil o is all defaults.
func (e *Engine) config(o *RunOptions) runConfig {
	c := runConfig{schema: e.schema, reg: e.reg, db: e.db, store: e.store, user: "designer", maxCombos: DefaultMaxCombos}
	if o == nil {
		return c
	}
	if o.Schema != nil {
		c.schema = o.Schema
	}
	if o.Registry != nil {
		c.reg = o.Registry
	}
	if o.DB != nil {
		c.db = o.DB
	}
	if o.Store != nil {
		c.store = o.Store
	}
	if o.User != "" {
		c.user = o.User
	}
	if o.MaxCombos > 0 {
		c.maxCombos = o.MaxCombos
	}
	if o.Retry != nil {
		c.retry = *o.Retry
	}
	if o.Policy != nil {
		c.policy = *o.Policy
	}
	if o.TaskTimeout != nil {
		c.taskTimeout = *o.TaskTimeout
	}
	c.archives, c.label, c.taskDelay = o.Archives, o.Label, o.TaskDelay
	c.tracer, c.memo, c.wal, c.resume = o.Tracer, o.Memo, o.WAL, o.Resume
	return c
}

// run is the per-run context: one flow execution's complete state — its
// immutable configuration, plan, pending-artifact set, result,
// and the channel its pool workers report completions on. Nothing here
// is shared between runs except the pool reference and whatever the
// configuration deliberately shares (datastore, result cache).
type run struct {
	e       *Engine
	cfg     runConfig
	pool    *pool
	workers int // pool size at admission (RunFinished's Workers is min of this and the unit count)

	f   *flow.Flow
	res *Result

	// Execution state, set by execute.
	ctx    context.Context
	pend   pendingSet
	doneCh chan unitResult
	chain  *provenance.Chain // durable or resumed runs: the head over the DB
}

// Result reports one flow run. On error the result is still returned:
// Elapsed is the time spent before failing, Created holds the bound
// instances plus everything committed before the failure, and Finished
// summarizes the partial schedule — the raw material for failure
// diagnostics and retracing.
type Result struct {
	// Created maps each executed node to the instances that realized it
	// (bound instances pass through unchanged).
	Created map[flow.NodeID][]history.ID
	// TasksRun counts tool executions (compositions included) whose
	// results were committed to history.
	TasksRun int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Skipped lists the nodes of constructions that never ran because a
	// producer failed (ContinueOnError graceful degradation), in plan
	// order. Empty on success and under FailFast.
	Skipped []flow.NodeID
	// Finished is the run's RunFinished event, the summary of how it was
	// scheduled, equal to the emitted one but for Seq and Run; set
	// whether or not the run is traced. It is nil when the run ended
	// before its RunFinished: before planning, on a refused resume, or
	// on the replay of a finished log.
	Finished *trace.Event
}

// InstancesOf returns the instances created for a node.
func (r *Result) InstancesOf(id flow.NodeID) []history.ID {
	return append([]history.ID(nil), r.Created[id]...)
}

// One returns the single instance created for a node, failing when the
// node fanned out to several or none.
func (r *Result) One(id flow.NodeID) (history.ID, error) {
	insts := r.Created[id]
	if len(insts) != 1 {
		return "", fmt.Errorf("exec: node %d produced %d instances, want 1", id, len(insts))
	}
	return insts[0], nil
}

// RunFlow executes every root of the flow (and hence every needed
// node) over the world passed to New with default options. On error
// the returned Result still carries partial state (see Result).
func (e *Engine) RunFlow(f *flow.Flow) (*Result, error) {
	return e.RunFlowOptions(context.Background(), f, nil)
}

// RunFlowOptions is RunFlow under a context with the run's options
// (see RunOptions). Cancelling ctx stops dispatching, cuts off
// well-behaved in-flight tools (Request.Ctx), and returns the partial
// Result with ctx's error joined in. Cancellation is per-run: other
// runs sharing the engine are unaffected.
func (e *Engine) RunFlowOptions(ctx context.Context, f *flow.Flow, opts *RunOptions) (*Result, error) {
	return e.runTargets(ctx, opts, func(*run) (*flow.Flow, []flow.NodeID, error) {
		return f, f.Roots(), nil
	})
}

// RunNodeOptions executes the sub-flow rooted at one node — §4.1's "a
// sub-flow may be run at any stage as long as its dependencies are
// satisfied independently of the remainder of the flow" — under a
// context with the run's options (see RunFlowOptions).
func (e *Engine) RunNodeOptions(ctx context.Context, f *flow.Flow, id flow.NodeID, opts *RunOptions) (*Result, error) {
	if f.Node(id) == nil {
		return nil, fmt.Errorf("exec: no node %d", id)
	}
	return e.runTargets(ctx, opts, func(*run) (*flow.Flow, []flow.NodeID, error) {
		return f, []flow.NodeID{id}, nil
	})
}

// DryPlan validates the flow and builds — then discards — the
// execution plan for its roots: no admission, no tool run, no commit.
// It returns the plan's job and unit counts. The planner reads the
// history database's sequence counter to pre-assign instance IDs but
// writes nothing, so a dry plan is safe at any time; benchmarks use it
// to measure planning cost in isolation from execution.
func (e *Engine) DryPlan(f *flow.Flow) (jobs, units int, err error) {
	order, err := f.Check()
	if err != nil {
		return 0, 0, err
	}
	targets := f.Roots()
	if ok, why := f.ExecutableAll(targets); !ok {
		return 0, 0, fmt.Errorf("exec: flow is not executable: %s", why)
	}
	r := &run{e: e, cfg: e.config(nil), f: f}
	p, err := r.plan(order, targets)
	if err != nil {
		return 0, 0, err
	}
	return len(p.jobs), p.units, nil
}

// runTargets is the engine's one execution path. It admits a run,
// takes the commit window of the run's history database, and only then
// asks build for the flow and the targets to run, so a build that reads
// the database (a retrace planning from its history) sees no other
// run's commits before its own. It plans and executes the targets; a
// nil flow from build means there is nothing to run.
func (e *Engine) runTargets(ctx context.Context, opts *RunOptions, build func(r *run) (*flow.Flow, []flow.NodeID, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := &Result{}
	fail := func(err error) (*Result, error) {
		res.Elapsed = time.Since(start)
		return res, err
	}
	r, err := e.beginRun(ctx, opts)
	if err != nil {
		return fail(err)
	}
	defer e.release()
	// One run at a time per history database: the plan below reads the
	// database's sequence counter and pre-assigns every instance ID, so
	// the run must own the commit window until its last job lands.
	unlock := e.lockDB(r.cfg.db)
	defer unlock()
	f, targets, err := build(r)
	if err != nil || f == nil {
		return fail(err)
	}
	r.f, r.res = f, res
	order, err := f.Check()
	if err != nil {
		return fail(err)
	}
	if ok, why := f.ExecutableAll(targets); !ok {
		return fail(fmt.Errorf("exec: flow is not executable: %s", why))
	}
	p, err := r.plan(order, targets)
	if err != nil {
		return fail(err)
	}
	nodes := len(p.bound)
	for _, j := range p.jobs {
		nodes += len(j.nodes)
	}
	res.Created = make(map[flow.NodeID][]history.ID, nodes)
	for id, insts := range p.bound {
		res.Created[id] = insts
	}
	if err := r.execute(ctx, p); err != nil {
		return fail(err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// artifactFromInfo fetches artifact bytes from their storage location
// (blob store ref, archive name+revision, or neither for artifact-less
// installed tools) without requiring a materialized Instance — the
// zero-copy path behind lookup/lookupRef, fed by db.ArtifactInfo.
// Store-backed reads alias the store's single physical copy (GetShared):
// the engine treats artifacts as immutable everywhere.
func (r *run) artifactFromInfo(id history.ID, data datastore.Ref, archive string, revision int) ([]byte, error) {
	if data != "" {
		b, ok := r.cfg.store.GetShared(data)
		if !ok {
			return nil, fmt.Errorf("exec: artifact %s of %s missing from datastore", data, id)
		}
		return b, nil
	}
	if archive != "" {
		if r.cfg.archives == nil {
			return nil, fmt.Errorf("exec: instance %s is archive-backed but no archive source is configured", id)
		}
		text, err := r.cfg.archives(archive, revision)
		if err != nil {
			return nil, fmt.Errorf("exec: checkout of %s: %w", id, err)
		}
		return []byte(text), nil
	}
	return nil, nil
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// executeCombo performs one tool run (or composition) for one input
// combination. Instances resolve through the run's lookup — the
// in-flight pending set for planned instances not yet committed, the
// database otherwise.
func (r *run) executeCombo(ctx context.Context, j *plannedJob, combo []history.ID) (encap.Outputs, error) {
	rep := r.f.Node(j.nodes[0])
	if r.cfg.taskDelay != nil {
		if d := r.cfg.taskDelay(j.nodes[0], rep.Type); d > 0 {
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
	}

	if j.composite {
		parts := make(map[string][]byte, len(combo))
		for i, inst := range combo {
			_, b, err := r.lookup(inst)
			if err != nil {
				return nil, err
			}
			parts[j.keys[i]] = b
		}
		if check := r.cfg.reg.Check(rep.Type); check != nil {
			if err := check(parts); err != nil {
				return nil, fmt.Errorf("exec: composite %s consistency check failed: %w", rep.Type, err)
			}
		}
		return encap.Outputs{rep.Type: encap.ComposeParts(parts)}, nil
	}

	if len(j.keys) == 0 || j.keys[0] != "fd" {
		return nil, fmt.Errorf("exec: task %s has no tool instance", rep.Type)
	}
	toolType, toolArt, err := r.lookup(combo[0])
	if err != nil {
		return nil, err
	}
	enc, err := r.cfg.reg.Lookup(r.cfg.schema, toolType)
	if err != nil {
		return nil, err
	}
	req := &encap.Request{
		Ctx:      ctx,
		Goal:     rep.Type,
		ToolType: toolType,
		Tool:     toolArt,
		Inputs:   make(map[string][]byte, len(combo)-1),
	}
	for i, inst := range combo[1:] {
		_, b, err := r.lookup(inst)
		if err != nil {
			return nil, err
		}
		req.Inputs[j.keys[1+i]] = b
	}
	out, err := enc.Run(req)
	if err != nil {
		return nil, fmt.Errorf("exec: %s via %s: %w", rep.Type, toolType, err)
	}
	return out, nil
}

// recordJob stores artifacts and records history instances for every
// (node, combo) of a completed job, verifying that each recorded ID
// matches the one the planner pre-assigned (the determinism guarantee).
func (r *run) recordJob(j *plannedJob) error {
	if j.memoKeys != nil {
		j.outRefs = make([]map[string]datastore.Ref, len(j.combos))
	}
	// The data keys follow the tool's "fd", already in ascending order.
	hasTool := len(j.keys) > 0 && j.keys[0] == "fd"
	dataKeys := j.keys
	if hasTool {
		dataKeys = dataKeys[1:]
	}
	if r.chain != nil && !j.resumed {
		j.digests = make([]string, len(j.combos))
	}
	for ci, combo := range j.combos {
		out := j.outputs[ci]
		var tool history.ID
		if hasTool {
			tool, combo = combo[0], combo[1:]
		}
		// The input list is identical for every grouped sibling: build it
		// once per combo.
		inputs := make([]history.Input, len(dataKeys))
		for i, k := range dataKeys {
			inputs[i] = history.Input{Key: k, Inst: combo[i]}
		}
		if j.outRefs != nil {
			j.outRefs[ci] = make(map[string]datastore.Ref, len(j.nodes))
		}
		for ni, id := range j.nodes {
			n := r.f.Node(id)
			data, ok := out[n.Type]
			if !ok {
				return fmt.Errorf("exec: tool run produced no %s output (has: %s)", n.Type, outputKeys(out))
			}
			rec := history.Instance{
				Type:   n.Type,
				User:   r.cfg.user,
				Data:   r.cfg.store.Put(data),
				Inputs: inputs,
				Tool:   tool,
			}
			if j.outRefs != nil {
				j.outRefs[ci][n.Type] = rec.Data
			}
			instID, err := r.cfg.db.RecordID(rec)
			if err != nil {
				return fmt.Errorf("exec: recording %s: %w", n.Type, err)
			}
			if want := j.outIDs[ni][ci]; instID != want {
				return fmt.Errorf("exec: nondeterministic recording: got %s, planned %s (history mutated during the run?)", instID, want)
			}
			// The node's committed prefix of its planned row, capped so
			// an append to the result cannot write into the plan.
			r.res.Created[id] = j.outIDs[ni][: ci+1 : ci+1]
		}
		if j.digests == nil {
			continue
		}
		head := r.chain.Head()
		if !j.resumed {
			j.digests[ci] = head
		} else if head != j.digests[ci] {
			return fmt.Errorf("exec: recovered unit %d (%s) does not match the chain digest its log records: the log was altered",
				j.unit+ci, j.outIDs[0][ci])
		}
	}
	return nil
}

func outputKeys(out encap.Outputs) string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
