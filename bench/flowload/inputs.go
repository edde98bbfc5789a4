package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/scenario"
)

// The four workloads, in the order a full invocation runs them.
const (
	bigflow      = "bigflow"
	durable      = "durable"
	corpusMix    = "corpus-mix"
	historyQuery = "history-query"
)

var workloadNames = []string{bigflow, durable, corpusMix, historyQuery}

// defaultCorpus holds the pinned corpus-mix scenarios, relative to the
// repository root. They are copies, so later edits to the repository's
// own corpus cannot silently change the workload.
const defaultCorpus = "bench/flowload/testdata/corpus-mix"

// sizes is the fixed amount of work of one repetition. Every repetition
// of a workload does the same work in a fresh process: flowd retains
// every finished run, so per-run cost grows with the work already done
// and a duration-bounded repetition would measure a moving target.
type sizes struct {
	bigRuns, bigCells int // bigflow and durable: generated layered worlds
	mixPerClient      int // corpus-mix submissions per client
	hqCells           int // history-query: the primed chain world
	hqQueries         int // history-query: client A's provenance queries
	hqWriterCells     int // history-query: client B's layered worlds
	samedbRuns        int // layer pass: concurrent runs over one DB
	samedbCells       int
	probeQueries      int // layer pass: HTTP vs direct provenance queries
}

// sizesFor scales the full-size repetition; scale 0.01 is the smoke
// test's 1% run.
func sizesFor(scale float64) sizes {
	n := func(full, min int) int {
		v := int(math.Round(float64(full) * scale))
		if v < min {
			v = min
		}
		return v
	}
	return sizes{
		bigRuns:       n(16, 1),
		bigCells:      n(2000, 20),
		mixPerClient:  n(600, 6),
		hqCells:       n(20000, 200),
		hqQueries:     n(8000, 80),
		hqWriterCells: n(1000, 10),
		samedbRuns:    n(64, 2),
		samedbCells:   n(100, 10),
		probeQueries:  n(2000, 20),
	}
}

// layerReps is how many times the layer pass repeats each measurement;
// it reports the median.
const layerReps = 5

// expectation is what a submission's outcome must be: its terminal
// state, an error substring when it must fail, and its committed task
// count (-1 when the scenario does not pin one).
type expectation struct {
	state  string
	errSub string
	tasks  int
}

// expectOf derives the HTTP-checkable part of a scenario's expect block.
func expectOf(sc *scenario.Scenario) expectation {
	e := expectation{state: "succeeded", tasks: -1}
	if sc.Expect.Error != "" {
		e.state, e.errSub = "failed", sc.Expect.Error
	}
	if sc.Expect.TasksRun != nil {
		e.tasks = *sc.Expect.TasksRun
	}
	if sc.Generate != nil && e.tasks < 0 {
		e.tasks = sc.Generate.Cells // one unit per generated cell
	}
	return e
}

// input is one submission: the scenario, its request body and the
// outcome it must reach.
type input struct {
	name string
	raw  []byte // the scenario document
	body []byte // the POST /v1/runs body
	sc   *scenario.Scenario
	exp  expectation
}

func newInput(raw []byte) (input, error) {
	sc, err := scenario.Decode(raw)
	if err != nil {
		return input{}, err
	}
	body, err := json.Marshal(map[string]json.RawMessage{
		"scenario": raw,
		"user":     json.RawMessage(`"flowload"`),
	})
	if err != nil {
		return input{}, err
	}
	return input{name: sc.Name, raw: raw, body: body, sc: sc, exp: expectOf(sc)}, nil
}

// generated is a flowgen world as a scenario submission.
func generated(cells int, shape string, seed int64) input {
	raw := fmt.Sprintf(`{"name":"gen-%s-%d","generate":{"cells":%d,"shape":%q,"seed":%d}}`,
		shape, seed, cells, shape, seed)
	in, err := newInput([]byte(raw))
	if err != nil {
		panic(fmt.Sprintf("flowload: generated scenario rejected: %v", err)) // a bug in the line above
	}
	return in
}

// The seeds of every generated world derive from the run's seed s and
// the repetition: world i of repetition r is seed s + r*stride + i, so
// repetitions never repeat a world and the same s gives the same worlds.
const repStride = 100000

func bigflowInputs(s int64, rep int, z sizes) []input {
	out := make([]input, z.bigRuns)
	for i := range out {
		out[i] = generated(z.bigCells, "layered", s+int64(rep)*repStride+int64(i))
	}
	return out
}

// historyWorld is the chain world history-query primes and queries.
func historyWorld(s int64, rep int, z sizes) input {
	return generated(z.hqCells, "chain", s+int64(rep)*repStride)
}

// writerInput is client B's i-th history-query submission.
func writerInput(s int64, rep, i int, z sizes) input {
	return generated(z.hqWriterCells, "layered", s+int64(rep)*repStride+50000+int64(i))
}

// loadCorpus reads the pinned corpus-mix scenarios, sorted by file name,
// with the SHA-256 of each file keyed by its path.
func loadCorpus(dir string) ([]input, map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no corpus-mix scenarios under %s", dir)
	}
	sort.Strings(paths)
	ins := make([]input, 0, len(paths))
	sums := make(map[string]string, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		in, err := newInput(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		ins = append(ins, in)
		sum := sha256.Sum256(raw)
		sums[filepath.ToSlash(p)] = hex.EncodeToString(sum[:])
	}
	return ins, sums, nil
}

// query is one provenance request.
type query struct {
	inst  string
	dir   string // "back" or "fwd"
	depth int
}

// drawQueries draws n queries over the given instances: a uniform
// instance, direction back or fwd, depth 1, 8 or 64.
func drawQueries(rng *rand.Rand, insts []string, n int) []query {
	depths := []int{1, 8, 64}
	out := make([]query, n)
	for i := range out {
		q := query{inst: insts[rng.Intn(len(insts))], dir: "back", depth: depths[rng.Intn(len(depths))]}
		if rng.Intn(2) == 1 {
			q.dir = "fwd"
		}
		out[i] = q
	}
	return out
}
