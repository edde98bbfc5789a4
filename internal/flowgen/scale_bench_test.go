package flowgen

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/memo"
)

// The BenchmarkScale* family is the `go test` face of the scale bench
// (flowbench's scale section is the reporting face): plan building,
// end-to-end dispatch and warm-memo re-execution over the 10k-cell
// layered graph — 20k flow nodes. CI runs them with -benchtime=1x as a
// smoke check; locally they drive the profiler (-cpuprofile).

const benchCells = 10_000

func benchSpec() Spec { return Spec{Cells: benchCells, Shape: Layered, Seed: 1993} }

// BenchmarkScaleGenerate10k measures graph synthesis alone.
func BenchmarkScaleGenerate10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(benchSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleBuild10k measures world + flow construction: schema,
// history, tool import, node creation and edge wiring.
func BenchmarkScaleBuild10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build(benchSpec()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalePlan10k measures plan building in isolation —
// validation, executability, grouping, combo enumeration and
// instance-ID pre-assignment — via Engine.DryPlan.
func BenchmarkScalePlan10k(b *testing.B) {
	bench, err := Build(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	eng := exec.New(bench.Schema, bench.DB, bench.Store, bench.Reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.DryPlan(bench.Flow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleDispatch10k measures a full run — plan, dispatch,
// execute, commit — on a fresh world each iteration, 8 workers, under
// two contexts: background, as hercules and flowbench run, where no
// attempt can be cut off, and cancellable, as flowd runs every
// submission, where each attempt arms an AfterFunc on it.
func BenchmarkScaleDispatch10k(b *testing.B) {
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{{"background", context.Background()}, {"cancellable", cancellable}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bench, err := Build(benchSpec())
				if err != nil {
					b.Fatal(err)
				}
				eng := exec.New(bench.Schema, bench.DB, bench.Store, bench.Reg)
				eng.SetWorkers(8)
				b.StartTimer()
				res, err := eng.RunFlowOptions(bc.ctx, bench.Flow, nil)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.TasksRun != benchCells {
					b.Fatalf("ran %d tasks, want %d", res.TasksRun, benchCells)
				}
				b.ReportMetric(float64(res.Finished.Units)/res.Elapsed.Seconds(), "units/s")
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleWarmMemo10k measures re-execution against a warm
// result cache: every unit served by derivation key, no tool runs.
func BenchmarkScaleWarmMemo10k(b *testing.B) {
	bench, err := Build(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	eng := exec.New(bench.Schema, bench.DB, bench.Store, bench.Reg)
	eng.SetWorkers(8)
	cache := memo.New(0)
	cached := &exec.RunOptions{Memo: cache}
	if _, err := eng.RunFlowOptions(context.Background(), bench.Flow, cached); err != nil { // cold fill
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := cache.Stats().Hits
		res, err := eng.RunFlowOptions(context.Background(), bench.Flow, cached)
		if err != nil {
			b.Fatal(err)
		}
		if hits = cache.Stats().Hits - hits; hits != int64(res.Finished.Units) {
			b.Fatalf("warm run executed %d units", int64(res.Finished.Units)-hits)
		}
	}
}
