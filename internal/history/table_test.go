package history_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/flowgen"
	"repro/internal/history"
)

// BenchmarkArtifactInfoDuringCommit measures point reads of the
// instance table from parallel readers while one writer records and
// annotates: the engine's pattern, where every worker resolves its
// unit's inputs through ArtifactInfo while the committer records.
func BenchmarkArtifactInfoDuringCommit(b *testing.B) {
	_, w, cells := populate(b)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i < 50_000 {
				if _, err := w.DB.RecordID(history.Instance{Type: "GenTool"}); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			if err := w.DB.Annotate(cells[i%len(cells)], "n", ""); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, _, _, ok := w.DB.ArtifactInfo(cells[i%len(cells)]); !ok {
				b.Errorf("%s missing", cells[i%len(cells)])
				return
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// TestDBConcurrentReadsDuringCommit runs the lock-free point readers
// and the locked chaining queries against one writer that records
// tools and cells with inputs, retires sequence numbers and annotates.
// Every reader asks for IDs in and beyond the committed range, holes
// included, and must see either nothing or a complete instance with
// the ID it asked for. Run it under -race.
func TestDBConcurrentReadsDuringCommit(t *testing.T) {
	db := history.NewDB(flowgen.Schema())
	const rounds = 1500
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prev history.ID
		for i := 0; i < rounds; i++ {
			tool, err := db.RecordID(history.Instance{Type: "GenTool", User: "w", Data: "d"})
			if err != nil {
				t.Error(err)
				return
			}
			rec := history.Instance{Type: "Cell", User: "w", Data: "d", Tool: tool}
			if prev != "" {
				rec.Inputs = []history.Input{{Key: "Cell/in1", Inst: prev}, {Key: "Cell/in2", Inst: prev}}
			}
			cell, err := db.RecordID(rec)
			if err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				db.ReserveSeq(3)
			}
			if prev != "" {
				if err := db.Annotate(prev, "n", "c"); err != nil {
					t.Error(err)
					return
				}
			}
			prev = cell
		}
	}()

	complete := func(id history.ID, in *history.Instance) bool {
		typ, _, _ := strings.Cut(string(id), ":")
		return in.ID == id && in.Type == typ && in.User == "w" && in.Data == "d" &&
			!in.Created.IsZero() && (typ == "GenTool") == (in.Tool == "")
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-done:
					if pass > 0 {
						return
					}
				default:
				}
				for seq := 1; seq < rounds*3+10; seq += 1 + r {
					for _, typ := range []string{"GenTool", "Cell"} {
						id := history.MakeID(typ, seq)
						if in := db.Get(id); in != nil && !complete(id, in) {
							t.Errorf("Get(%s) = %+v", id, in)
							return
						}
						if got, ok := db.TypeOf(id); ok && got != typ {
							t.Errorf("TypeOf(%s) = %s", id, got)
						}
						has := db.Has(id)
						if got, data, _, _, ok := db.ArtifactInfo(id); ok && (got != typ || data != "d") {
							t.Errorf("ArtifactInfo(%s) = %s, %s", id, got, data)
						}
						if !has {
							continue
						}
						for _, d := range db.DirectDependents(id) {
							if !strings.HasPrefix(string(d), "Cell:") {
								t.Errorf("DirectDependents(%s) lists %s", id, d)
							}
						}
						for _, chain := range []func(history.ID, int) (*history.Derivation, error){db.Backchain, db.Forwardchain} {
							d, err := chain(id, 2)
							if err != nil || d.Root != id || d.Nodes[0] != id {
								t.Errorf("chaining %s: %v, %+v", id, err, d)
							}
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := db.Len(), 2*rounds; got != want {
		t.Fatalf("db holds %d instances, want %d", got, want)
	}
}
