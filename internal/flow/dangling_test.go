package flow

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/schema"
)

// The flow operations can never leave a dependency edge pointing at a
// removed node (gc only collects unparented nodes), but hand-assembled
// or corrupted graphs can. The analyses must return a clear "dangling"
// error, never panic. These tests corrupt a flow directly — same
// package, so we can reach the unexported node table and dependency
// slices the way a buggy caller or a tampered persistence file
// effectively would.

// rewire points the filled dependency key of n at child, copying the
// slices as every edge mutation does.
func rewire(t *testing.T, n *Node, key string, child NodeID) {
	t.Helper()
	i := slices.Index(n.depKeys, key)
	if i < 0 {
		t.Fatalf("node %d has no %q edge to rewire", n.ID, key)
	}
	n.depIDs = slices.Clone(n.depIDs)
	n.depIDs[i] = child
}

// unwire drops the filled dependency key of n.
func unwire(t *testing.T, n *Node, key string) {
	t.Helper()
	i := slices.Index(n.depKeys, key)
	if i < 0 {
		t.Fatalf("node %d has no %q edge to drop", n.ID, key)
	}
	n.depKeys = slices.Delete(slices.Clone(n.depKeys), i, i+1)
	n.depIDs = slices.Delete(slices.Clone(n.depIDs), i, i+1)
}

// corruptDangling removes the fd child of the given node from the flow
// while leaving the parent's dependency edge in place.
func corruptDangling(t *testing.T, f *Flow, parent NodeID) NodeID {
	t.Helper()
	child, ok := f.Node(parent).Dep("fd")
	if !ok {
		t.Fatalf("node %d has no fd edge to corrupt", parent)
	}
	f.nodes[child] = nil
	for i, id := range f.order {
		if id == child {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	return child
}

func danglingFixture(t *testing.T) (*Flow, NodeID) {
	t.Helper()
	s := schema.Full()
	f := New(s, nil)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	return f, n
}

func TestDanglingDependencyValidate(t *testing.T) {
	f, n := danglingFixture(t)
	if err := f.Validate(); err != nil {
		t.Fatalf("fixture invalid before corruption: %v", err)
	}
	corruptDangling(t, f, n)
	err := f.Validate()
	if err == nil {
		t.Fatal("Validate accepted a dangling dependency")
	}
	if !strings.Contains(err.Error(), "missing node") && !strings.Contains(err.Error(), "dangling") {
		t.Errorf("Validate error lacks dangling context: %v", err)
	}
}

func TestDanglingDependencyAnalyses(t *testing.T) {
	f, n := danglingFixture(t)
	corruptDangling(t, f, n)
	if _, err := f.Order(); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("Order() = %v, want dangling error", err)
	}
	if _, err := f.Levels(); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Errorf("Levels() = %v, want dangling error", err)
	}
}
