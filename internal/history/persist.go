package history

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Persistence for the history database: the instance records are the
// whole state (every index is derived), so a dump is simply the
// instances in creation order, and restore rebuilds the indexes while
// re-validating the derivation typing.

// DumpJSON writes all instances as JSON (an array in creation order).
func (db *DB) DumpJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(db.All())
}

// maxSeqGap bounds how far a dump's sequence numbers may run ahead of
// its record count — the room left for IDs ReserveSeq retired. The
// instance table is sized by the largest sequence number, so a dump of
// n records naming a number above n+maxSeqGap is refused: a hostile
// file cannot make Restore allocate more than about 8 MB of table
// beyond its own records.
const maxSeqGap = 1 << 20

// Restore loads instances previously written by Dump into an empty
// database. Instance IDs are preserved; the sequence counter resumes
// after the largest restored ID. Restoring into a non-empty database is
// refused. A dump is untrusted input: every ID must be MakeID of its
// record's own type and a sequence number from 1 to the record count
// plus maxSeqGap, no two records may share a sequence number, and every
// record must pass Record's derivation checks against the records with
// lower sequence numbers — the ones committed before it — so a record
// whose tool or input has an equal or higher number is refused. Any
// failure leaves the database empty.
func (db *DB) Restore(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.graph.Len() != 0 {
		return fmt.Errorf("history: Restore into non-empty database")
	}
	var insts []*Instance
	if err := json.NewDecoder(r).Decode(&insts); err != nil {
		return fmt.Errorf("history: restore: %w", err)
	}
	// First pass: check every ID before the table is sized by it.
	maxSeq := 0
	for _, in := range insts {
		if in == nil || in.ID == "" {
			return fmt.Errorf("history: restore: record without ID")
		}
		seq := SeqOf(in.ID)
		if seq < 1 || in.ID != MakeID(in.Type, seq) {
			return fmt.Errorf("history: restore: ID %q is not %s:<seq>", in.ID, in.Type)
		}
		if seq > len(insts)+maxSeqGap {
			return fmt.Errorf("history: restore: %s: sequence number exceeds the dump's %d records by more than %d",
				in.ID, len(insts), maxSeqGap)
		}
		maxSeq = max(maxSeq, seq)
	}
	// Second pass, in commit (sequence) order: check each record against
	// the ones stored before it, then store it. A failure clears the
	// table, the only state this pass writes. As in Record, the graph's
	// write lock is held while the table and the graph change.
	db.graph.mu.Lock()
	defer db.graph.mu.Unlock()
	slices.SortFunc(insts, func(a, b *Instance) int { return cmp.Compare(SeqOf(a.ID), SeqOf(b.ID)) })
	for i, in := range insts {
		seq := SeqOf(in.ID)
		var err error
		if i > 0 && seq == SeqOf(insts[i-1].ID) {
			err = fmt.Errorf("repeats sequence number %d", seq)
		} else {
			err = db.checkDerivation(in)
		}
		if err != nil {
			db.chunks.Store(nil)
			return fmt.Errorf("history: restore: %s: %w", in.ID, err)
		}
		cp := *in
		cp.Inputs = append([]Input(nil), in.Inputs...)
		db.insert(&cp, seq)
		insts[i] = &cp
	}
	// Third pass: every record checks out, so index them all.
	for _, in := range insts {
		db.index(in)
	}
	db.seq = maxSeq
	return nil
}
