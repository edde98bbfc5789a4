package history

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
// record must pass Record's derivation checks. Any failure leaves the
// database empty.
func (db *DB) Restore(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.order) != 0 {
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
	// Second pass: insert all records so referential checks can see
	// forward references too (dumps are in creation order, but be
	// lenient).
	stored := make([]*Instance, len(insts))
	for i, in := range insts {
		seq := SeqOf(in.ID)
		if sl := db.slot(seq); sl != nil && sl.Load() != nil {
			db.wipeLocked()
			return fmt.Errorf("history: restore: %s repeats sequence number %d", in.ID, seq)
		}
		cp := *in
		cp.Inputs = append([]Input(nil), in.Inputs...)
		db.insert(&cp, seq)
		stored[i] = &cp
	}
	// Third pass: validate each record against the schema and rebuild
	// the derived indexes in creation order.
	sort.SliceStable(stored, func(i, j int) bool {
		if stored[i].Created.Equal(stored[j].Created) {
			return SeqOf(stored[i].ID) < SeqOf(stored[j].ID)
		}
		return stored[i].Created.Before(stored[j].Created)
	})
	for _, in := range stored {
		if err := db.checkDerivation(in); err != nil {
			db.wipeLocked()
			return fmt.Errorf("history: restore: %s: %w", in.ID, err)
		}
		db.index(in, SeqOf(in.ID))
	}
	db.seq = maxSeq
	return nil
}

// wipeLocked clears all state after a failed restore.
func (db *DB) wipeLocked() {
	db.chunks.Store(nil)
	db.byType = make(map[string][]ID)
	db.order = nil
	db.fwdHead, db.fwdTail = nil, nil
	db.fwdRecs = db.fwdRecs[:1]
	db.seq = 0
}
