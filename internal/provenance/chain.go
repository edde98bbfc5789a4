package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/history"
	"repro/internal/storage"
)

// This file makes the derivation record itself trustworthy: every
// committed instance becomes one link of a hash chain. Each chain
// record's digest is SHA-256 over its canonical payload, and the
// payload embeds the predecessor's digest — so the newest digest (the
// head) changes if any record is mutated, dropped, inserted or
// reordered. A durable run logs its chain's head (internal/exec); a
// chain over a storage.Log also keeps the records for Verify.
//
// Record encoding is canonical: a hand-rolled, deterministic JSON form
// with every field always present and keys in a fixed order (the same
// reflection-free idiom as internal/storage's WAL encoder). Canonical
// bytes are what the digest covers and what Verify re-derives, so any
// re-encoding ambiguity is off the table: a persisted record is valid
// iff it is byte-identical to the canonical encoding of its decoded
// fields and its digest and predecessor link check out.

// GenesisDigest is the "previous digest" of the first chain record:
// 32 zero bytes, hex-encoded.
var GenesisDigest = hex.EncodeToString(make([]byte, sha256.Size))

// RecordInput is one input arc of a chain record.
type RecordInput struct {
	Key  string `json:"key"`
	Inst string `json:"inst"`
}

// Record is one link of the provenance hash chain: the derivation-
// relevant fields of a committed instance, its position (Seq, 0-based
// in chain order), the predecessor digest and its own digest.
type Record struct {
	Seq     int           `json:"seq"`
	ID      string        `json:"id"`
	Type    string        `json:"type"`
	Tool    string        `json:"tool"`
	Inputs  []RecordInput `json:"inputs"`
	Data    string        `json:"data"`
	User    string        `json:"user"`
	Created int64         `json:"created"` // unix nanoseconds of the commit timestamp
	Prev    string        `json:"prev"`    // hex SHA-256 of the previous record's payload
	Digest  string        `json:"digest"`  // hex SHA-256 of this record's payload
}

// appendPayload appends the canonical payload encoding of r linked to
// the predecessor digest prev — the full record minus the digest field.
// The digest is SHA-256 over exactly these bytes; prev is part of them,
// which is what chains the records. r.Prev and r.Digest are not read:
// the verifier passes the decoded r.Prev, an appending Chain the digest
// bytes it keeps.
func appendPayload[S string | []byte](b []byte, r *Record, prev S) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"id":`...)
	b = appendString(b, r.ID)
	b = append(b, `,"type":`...)
	b = appendString(b, r.Type)
	b = append(b, `,"tool":`...)
	b = appendString(b, r.Tool)
	b = append(b, `,"inputs":[`...)
	for i := range r.Inputs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = appendString(b, r.Inputs[i].Key)
		b = append(b, `,"inst":`...)
		b = appendString(b, r.Inputs[i].Inst)
		b = append(b, '}')
	}
	b = append(b, `],"data":`...)
	b = appendString(b, r.Data)
	b = append(b, `,"user":`...)
	b = appendString(b, r.User)
	b = append(b, `,"created":`...)
	b = strconv.AppendInt(b, r.Created, 10)
	b = append(b, `,"prev":`...)
	return appendString(b, prev)
}

// appendDigest closes a payload with its digest field, completing the
// record's canonical encoding.
func appendDigest[S string | []byte](b []byte, digest S) []byte {
	b = append(b, `,"digest":`...)
	b = appendString(b, digest)
	return append(b, '}')
}

// appendRecord appends the full canonical encoding of a decoded record:
// payload + digest.
func appendRecord(b []byte, r *Record) []byte {
	return appendDigest(appendPayload(b, r, r.Prev), r.Digest)
}

// appendString appends a JSON string literal. The fast path copies
// plain ASCII byte-for-byte; anything needing escapes falls back to
// encoding/json (identical output, just slower).
func appendString[S string | []byte](b []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			enc, _ := json.Marshal(string(s))
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// digestHex returns the hex SHA-256 of b.
func digestHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Chain hashes derivation records into a chain. It implements
// history.CommitObserver: attach it with db.Observe(c) and every commit
// (existing records first, then live ones, in commit order) becomes one
// chain record, appended to the log when there is one, buffered by the
// log — call Sync (or Close) to force the durability barrier.
//
// OnCommit cannot return an error (the observer interface is fire-and-
// forget under the DB's commit lock), so the first append failure is
// latched and surfaced by the next Sync/Verify/Close call.
type Chain struct {
	mu     sync.Mutex
	log    storage.Log        // nil: keep no records
	n      int                // records appended so far
	last   [hexDigestLen]byte // hex digest of the newest record (GenesisDigest when empty)
	err    error              // first append failure, latched
	buf    []byte             // encode buffer, reused across appends
	inputs []RecordInput      // input arcs of the record being encoded, reused across appends
}

// hexDigestLen is the length of a hex-encoded SHA-256 digest.
const hexDigestLen = 2 * sha256.Size

// NewChain starts an empty chain on an empty log, or, with a nil log, a
// chain that keeps no records: only its head and count.
func NewChain(log storage.Log) *Chain {
	c := &Chain{log: log}
	copy(c.last[:], GenesisDigest)
	return c
}

// Len returns the number of records appended to the chain.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Head returns the hex digest of the newest record, GenesisDigest when
// the chain is empty. It covers every record appended so far.
func (c *Chain) Head() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return string(c.last[:])
}

// OnCommit appends one chain record for a committed instance. The
// record is encoded in place in the chain's buffer, so the log's own
// copy is the append's only allocation.
func (c *Chain) OnCommit(inst *history.Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	r := Record{Seq: c.n, ID: string(inst.ID), Type: inst.Type, Tool: string(inst.Tool),
		Inputs: c.inputs[:0], Data: string(inst.Data), User: inst.User, Created: inst.Created.UnixNano()}
	for _, in := range inst.Inputs {
		r.Inputs = append(r.Inputs, RecordInput{Key: in.Key, Inst: string(in.Inst)})
	}
	c.inputs = r.Inputs
	b := appendPayload(c.buf[:0], &r, c.last[:])
	sum := sha256.Sum256(b)
	var digest [hexDigestLen]byte
	hex.Encode(digest[:], sum[:])
	c.buf = b
	if c.log != nil {
		c.buf = appendDigest(b, digest[:])
		if err := c.log.Append(c.buf); err != nil {
			c.err = fmt.Errorf("provenance: appending chain record %d (%s): %w", c.n, inst.ID, err)
			return
		}
	}
	c.n++
	c.last = digest
}

// Sync forces the chain's records onto stable storage and returns any
// latched append failure.
func (c *Chain) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.log == nil {
		return c.err
	}
	return c.log.Sync()
}

// Close syncs and closes the underlying log; like Verify, it needs one.
func (c *Chain) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		c.log.Close()
		return c.err
	}
	if err := c.log.Sync(); err != nil {
		c.log.Close()
		return err
	}
	return c.log.Close()
}

// Verify syncs the log, re-reads every committed record and checks the
// whole chain, including that no tail records are missing (the chain
// knows how many it appended). It returns nil iff the persisted chain
// is exactly what was appended.
func (c *Chain) Verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.log.Sync(); err != nil {
		return err
	}
	recs, err := c.log.Committed()
	if err != nil {
		return fmt.Errorf("provenance: reading chain log: %w", err)
	}
	// Internal consistency first: interior damage names the earlier
	// record; only an internally consistent chain of the wrong length is
	// a pure truncation/extension.
	if err := verifyRecords(recs); err != nil {
		return err
	}
	if len(recs) > c.n {
		return fmt.Errorf("provenance: chain has %d records, expected %d (record %d not appended by this chain)",
			len(recs), c.n, c.n)
	}
	if len(recs) < c.n {
		return fmt.Errorf("provenance: chain truncated: %d records on storage, expected %d (record %d missing)",
			len(recs), c.n, len(recs))
	}
	return nil
}

// verifyRecords checks a sequence of raw chain records. Checks per
// record, in order of precedence: decodable; sequence number matches
// its position (catches drops, insertions and reorders); digest matches
// SHA-256 of the canonical payload (catches any semantic mutation,
// prev included); predecessor link matches the previous record's
// digest (catches self-consistent rewrites — flagged at the first
// record whose link no longer holds); raw bytes match the canonical
// re-encoding (catches non-semantic byte tampering that decoding
// normalises away). The returned error names the first failing record.
func verifyRecords(recs [][]byte) error {
	prev := GenesisDigest
	var buf []byte
	for i, raw := range recs {
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("provenance: record %d undecodable: %v", i, err)
		}
		if r.Seq != i {
			return fmt.Errorf("provenance: record %d (%s): sequence %d out of order (want %d) — record dropped, inserted or reordered",
				i, r.ID, r.Seq, i)
		}
		buf = appendPayload(buf[:0], &r, r.Prev)
		if got := digestHex(buf); got != r.Digest {
			return fmt.Errorf("provenance: record %d (%s): digest mismatch — payload mutated", i, r.ID)
		}
		if r.Prev != prev {
			return fmt.Errorf("provenance: record %d (%s): predecessor link broken — an earlier record was rewritten or the chain was reordered",
				i, r.ID)
		}
		buf = appendRecord(buf[:0], &r)
		if !bytes.Equal(buf, raw) {
			return fmt.Errorf("provenance: record %d (%s): non-canonical bytes — record tampered without changing its decoded form", i, r.ID)
		}
		prev = r.Digest
	}
	return nil
}
