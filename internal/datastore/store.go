// Package datastore stores the physical design data behind history
// instances. The paper (footnote 5) observes that several design-history
// instances may share the same physical file — e.g. one Unix RCS archive —
// while carrying different version numbers in their meta-data. This
// package provides the two storage substrates that make that sharing work:
//
//   - Store, a content-addressed blob store: identical artifacts produced
//     by different flows occupy one physical copy;
//   - Archive, an RCS-like reverse-delta revision archive: the newest
//     revision is stored whole and older revisions as line deltas against
//     their successor, so checkouts of the head are free.
//
// Both are safe for concurrent use.
package datastore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Ref is the content address of an artifact: "sha256:" plus the lowercase
// hex digest of its bytes.
type Ref string

// RefOf computes the content address of data without storing it, in
// one allocation: the ref string itself.
func RefOf(data []byte) Ref {
	sum := sha256.Sum256(data)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	var b strings.Builder
	b.Grow(len("sha256:") + len(digits))
	b.WriteString("sha256:")
	b.Write(digits[:])
	return Ref(b.String())
}

// blobShards is the number of independent lock domains the blob map is
// split into; content addresses spread uniformly, so any small power of
// two removes the single-mutex bottleneck under concurrent workers.
const blobShards = 16

// blobShard is one shard of the store: its own lock, map and dedup
// counter.
type blobShard struct {
	mu    sync.RWMutex
	blobs map[Ref][]byte
	hits  int // Put calls that found the blob already present
}

// Store is a content-addressed, deduplicating blob store, sharded by
// content address so concurrent readers and writers on different blobs
// never contend. The zero value is ready to use.
type Store struct {
	shards [blobShards]blobShard
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// shardOf picks the shard for a ref. Refs are "sha256:" + hex, so the
// first digest nibble (byte 7) is uniformly distributed; anything
// shorter (malformed, only possible via hand-built refs) falls back to a
// byte sum.
func (s *Store) shardOf(ref Ref) *blobShard {
	if len(ref) > 7 {
		c := ref[7]
		switch {
		case c >= '0' && c <= '9':
			return &s.shards[c-'0']
		case c >= 'a' && c <= 'f':
			return &s.shards[c-'a'+10]
		}
	}
	h := 0
	for i := 0; i < len(ref); i++ {
		h += int(ref[i])
	}
	return &s.shards[h%blobShards]
}

// Put stores data and returns its content address. Storing the same bytes
// twice keeps a single physical copy.
func (s *Store) Put(data []byte) Ref {
	ref := RefOf(data)
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.blobs == nil {
		sh.blobs = make(map[Ref][]byte)
	}
	if _, ok := sh.blobs[ref]; ok {
		sh.hits++
		return ref
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	sh.blobs[ref] = cp
	return ref
}

// Get returns a copy of the artifact at ref, and whether it exists.
func (s *Store) Get(ref Ref) ([]byte, bool) {
	b, ok := s.GetShared(ref)
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, true
}

// GetShared returns the stored bytes themselves, aliased, and whether
// they exist. The caller must not mutate the result — it is the store's
// single physical copy. Hot paths that only read (hashing, comparison,
// handing an artifact to a task that treats inputs as immutable) use
// this to avoid a copy per access; stored blobs are never mutated after
// insertion, so the alias stays valid without holding any lock.
func (s *Store) GetShared(ref Ref) ([]byte, bool) {
	sh := s.shardOf(ref)
	sh.mu.RLock()
	b, ok := sh.blobs[ref]
	sh.mu.RUnlock()
	return b, ok
}

// Has reports whether the store holds an artifact at ref.
func (s *Store) Has(ref Ref) bool {
	_, ok := s.GetShared(ref)
	return ok
}

// Len returns the number of distinct artifacts stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.blobs)
		sh.mu.RUnlock()
	}
	return n
}

// TotalBytes returns the total size of all distinct artifacts.
func (s *Store) TotalBytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, b := range sh.blobs {
			n += len(b)
		}
		sh.mu.RUnlock()
	}
	return n
}

// DedupHits returns how many Put calls were satisfied by an existing blob
// — the sharing the paper's footnote 5 describes, made measurable.
func (s *Store) DedupHits() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.hits
		sh.mu.RUnlock()
	}
	return n
}

// Refs returns the refs of all stored artifacts in sorted order.
func (s *Store) Refs() []Ref {
	var out []Ref
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for r := range sh.blobs {
			out = append(out, r)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verify recomputes every stored artifact's digest and returns an error
// naming the first corrupted ref, or nil.
func (s *Store) Verify() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for ref, b := range sh.blobs {
			if RefOf(b) != ref {
				sh.mu.RUnlock()
				return fmt.Errorf("datastore: blob %s fails digest check", ref)
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}
