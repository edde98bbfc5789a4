package history

import (
	"slices"
	"strings"
	"time"
)

// This file implements the browser filters of Fig. 9: the entity-instance
// browser restricts by user, date limits and keywords, and sorts by
// creation time.

// Filter selects instances. Zero fields do not constrain.
type Filter struct {
	// Type restricts to instances satisfying the named entity type
	// (subtype instances included).
	Type string
	// User restricts to instances created by the named user.
	User string
	// From/To bound the creation time (inclusive); zero time means
	// unbounded on that side.
	From, To time.Time
	// Keyword restricts to instances whose name or comment contains the
	// keyword, case-insensitively.
	Keyword string
}

// Matches reports whether the instance passes the filter.
func (f Filter) Matches(db *DB, in *Instance) bool {
	if f.Type != "" && !db.schema.Satisfies(in.Type, f.Type) {
		return false
	}
	if f.User != "" && in.User != f.User {
		return false
	}
	if !f.From.IsZero() && in.Created.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && in.Created.After(f.To) {
		return false
	}
	if f.Keyword != "" {
		kw := strings.ToLower(f.Keyword)
		if !strings.Contains(strings.ToLower(in.Name), kw) &&
			!strings.Contains(strings.ToLower(in.Comment), kw) {
			return false
		}
	}
	return true
}

// Select returns copies of all instances passing the filter, in
// creation order (ties broken by commit order) — the browser listing of
// Fig. 9.
func (db *DB) Select(f Filter) []*Instance {
	var out []*Instance
	for _, in := range db.All() {
		if f.Matches(db, in) {
			out = append(out, in)
		}
	}
	slices.SortFunc(out, compareCreation)
	return out
}
