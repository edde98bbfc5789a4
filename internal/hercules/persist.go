package hercules

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/datastore"
	"repro/internal/flow"
	"repro/internal/schema"
)

// schemaFormat renders the session's schema in the DSL.
func schemaFormat(s *Session) string { return schema.FormatString(s.Schema) }

// parseSchema parses a schema DSL text.
func parseSchema(text string) (*schema.Schema, error) { return schema.ParseString(text) }

// readerOf wraps bytes as a reader.
func readerOf(b []byte) io.Reader { return bytes.NewReader(b) }

// Session persistence: a session saves to a directory as six plain
// files — the schema in its DSL, the history as JSON, the datastore
// blobs, the flow catalog, the bootstrap name table and the revision
// archives — and loads back into a fully working session. Everything
// else (indexes, catalogs, version trees) is derived state.
const (
	schemaFile   = "schema.txt"
	dbFile       = "history.json"
	storeFile    = "store.json"
	flowsFile    = "flows.json"
	namedFile    = "named.json"
	archivesFile = "archives.json"
)

// Save writes the session's state into dir (created if needed).
func (s *Session) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("hercules: save: %w", err)
	}
	write := func(name string, fill func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("hercules: save %s: %w", name, err)
		}
		defer f.Close()
		if err := fill(f); err != nil {
			return fmt.Errorf("hercules: save %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write(schemaFile, func(w io.Writer) error {
		_, err := io.WriteString(w, schemaFormat(s))
		return err
	}); err != nil {
		return err
	}
	if err := write(dbFile, s.DB.DumpJSON); err != nil {
		return err
	}
	if err := write(storeFile, s.Store.DumpJSON); err != nil {
		return err
	}
	if err := write(flowsFile, s.dumpFlows); err != nil {
		return err
	}
	if err := write(namedFile, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(s.Named)
	}); err != nil {
		return err
	}
	return write(archivesFile, s.dumpArchives)
}

// dumpArchives serializes the revision archives as a JSON object of
// each archive's revision texts, oldest first. Load checks them back in
// in that order, which gives back the revision numbers and deltas.
func (s *Session) dumpArchives(w io.Writer) error {
	out := make(map[string][]string)
	for _, name := range s.Archives.Names() {
		a := s.Archives.Open(name)
		revs := make([]string, a.Head())
		for i := range revs {
			text, err := a.Checkout(i + 1)
			if err != nil {
				return err
			}
			revs[i] = text
		}
		out[name] = revs
	}
	return json.NewEncoder(w).Encode(out)
}

// dumpFlows serializes the flow catalog as a JSON object of encoded
// flows.
func (s *Session) dumpFlows(w io.Writer) error {
	out := make(map[string]json.RawMessage)
	for _, name := range s.Flows.Names() {
		fl, err := s.Flows.Checkout(name)
		if err != nil {
			return err
		}
		var buf jsonBuffer
		if err := fl.Encode(&buf); err != nil {
			return err
		}
		out[name] = json.RawMessage(buf.data)
	}
	return json.NewEncoder(w).Encode(out)
}

// jsonBuffer is a minimal io.Writer over a byte slice.
type jsonBuffer struct{ data []byte }

func (b *jsonBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// Load reconstructs a session from a directory written by Save. The
// schema is reloaded from the saved DSL (so the session resumes against
// exactly the methodology it was saved under), the standard
// encapsulations are re-registered, and the history, datastore, flow
// catalog, name table and revision archives are restored. A directory
// saved without an archives file loads with no archives.
func Load(dir, user string) (*Session, error) {
	schemaText, err := os.ReadFile(filepath.Join(dir, schemaFile))
	if err != nil {
		return nil, fmt.Errorf("hercules: load: %w", err)
	}
	sch, err := parseSchema(string(schemaText))
	if err != nil {
		return nil, fmt.Errorf("hercules: load schema: %w", err)
	}
	// Build the session around the loaded schema, so a saved session
	// resumes under its saved methodology even if the built-in schema
	// has since evolved.
	s := buildSession(user, sch, datastore.NewStore())

	open := func(name string, fill func(r io.Reader) error) error {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("hercules: load %s: %w", name, err)
		}
		defer f.Close()
		if err := fill(f); err != nil {
			return fmt.Errorf("hercules: load %s: %w", name, err)
		}
		return nil
	}
	if err := open(dbFile, s.DB.Restore); err != nil {
		return nil, err
	}
	if err := open(storeFile, s.Store.Restore); err != nil {
		return nil, err
	}
	if err := open(flowsFile, func(r io.Reader) error {
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(r).Decode(&raw); err != nil {
			return err
		}
		for name, msg := range raw {
			fl, err := flow.Decode(readerOf(msg), s.Schema, s.DB)
			if err != nil {
				return fmt.Errorf("flow %q: %w", name, err)
			}
			if err := s.Flows.Install(name, fl); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := open(namedFile, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&s.Named)
	}); err != nil {
		return nil, err
	}
	if err := open(archivesFile, func(r io.Reader) error {
		var saved map[string][]string
		if err := json.NewDecoder(r).Decode(&saved); err != nil {
			return err
		}
		for name, revs := range saved {
			a := s.Archives.Open(name)
			for _, text := range revs {
				a.Checkin(text)
			}
		}
		return nil
	}); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	// Every named instance must have survived the round trip.
	for key, id := range s.Named {
		if !s.DB.Has(id) {
			return nil, fmt.Errorf("hercules: load: named instance %s (%s) missing from history", key, id)
		}
	}
	return s, nil
}
