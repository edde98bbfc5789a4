package main

import (
	"os"
	"testing"
)

// TestSections runs every section but corpus and provenance, which CI
// runs in its concurrent and provenance jobs, with the printed figures
// discarded. A section fails by panicking (must, must1).
func TestSections(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()
	for _, s := range sections {
		if s.name == "corpus" || s.name == "provenance" {
			continue
		}
		t.Run(s.name, func(t *testing.T) { s.run() })
	}
}
