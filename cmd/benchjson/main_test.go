package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestOutRequired checks that a run without -out is a usage error that runs
// and writes nothing — in particular, no committed BENCH_*.json snapshot is
// overwritten by default.
func TestOutRequired(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, args := range [][]string{nil, {"-quick"}, {"-gc"}, {"-cost", "-quick"}} {
		var stderr bytes.Buffer
		if code := run(args, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want usage error 2", args, code)
		}
		if !strings.Contains(stderr.String(), "-out is required") {
			t.Errorf("run(%q) stderr = %q, want the missing -out explained", args, stderr.String())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("usage errors wrote files: %v", entries)
	}
}
