package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsIgnoredFlags checks that `fleaflow run` refuses a flag the
// chosen pipeline would ignore, before it opens the store or writes output.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		pipeline, flag, value string
	}{
		{"extensions", "-out", "out"},
		{"extensions", "-experiments", "EXPERIMENTS.md"},
		{"smoke", "-out", "out"},
		{"fuzz-campaign", "-experiments", "EXPERIMENTS.md"},
		{"figure6", "-fuzz-programs", "5"},
		{"extensions", "-fuzz-shards", "2"},
		{"smoke", "-fuzz-smoke", "true"},
	} {
		dir := t.TempDir()
		store := filepath.Join(dir, "store")
		value := tc.value
		if tc.flag == "-out" || tc.flag == "-experiments" {
			value = filepath.Join(dir, value)
		}
		err := run(context.Background(), []string{"run", tc.pipeline, "-store", store, tc.flag + "=" + value})
		if err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("run %s %s: err = %v, want a usage error", tc.pipeline, tc.flag, err)
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(entries) != 0 {
			t.Errorf("run %s %s created %s", tc.pipeline, tc.flag, entries[0].Name())
		}
	}
}
