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
	rows := []struct {
		pipeline, flag, value string
	}{
		{"extensions", "-out", "out"},
		{"extensions", "-experiments", "EXPERIMENTS.md"},
		{"smoke", "-out", "out"},
		{"smoke", "-experiments", "EXPERIMENTS.md"},
	}
	for _, tc := range rows {
		dir := t.TempDir()
		args := []string{"run", tc.pipeline, tc.flag + "=" + filepath.Join(dir, tc.value),
			"-store", filepath.Join(dir, "store")}
		err := run(context.Background(), args)
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
