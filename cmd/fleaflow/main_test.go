package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsIgnoredFlags checks that `fleaflow graph` and `fleaflow run`
// refuse a flag the chosen pipeline would ignore, before run opens the store
// or writes output. graph has no -out or -experiments flag, so only the
// fuzz rows go through it.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	rows := []struct {
		pipeline, flag, value string
	}{
		{"extensions", "-out", "out"},
		{"extensions", "-experiments", "EXPERIMENTS.md"},
		{"smoke", "-out", "out"},
		{"fuzz-campaign", "-experiments", "EXPERIMENTS.md"},
		{"figure6", "-fuzz-programs", "5"},
		{"figure6", "-fuzz-shards", "8"},
		{"extensions", "-fuzz-shards", "2"},
		{"smoke", "-fuzz-smoke", "true"},
	}
	for _, sub := range []string{"graph", "run"} {
		for _, tc := range rows {
			output := tc.flag == "-out" || tc.flag == "-experiments"
			if sub == "graph" && output {
				continue
			}
			dir := t.TempDir()
			value := tc.value
			if output {
				value = filepath.Join(dir, value)
			}
			args := []string{sub, tc.pipeline, tc.flag + "=" + value}
			if sub == "run" {
				args = append(args, "-store", filepath.Join(dir, "store"))
			}
			err := run(context.Background(), args)
			if err == nil || !strings.Contains(err.Error(), "does not apply") {
				t.Errorf("%s %s %s: err = %v, want a usage error", sub, tc.pipeline, tc.flag, err)
			}
			entries, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if len(entries) != 0 {
				t.Errorf("%s %s %s created %s", sub, tc.pipeline, tc.flag, entries[0].Name())
			}
		}
	}
}
