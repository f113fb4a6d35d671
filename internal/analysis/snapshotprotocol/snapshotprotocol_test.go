package snapshotprotocol_test

import (
	"testing"

	"fleaflicker/internal/analysis/analyzertest"
	"fleaflicker/internal/analysis/snapshotprotocol"
)

func TestSnapshotprotocol(t *testing.T) {
	analyzertest.Run(t, "testdata", snapshotprotocol.Analyzer,
		"internal/checkpoint", "internal/pipeline", "internal/baseline")
}
