package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"fleaflicker/internal/checkpoint"
	"fleaflicker/internal/core"
	"fleaflicker/internal/diffsim"
	"fleaflicker/internal/mem"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
)

const (
	// fuzzPrograms is the program pool one round checks. Program costs are
	// heavy-tailed, so the pool is large enough that its totals move only
	// a few percent between seeds, and small enough that a run completes
	// many rounds.
	fuzzPrograms     = 1000
	fuzzTinyPrograms = 24
	// fuzzJobPrograms is how many programs make one job (one cost
	// sample). A job averages over many programs of a heavy-tailed cost
	// distribution, and a run yields some sixty jobs, so the tail
	// percentile is not set by a few slow programs.
	fuzzJobPrograms = 200
	// fuzzMaxCycles is diffsim's per-program cycle bound, which the
	// accounting pass's reference calls repeat.
	fuzzMaxCycles = 10_000_000
)

// fuzzSeedBase spaces the program seeds of different workload seeds apart.
func fuzzSeedBase(seed int64) int64 { return seed * 1_000_000 }

// runFuzz generates the program pool during set-up, then checks it round
// after round with one diffsim.Checker over the default lattice with
// automatic checkpointing, as fleaflow's fuzz-campaign runs it. After the
// timed phase one untimed accounting round, through a runner that records
// each cell's statistics, gives the simulated metrics.
func runFuzz(ctx context.Context, o *options) (*outcome, error) {
	oc := &outcome{e2e: metrics{}, layer: metrics{}}
	n, jobSize := fuzzPrograms, fuzzJobPrograms
	if o.tiny {
		n, jobSize = fuzzTinyPrograms, 2
	}
	gen := progen.DefaultConfig()
	t0 := time.Now()
	progs := make([]*program.Program, n)
	for j := range progs {
		progs[j] = progen.Generate(fuzzSeedBase(o.seed)+int64(j), gen)
	}
	checker := diffsim.NewChecker(diffsim.DefaultLattice(), diffsim.WithCheckpointing(diffsim.AutoCheckpoint))
	oc.endSetup(t0)
	if o.setupOnly {
		return oc, nil
	}
	oc.digest = programsDigest(progs)

	var (
		checkTime time.Duration
		cellRuns  int64
		refInstr  int64
	)
	ph := beginTimed()
	deadline := o.deadline(ph.start)
	for round := 0; round == 0 || (time.Now().Before(deadline) && !o.tiny); round++ {
		r := ph.beginRound()
		for lo := 0; lo < len(progs); lo += jobSize {
			hi := min(lo+jobSize, len(progs))
			failed := false
			for _, p := range progs[lo:hi] {
				var c0 time.Time
				if o.trace {
					c0 = time.Now()
				}
				res, err := checker.Check(ctx, p)
				if o.trace {
					checkTime += time.Since(c0)
				}
				if err != nil {
					return nil, err
				}
				if len(res.Divergences) > 0 {
					failed = true
					oc.problem("round %d: program %s diverges: %v", round, p.Name, res.Divergences[0])
				}
				if res.RefErr == nil {
					cellRuns += int64(len(checker.Cells()))
					refInstr += res.RefInstructions
				}
			}
			_, ref := ph.clock.lap()
			if failed {
				oc.ops.fail()
			} else {
				oc.ops.ok(ref)
			}
		}
		ph.endRound(r)
	}
	ph.end(oc)

	acct := &cellRecorder{agg: newSimAgg()}
	recChecker := diffsim.NewChecker(diffsim.DefaultLattice(),
		diffsim.WithCheckpointing(diffsim.AutoCheckpoint), diffsim.WithRunner(acct.run))
	var refTime time.Duration
	for _, p := range progs {
		if o.trace {
			d, err := timeFuzzReference(p)
			if err != nil {
				return nil, err
			}
			refTime += d
		}
		res, err := recChecker.Check(ctx, p)
		if err != nil {
			return nil, err
		}
		if len(res.Divergences) > 0 {
			oc.problem("accounting round: program %s diverges: %v", p.Name, res.Divergences[0])
		}
	}
	// The instructions a round covers are every checked program's
	// reference instructions times the lattice's cells: what the checker
	// verifies. Across seeds they moved ±1.2%, while the instructions the
	// machines retired past their checkpoints moved ±6% without the CPU
	// time following.
	oc.simInstr = float64(refInstr) / oc.rounds * float64(len(checker.Cells()))
	sp2, sp2re := acct.agg.speedups()
	if err := oc.e2e.putAll([]kv{
		{"speedup_2p", sp2, "x"},
		{"speedup_2pre", sp2re, "x"},
		{"sim_cycles", float64(acct.agg.cycles()), "cycles"},
	}); err != nil {
		return nil, err
	}
	if !o.trace {
		return oc, nil
	}
	if err := acct.agg.layerMetrics(oc.layer, 1); err != nil {
		return nil, err
	}
	cellsPerRound := float64(cellRuns) / oc.rounds
	checkPerRound := checkTime.Seconds() / oc.rounds
	if err := oc.layer.putAll([]kv{
		{"core.reference_s", refTime.Seconds(), "s"},
		{"progen.generate_s", oc.setup.Seconds(), "s"},
		{"progen.programs", float64(len(progs)), "count"},
		{"diffsim.check_s", checkPerRound, "s"},
		{"diffsim.cell_runs", cellsPerRound, "count"},
		{"diffsim.us_per_cell_run", checkPerRound / cellsPerRound * 1e6, "us"},
		{"diffsim.ref_minstr", float64(refInstr) / oc.rounds / 1e6, "Minstr"},
	}); err != nil {
		return nil, err
	}
	return oc, nil
}

// cellRecorder is a diffsim runner that makes the same core.Simulate call
// as diffsim's own runner and records each cell's statistics. The speedup
// pair is the lattice cell at the default configuration (CQ 64, no
// feedback latency); every cell counts toward the per-model sums.
type cellRecorder struct {
	agg *simAgg
}

func (c *cellRecorder) run(ctx context.Context, cell diffsim.Cell, cfg core.Config, prog *program.Program, ref *core.Reference, resume *checkpoint.Snapshot, log *mem.StoreLog) error {
	opts := []core.Option{core.WithConfig(cfg), core.WithReference(ref), core.WithStoreLog(log)}
	if resume != nil {
		opts = append(opts, core.ResumeFrom(resume))
	}
	t0 := time.Now()
	r, err := core.Simulate(ctx, cell.Model, prog, opts...)
	busy := time.Since(t0)
	if err != nil {
		return err
	}
	def := core.DefaultConfig()
	primary := cell.CQSize == 0 || (cell.CQSize == def.CQSize && cell.FeedbackLatency == def.FeedbackLatency)
	c.agg.add(prog.Name, cell.Model, r, busy, primary)
	return nil
}

// timeFuzzReference repeats the reference work diffsim's Checker does for
// one program under automatic checkpointing — a plain functional run to
// size the interval, then a checkpointing one — and returns its host time.
func timeFuzzReference(p *program.Program) (time.Duration, error) {
	t0 := time.Now()
	plain, err := core.ComputeReference(p, fuzzMaxCycles)
	if err != nil {
		return 0, nil // the Checker skips such programs too
	}
	every := max(plain.Result.Instructions/8, 1)
	if _, err := core.ComputeReference(p, fuzzMaxCycles, core.WithCheckpoints(every)); err != nil {
		return 0, fmt.Errorf("%s: checkpointed reference: %w", p.Name, err)
	}
	return time.Since(t0), nil
}

// programsDigest hashes the generated programs' .flea encodings.
func programsDigest(progs []*program.Program) string {
	h := sha256.New()
	for _, p := range progs {
		h.Write(p.MarshalFlea())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
