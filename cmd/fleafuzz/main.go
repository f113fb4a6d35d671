// Command fleafuzz runs differential co-simulation campaigns: it generates
// seeded random EPIC programs, runs each across the configuration lattice
// (every machine model at several CQ sizes and feedback latencies), and
// diffs final architectural state against the functional reference
// executor. Diverging programs are delta-debugged down to minimal
// reproducers and written to the corpus directory as .flea files.
//
// Usage:
//
//	fleafuzz [-programs N] [-duration D] [-seed N] [-corpus DIR]
//	         [-smoke] [-checkpoint] [-no-shrink] [-trips N] [-actions N]
//	         [-alias N] [-json] [-quiet]
//	fleafuzz -repro FILE.flea [-checkpoint]
//
// The campaign stops at whichever of -programs or -duration is hit first.
// -repro replays one reproducer across the lattice and reports each cell's
// verdict. Exit status: 0 when all cells agree, 1 on divergence, 2 on
// usage or infrastructure errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"fleaflicker/internal/diffsim"
	"fleaflicker/internal/progen"
	"fleaflicker/internal/program"
)

func main() {
	var (
		programs = flag.Int("programs", 1000, "number of programs to generate and check")
		duration = flag.Duration("duration", 0, "wall-clock budget (0 = none); stops at whichever of -programs/-duration comes first")
		seedBase = flag.Int64("seed", 1, "first generator seed; program i uses seed+i")
		corpus   = flag.String("corpus", "", "directory to write minimized .flea reproducers into")
		repro    = flag.String("repro", "", "replay one .flea reproducer across the lattice and exit")
		smoke    = flag.Bool("smoke", false, "small lattice and small programs (CI smoke budget)")
		ckpt     = flag.Bool("checkpoint", false, "fast-forward lattice cells from the reference's last functional checkpoint instead of simulating from cycle zero")
		noShrink = flag.Bool("no-shrink", false, "keep diverging programs unminimized")
		trips    = flag.Int("trips", 0, "override generator outer-loop trip count")
		actions  = flag.Int("actions", 0, "override generator body actions per trip")
		alias    = flag.Int("alias", -1, "override generator store-to-load alias distance")
		jsonOut  = flag.Bool("json", false, "print campaign stats as JSON")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *repro != "" {
		os.Exit(replay(ctx, *repro, *smoke, *ckpt))
	}

	cells, gen := diffsim.DefaultLattice(), progen.DefaultConfig()
	if *smoke {
		cells, gen = diffsim.SmokeLattice(), progen.SmokeConfig()
	}
	if *trips > 0 {
		gen.OuterTrips = *trips
	}
	if *actions > 0 {
		gen.BodyActions = *actions
	}
	if *alias >= 0 {
		gen.AliasDistance = *alias
	}

	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	start := time.Now()
	lastReport := start
	var ckptEvery int64
	if *ckpt {
		ckptEvery = diffsim.AutoCheckpoint
	}
	cfg := diffsim.CampaignConfig{
		SeedBase:        *seedBase,
		Programs:        *programs,
		Gen:             gen,
		Cells:           cells,
		Shrink:          !*noShrink,
		CheckpointEvery: ckptEvery,
		OnProgram: func(done int, st *diffsim.CampaignStats) {
			if *quiet {
				return
			}
			if now := time.Now(); now.Sub(lastReport) >= 2*time.Second {
				lastReport = now
				fmt.Fprintf(os.Stderr, "fleafuzz: %d/%d programs, %d cell runs, %d findings (%.0f prog/s)\n",
					done, *programs, st.CellRuns, len(st.Findings), float64(done)/now.Sub(start).Seconds())
			}
		},
	}

	st, err := diffsim.RunCampaign(ctx, cfg)
	elapsed := time.Since(start)
	if err != nil && ctx.Err() == nil {
		fatal(err)
	}

	written, werr := writeCorpus(*corpus, st)
	if werr != nil {
		fatal(werr)
	}

	if *jsonOut {
		printJSON(st, cells, elapsed)
	} else {
		printSummary(st, cells, elapsed, written)
	}
	if len(st.Findings) > 0 {
		os.Exit(1)
	}
}

// replay runs one reproducer across the lattice, printing each cell's
// verdict and the structured state diff for any divergence.
func replay(ctx context.Context, path string, smoke, ckpt bool) int {
	prog, err := program.LoadFlea(path)
	if err != nil {
		fatal(err)
	}
	cells := diffsim.DefaultLattice()
	if smoke {
		cells = diffsim.SmokeLattice()
	}
	var copts []diffsim.CheckerOption
	if ckpt {
		copts = append(copts, diffsim.WithCheckpointing(diffsim.AutoCheckpoint))
	}
	checker := diffsim.NewChecker(cells, copts...)
	res, err := checker.Check(ctx, prog)
	if err != nil {
		fatal(err)
	}
	if res.RefErr != nil {
		fatal(fmt.Errorf("reference executor could not run %s: %w", path, res.RefErr))
	}
	fmt.Printf("%s: %d instructions, %d dynamic (reference)\n", path, len(prog.Insts), res.RefInstructions)
	bad := map[diffsim.Cell]diffsim.Divergence{}
	for _, d := range res.Divergences {
		bad[d.Cell] = d
	}
	for _, cell := range cells {
		if d, ok := bad[cell]; ok {
			fmt.Printf("  %-14v DIVERGED\n    %v\n", cell, d)
		} else {
			fmt.Printf("  %-14v ok\n", cell)
		}
	}
	if len(res.Divergences) > 0 {
		return 1
	}
	fmt.Println("all cells agree with the reference executor")
	return 0
}

// writeCorpus persists each finding's minimized (or, unshrunk, original)
// program as a .flea reproducer.
func writeCorpus(dir string, st *diffsim.CampaignStats) ([]string, error) {
	if dir == "" || len(st.Findings) == 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	for _, f := range st.Findings {
		p := f.Minimized
		if p == nil {
			p = f.Program
		}
		path := filepath.Join(dir, fmt.Sprintf("repro-seed%d.flea", f.Seed))
		if err := os.WriteFile(path, p.MarshalFlea(), 0o644); err != nil {
			return written, err
		}
		written = append(written, path)
	}
	return written, nil
}

func printSummary(st *diffsim.CampaignStats, cells []diffsim.Cell, elapsed time.Duration, written []string) {
	fmt.Printf("campaign    %d programs checked, %d skipped, %d lattice cells\n",
		st.Programs, st.Skipped, len(cells))
	fmt.Printf("work        %d cell runs, %d reference instructions, %.1fs (%.0f prog/s)\n",
		st.CellRuns, st.RefInstructions, elapsed.Seconds(), float64(st.Programs)/elapsed.Seconds())
	if len(st.Findings) == 0 {
		fmt.Println("verdict     all models agree with the reference executor on every program")
		return
	}
	fmt.Printf("verdict     %d DIVERGING PROGRAMS\n", len(st.Findings))
	for _, f := range st.Findings {
		fmt.Printf("  %v\n", f)
		for _, d := range f.Divergences {
			fmt.Printf("    %v\n", d)
		}
	}
	for _, p := range written {
		fmt.Printf("reproducer written: %s\n", p)
	}
}

func printJSON(st *diffsim.CampaignStats, cells []diffsim.Cell, elapsed time.Duration) {
	type finding struct {
		Seed      int64    `json:"seed"`
		Cells     []string `json:"cells"`
		Minimized int      `json:"minimized_insts,omitempty"`
	}
	out := struct {
		Programs        int       `json:"programs"`
		Skipped         int       `json:"skipped"`
		Cells           int       `json:"cells"`
		CellRuns        int64     `json:"cell_runs"`
		RefInstructions int64     `json:"ref_instructions"`
		ElapsedSeconds  float64   `json:"elapsed_seconds"`
		Findings        []finding `json:"findings"`
	}{
		Programs: st.Programs, Skipped: st.Skipped, Cells: len(cells),
		CellRuns: st.CellRuns, RefInstructions: st.RefInstructions,
		ElapsedSeconds: elapsed.Seconds(), Findings: []finding{},
	}
	for _, f := range st.Findings {
		fd := finding{Seed: f.Seed}
		for _, d := range f.Divergences {
			fd.Cells = append(fd.Cells, d.Cell.String())
		}
		if f.Minimized != nil {
			fd.Minimized = len(f.Minimized.Insts)
		}
		out.Findings = append(out.Findings, fd)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleafuzz:", err)
	os.Exit(2)
}
