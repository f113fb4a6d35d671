// Package sched is the compile-time instruction scheduler standing in for
// the paper's IMPACT compiler back end: it re-schedules each basic block
// into dense EPIC issue groups by latency-weighted list scheduling under the
// machine's functional-unit constraints, assuming cache-hit latencies for
// loads — exactly the compiler assumption whose violation (unanticipated
// misses) the two-pass pipeline exists to absorb.
//
// The scheduler preserves program semantics: it reorders instructions only
// within basic blocks, honours register flow/anti/output dependences
// (including qualifying predicates) and conservative memory dependences, and
// remaps branch targets and labels to the new layout. Return addresses
// produced by br.call remain correct because they are defined positionally
// (PC+1) at execution time. Programs containing br.ind are rejected: their
// targets live in data as instruction indices the scheduler cannot see.
package sched

import (
	"fmt"
	"sort"

	"fleaflicker/internal/isa"
	"fleaflicker/internal/machine"
	"fleaflicker/internal/program"
)

// Config bounds the schedule.
type Config struct {
	IssueWidth int
	FUs        [isa.NumFUClasses]int
	// AssumedLoadLatency is the load latency the scheduler plans for
	// (the L1D hit latency; Table 1: 2 cycles).
	AssumedLoadLatency int
}

// DefaultConfig matches the Table 1 machine.
func DefaultConfig() Config {
	table1 := machine.DefaultConfig()
	return Config{
		IssueWidth:         table1.IssueWidth,
		FUs:                table1.FUs,
		AssumedLoadLatency: table1.Mem.L1D.Latency,
	}
}

// Stats summarizes a scheduling run.
type Stats struct {
	Blocks       int
	GroupsBefore int
	GroupsAfter  int
}

// Schedule returns a new program with each basic block re-scheduled into
// issue groups. The input program is not modified.
func Schedule(p *program.Program, cfg Config) (*program.Program, *Stats, error) {
	for i := range p.Insts {
		if p.Insts[i].Op == isa.OpBrInd {
			return nil, nil, fmt.Errorf("sched: program %q uses br.ind at %d; its data-held targets cannot be remapped", p.Name, i)
		}
	}
	leaders := findLeaders(p)
	st := &Stats{Blocks: len(leaders), GroupsBefore: countGroups(p.Insts)}

	out := &program.Program{
		Name:   p.Name,
		Labels: make(map[string]int32, len(p.Labels)),
		Data:   p.Data,
	}
	newStart := make(map[int32]int32, len(leaders)) // old leader -> new index
	for bi, start := range leaders {
		end := int32(len(p.Insts))
		if bi+1 < len(leaders) {
			end = leaders[bi+1]
		}
		newStart[start] = int32(len(out.Insts))
		scheduled := scheduleBlock(p.Insts[start:end], cfg)
		out.Insts = append(out.Insts, scheduled...)
	}
	// Remap branch targets, labels and the entry point.
	for i := range out.Insts {
		in := &out.Insts[i]
		if in.Op.IsBranch() && in.Op != isa.OpBrRet && in.Op != isa.OpBrInd {
			ns, ok := newStart[in.Target]
			if !ok {
				return nil, nil, fmt.Errorf("sched: branch target %d is not a block leader", in.Target)
			}
			in.Target = ns
		}
	}
	for name, old := range p.Labels {
		if ns, ok := newStart[old]; ok {
			out.Labels[name] = ns
		}
	}
	if ns, ok := newStart[p.Entry]; ok {
		out.Entry = ns
	} else {
		return nil, nil, fmt.Errorf("sched: entry %d is not a block leader", p.Entry)
	}
	if n := len(out.Insts); n > 0 {
		out.Insts[n-1].Stop = true
	}
	st.GroupsAfter = countGroups(out.Insts)
	if err := out.Validate(cfg.IssueWidth, cfg.FUs); err != nil {
		return nil, nil, fmt.Errorf("sched: produced invalid program: %w", err)
	}
	return out, st, nil
}

// MustSchedule is Schedule panicking on error, for statically known kernels.
func MustSchedule(p *program.Program, cfg Config) *program.Program {
	out, _, err := Schedule(p, cfg)
	if err != nil {
		panic(err)
	}
	return out
}

// findLeaders returns the sorted basic-block leader indices: instruction 0,
// the entry, every branch target, and every instruction following a branch
// or halt.
func findLeaders(p *program.Program) []int32 {
	set := map[int32]bool{0: true, p.Entry: true}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsBranch() || in.Op == isa.OpHalt {
			if in.Op != isa.OpBrRet && in.Op != isa.OpBrInd && in.Op != isa.OpHalt {
				set[in.Target] = true
			}
			if i+1 < len(p.Insts) {
				set[int32(i+1)] = true
			}
		}
	}
	leaders := make([]int32, 0, len(set))
	for l := range set {
		leaders = append(leaders, l)
	}
	sort.Slice(leaders, func(i, j int) bool { return leaders[i] < leaders[j] })
	return leaders
}

func countGroups(insts []isa.Inst) int {
	n := 0
	for i := range insts {
		if insts[i].Stop || i == len(insts)-1 {
			n++
		}
	}
	return n
}

// dep is one scheduling edge: consumer may start `lat` cycles after
// producer. lat 0 permits the same issue group with the producer ordered
// first (EPIC within-group reads see pre-group state, so anti-dependences
// and ordered memory pairs may share a group).
type dep struct {
	pred int
	lat  int
}

// scheduleBlock list-schedules one basic block.
func scheduleBlock(insts []isa.Inst, cfg Config) []isa.Inst {
	n := len(insts)
	if n == 0 {
		return nil
	}
	deps := buildDeps(insts, cfg)

	// Priority: longest latency path to the end of the block.
	height := make([]int, n)
	succs := make([][]dep, n)
	for j := 0; j < n; j++ {
		for _, d := range deps[j] {
			succs[d.pred] = append(succs[d.pred], dep{pred: j, lat: d.lat})
		}
	}
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, s := range succs[i] {
			if v := height[s.pred] + s.lat; v > h {
				h = v
			}
		}
		height[i] = h + 1
	}

	schedCycle := make([]int, n)
	for i := range schedCycle {
		schedCycle[i] = -1
	}
	order := make([]int, 0, n)
	cycle := 0
	scheduled := 0
	for scheduled < n {
		var width int
		var classUsed [isa.NumFUClasses]int
		progress := true
		for progress && width < cfg.IssueWidth {
			progress = false
			best := -1
			for i := 0; i < n; i++ {
				if schedCycle[i] >= 0 || !ready(i, deps[i], schedCycle, cycle) {
					continue
				}
				cls := insts[i].Op.Class()
				if cfg.FUs[cls] > 0 && classUsed[cls] >= cfg.FUs[cls] {
					continue
				}
				if best < 0 || height[i] > height[best] {
					best = i
				}
			}
			if best >= 0 {
				schedCycle[best] = cycle
				classUsed[insts[best].Op.Class()]++
				width++
				scheduled++
				order = append(order, best)
				progress = true
			}
		}
		cycle++
	}

	// Emit: groups in cycle order; within a group, original program order
	// (required for latency-0 edges).
	sort.SliceStable(order, func(a, b int) bool {
		if schedCycle[order[a]] != schedCycle[order[b]] {
			return schedCycle[order[a]] < schedCycle[order[b]]
		}
		return order[a] < order[b]
	})
	out := make([]isa.Inst, 0, n)
	for k, idx := range order {
		in := insts[idx]
		in.Stop = k+1 == n || schedCycle[order[k+1]] != schedCycle[idx]
		out = append(out, in)
	}
	return out
}

func ready(i int, preds []dep, schedCycle []int, cycle int) bool {
	for _, d := range preds {
		pc := schedCycle[d.pred]
		if pc < 0 || pc+d.lat > cycle {
			return false
		}
	}
	return true
}

// buildDeps constructs the dependence edges of one block.
func buildDeps(insts []isa.Inst, cfg Config) [][]dep {
	n := len(insts)
	deps := make([][]dep, n)
	add := func(to, from, lat int) {
		if from < 0 || from == to {
			return
		}
		deps[to] = append(deps[to], dep{pred: from, lat: lat})
	}
	latency := func(i int) int {
		if insts[i].Op.IsLoad() {
			return cfg.AssumedLoadLatency
		}
		return insts[i].Op.Latency()
	}

	lastWriter := make(map[isa.Reg]int)
	lastReaders := make(map[isa.Reg][]int)
	lastStore := -1
	loadsSinceStore := []int{}
	var srcs []isa.Reg

	for i := 0; i < n; i++ {
		in := &insts[i]
		srcs = in.Sources(srcs[:0])
		for _, s := range srcs {
			if w, ok := lastWriter[s]; ok {
				add(i, w, latency(w)) // RAW
			}
		}
		if in.HasDest() {
			d := in.Dst
			if w, ok := lastWriter[d]; ok {
				add(i, w, 1) // WAW: writers in distinct groups, in order
			}
			for _, r := range lastReaders[d] {
				add(i, r, 0) // WAR: same group permitted, reader first
			}
			lastWriter[d] = i
			delete(lastReaders, d)
		}
		for _, s := range srcs {
			lastReaders[s] = append(lastReaders[s], i)
		}
		switch {
		case in.Op.IsLoad():
			if lastStore >= 0 {
				add(i, lastStore, 1) // conservative store→load flow
			}
			loadsSinceStore = append(loadsSinceStore, i)
		case in.Op.IsStore():
			if lastStore >= 0 {
				add(i, lastStore, 0) // output: ordered, same group allowed
			}
			for _, l := range loadsSinceStore {
				add(i, l, 0) // anti: ordered, same group allowed
			}
			lastStore = i
			loadsSinceStore = loadsSinceStore[:0]
		case in.Op.IsBranch() || in.Op == isa.OpHalt:
			// The block terminator must be last: order it after every
			// other instruction (latency 0 permits sharing its group).
			for j := 0; j < i; j++ {
				add(i, j, 0)
			}
		}
	}
	return deps
}
