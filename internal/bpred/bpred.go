// Package bpred implements the branch prediction hardware of the simulated
// front end: a gshare conditional-direction predictor (1024-entry table of
// 2-bit counters in the paper's configuration, Table 1), a direct-mapped BTB
// for indirect-branch targets, and a small return-address stack for
// call/return pairs.
package bpred

import "fmt"

// Checkpoint captures the speculative predictor state at a prediction point
// so it can be repaired when the branch resolves as mispredicted.
type Checkpoint struct {
	GHR uint32
}

// Config sizes the predictor.
type Config struct {
	PHTEntries int // gshare pattern history table entries (power of two)
	HistBits   uint
	BTBEntries int // indirect-target buffer entries (power of two)
	RASEntries int // return-address stack depth
}

// DefaultConfig matches Table 1: a 1024-entry gshare (10 bits of global
// history), with a 256-entry BTB and an 8-deep RAS for the indirect branches
// the paper's predictor leaves unspecified.
func DefaultConfig() Config {
	return Config{PHTEntries: 1024, HistBits: 10, BTBEntries: 256, RASEntries: 8}
}

// Predictor is the front-end branch predictor. Direction predictions update
// the global history speculatively at predict time; Resolve repairs the
// history on a misprediction.
type Predictor struct {
	cfg Config

	pht []uint8 // 2-bit saturating counters, initialized weakly taken
	ghr uint32

	btb       []int32 // predicted target per entry, -1 = empty
	btbTagged []int32 // pc tag per entry

	ras    []int32
	rasTop int // number of live entries

	// Lookups and Mispredicts count conditional-direction work, for
	// reports.
	Lookups     int64
	Mispredicts int64
}

// Validate reports a table size New rejects: PHTEntries and BTBEntries
// must be positive powers of two.
func (c Config) Validate() error {
	if c.PHTEntries <= 0 || c.PHTEntries&(c.PHTEntries-1) != 0 {
		return fmt.Errorf("bpred: PHTEntries %d is not a positive power of two", c.PHTEntries)
	}
	if c.BTBEntries <= 0 || c.BTBEntries&(c.BTBEntries-1) != 0 {
		return fmt.Errorf("bpred: BTBEntries %d is not a positive power of two", c.BTBEntries)
	}
	return nil
}

// New builds a predictor; panics on a config Validate rejects.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:       cfg,
		pht:       make([]uint8, cfg.PHTEntries),
		btb:       make([]int32, cfg.BTBEntries),
		btbTagged: make([]int32, cfg.BTBEntries),
		ras:       make([]int32, cfg.RASEntries),
	}
	p.Reset()
	return p
}

// Config returns the configuration the predictor was built with.
func (p *Predictor) Config() Config { return p.cfg }

// Reset returns the predictor to the state New builds: every counter weakly
// taken, empty history, BTB and return stack, and zero counts.
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 2 // weakly taken
	}
	p.ghr = 0
	clear(p.btb)
	for i := range p.btbTagged {
		p.btbTagged[i] = -1
	}
	clear(p.ras)
	p.rasTop = 0
	p.Lookups, p.Mispredicts = 0, 0
}

func (p *Predictor) phtIndex(pc int32) uint32 {
	return (uint32(pc) ^ p.ghr) & uint32(p.cfg.PHTEntries-1)
}

// PredictCond predicts the direction of the conditional branch at pc and
// speculatively shifts the prediction into the global history. The returned
// checkpoint restores the history if the branch mispredicts.
func (p *Predictor) PredictCond(pc int32) (taken bool, cp Checkpoint) {
	p.Lookups++
	cp = Checkpoint{GHR: p.ghr}
	taken = p.pht[p.phtIndex(pc)] >= 2
	p.shiftGHR(taken)
	return taken, cp
}

func (p *Predictor) shiftGHR(taken bool) {
	p.ghr = (p.ghr << 1) & (1<<p.cfg.HistBits - 1)
	if taken {
		p.ghr |= 1
	}
}

// Resolve trains the predictor with the actual outcome of the conditional
// branch at pc predicted under cp, repairing the speculative history if the
// prediction was wrong. It reports whether the direction was mispredicted.
func (p *Predictor) Resolve(pc int32, cp Checkpoint, predicted, actual bool) (mispredicted bool) {
	// Train the counter under the history the prediction used.
	idx := (uint32(pc) ^ cp.GHR) & uint32(p.cfg.PHTEntries-1)
	if actual {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	if predicted == actual {
		return false
	}
	p.Mispredicts++
	p.ghr = cp.GHR
	p.shiftGHR(actual)
	return true
}

// PredictIndirect returns the BTB's target for the indirect branch at pc.
// ok is false on a BTB miss (the front end then stalls until resolution, a
// guaranteed redirect).
func (p *Predictor) PredictIndirect(pc int32) (target int32, ok bool) {
	i := uint32(pc) & uint32(p.cfg.BTBEntries-1)
	if p.btbTagged[i] != pc {
		return 0, false
	}
	return p.btb[i], true
}

// UpdateIndirect records the resolved target of the indirect branch at pc.
func (p *Predictor) UpdateIndirect(pc, target int32) {
	i := uint32(pc) & uint32(p.cfg.BTBEntries-1)
	p.btbTagged[i] = pc
	p.btb[i] = target
}

// PushRAS records a call's return address at fetch time.
func (p *Predictor) PushRAS(retPC int32) {
	if len(p.ras) == 0 {
		return
	}
	if p.rasTop == len(p.ras) {
		copy(p.ras, p.ras[1:])
		p.rasTop--
	}
	p.ras[p.rasTop] = retPC
	p.rasTop++
}

// PopRAS predicts a return's target. ok is false when the stack is empty.
// The stack is speculative and is not repaired on mispredictions; corruption
// self-heals as new calls push fresh entries.
func (p *Predictor) PopRAS() (target int32, ok bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop], true
}
