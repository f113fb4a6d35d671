package mem

// Level identifies where in the hierarchy an access was served.
type Level int

// Hierarchy levels, ordered nearest-first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMem
	NumLevels
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "Mem"
	}
	return "?"
}

// Config describes the whole hierarchy. DefaultConfig matches Table 1 of the
// paper.
type Config struct {
	L1I        CacheConfig
	L1D        CacheConfig
	L2         CacheConfig
	L3         CacheConfig
	MemLatency int
	// MaxOutstanding bounds the number of data-load misses in flight
	// ("Max Outstanding Loads", Table 1).
	MaxOutstanding int
}

// DefaultConfig returns the machine configuration of Table 1:
// L1I/L1D 2-cycle 16KB 4-way 64B, L2 5-cycle 256KB 8-way 128B,
// L3 15-cycle 1.5MB 12-way 128B, main memory 145 cycles, 16 outstanding
// loads.
func DefaultConfig() Config {
	return Config{
		L1I:            CacheConfig{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, Latency: 2},
		L1D:            CacheConfig{SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64, Latency: 2},
		L2:             CacheConfig{SizeBytes: 256 << 10, Assoc: 8, LineBytes: 128, Latency: 5},
		L3:             CacheConfig{SizeBytes: 1536 << 10, Assoc: 12, LineBytes: 128, Latency: 15},
		MemLatency:     145,
		MaxOutstanding: 16,
	}
}

// Stats aggregates hierarchy traffic.
type Stats struct {
	L1I, L1D, L2, L3 CacheStats
	// DataServed[lvl] counts data loads served at each level.
	DataServed [NumLevels]int64
	// FetchServed[lvl] counts instruction fetches served at each level.
	FetchServed [NumLevels]int64
	Stores      int64
}

// Hierarchy is the timing model of the cache/memory system. It is
// deliberately data-free: values live in the functional Image, and the
// hierarchy answers only "how long does this access take, and which level
// served it?". Fills are eager (a missing line is installed at access time)
// with in-flight misses tracked separately so that accesses to a line already
// being fetched complete when that fetch does rather than starting a new one.
type Hierarchy struct {
	cfg   Config
	l1i   *cache
	l1d   *cache
	l2    *cache
	l3    *cache
	stats Stats

	// inflight holds the pending L1D fills (completion cycle and serving
	// level per line); used for MSHR occupancy, miss merging, and
	// attribution of merged accesses. It is a small slice, not a map: it
	// holds at most MaxOutstanding entries, so linear scans beat hashing
	// and the backing array is reused forever (no per-miss allocation).
	inflight []inflightFill
	// needScratch is CanAcceptLoads' reusable distinct-missing-lines
	// buffer.
	needScratch []uint32
}

type inflightFill struct {
	line  uint32
	done  int64
	level Level
}

// findInflight returns the pending fill for line, or nil.
//
//flea:hotpath
func (h *Hierarchy) findInflight(line uint32) *inflightFill {
	for i := range h.inflight {
		if h.inflight[i].line == line {
			return &h.inflight[i]
		}
	}
	return nil
}

// NewHierarchy builds a hierarchy; panics on invalid configuration (a
// configuration is program input, not runtime data).
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg:      cfg,
		l1i:      newCache(cfg.L1I, "L1I"),
		l1d:      newCache(cfg.L1D, "L1D"),
		l2:       newCache(cfg.L2, "L2"),
		l3:       newCache(cfg.L3, "L3"),
		inflight: make([]inflightFill, 0, cfg.MaxOutstanding),
	}
}

// Reset returns the hierarchy to exactly the state NewHierarchy(h.Config())
// builds — cold caches, zero LRU clocks and statistics, no fills in flight —
// without reallocating it. Its cost follows the sets the previous run
// touched, not the configured capacity, which is what lets repeated short
// simulations recycle one hierarchy (see pipeline.Arena.Hierarchy).
func (h *Hierarchy) Reset() {
	h.l1i.reset()
	h.l1d.reset()
	h.l2.reset()
	h.l3.reset()
	h.stats = Stats{}
	h.inflight = h.inflight[:0]
	h.needScratch = h.needScratch[:0]
}

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.L1I, s.L1D, s.L2, s.L3 = h.l1i.stats, h.l1d.stats, h.l2.stats, h.l3.stats
	return s
}

//flea:hotpath
func (h *Hierarchy) purgeInflight(now int64) {
	kept := h.inflight[:0]
	for _, f := range h.inflight {
		if f.done > now {
			kept = append(kept, f)
		}
	}
	h.inflight = kept
}

// Outstanding returns the number of data-load misses still in flight at now.
//
//flea:hotpath
func (h *Hierarchy) Outstanding(now int64) int {
	h.purgeInflight(now)
	return len(h.inflight)
}

// CanAcceptLoad reports whether a data load issued at now could obtain a miss
// slot if it misses the L1D. Loads that would hit (or merge with an in-flight
// line) are always acceptable.
//
//flea:hotpath
func (h *Hierarchy) CanAcceptLoad(addr uint32, now int64) bool {
	h.purgeInflight(now)
	if len(h.inflight) < h.cfg.MaxOutstanding {
		return true
	}
	if h.findInflight(h.l1d.lineOf(addr)) != nil {
		return true
	}
	// A full MSHR pool still permits L1 hits.
	set, tag := h.l1d.index(addr)
	for i := range h.l1d.sets[set] {
		w := &h.l1d.sets[set][i]
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// CanAcceptLoads reports whether all the given loads, issued together at
// now, can obtain miss slots. Distinct missing lines each need a slot;
// L1-resident and in-flight lines do not.
//
//flea:hotpath
func (h *Hierarchy) CanAcceptLoads(addrs []uint32, now int64) bool {
	h.purgeInflight(now)
	free := h.cfg.MaxOutstanding - len(h.inflight)
	needed := h.needScratch[:0]
lines:
	for _, addr := range addrs {
		line := h.l1d.lineOf(addr)
		if h.findInflight(line) != nil {
			continue
		}
		set, tag := h.l1d.index(addr)
		for i := range h.l1d.sets[set] {
			w := &h.l1d.sets[set][i]
			if w.valid && w.tag == tag {
				continue lines
			}
		}
		for _, l := range needed {
			if l == line {
				continue lines
			}
		}
		needed = append(needed, line)
	}
	h.needScratch = needed
	return len(needed) <= free
}

// Load performs a data load at cycle now and returns its total load-use
// latency and the level that served it. The caller must have checked
// CanAcceptLoad; a load that misses with a full MSHR pool panics, because it
// indicates a machine-model bug (machines must stall or defer instead).
//
//flea:hotpath
func (h *Hierarchy) Load(addr uint32, now int64) (latency int, served Level) {
	h.purgeInflight(now)
	line := h.l1d.lineOf(addr)
	if f := h.findInflight(line); f != nil && f.done > now {
		// Merge with the in-flight fill of the same line: the access
		// completes when the pending fill does and is attributed to the
		// level that fill came from.
		h.l1d.stats.Accesses++
		lat := int(f.done - now)
		if lat < h.cfg.L1D.Latency {
			lat = h.cfg.L1D.Latency
		}
		h.stats.DataServed[f.level]++
		return lat, f.level
	}
	if h.l1d.lookup(addr) {
		h.stats.DataServed[LevelL1]++
		return h.cfg.L1D.Latency, LevelL1
	}
	// L1D miss: find the serving level, fill inward.
	var lat int
	if h.l2.lookup(addr) {
		lat, served = h.cfg.L2.Latency, LevelL2
	} else if h.l3.lookup(addr) {
		lat, served = h.cfg.L3.Latency, LevelL3
		h.l2.fill(addr, false)
	} else {
		lat, served = h.cfg.MemLatency, LevelMem
		h.l3.fill(addr, false)
		h.l2.fill(addr, false)
	}
	h.l1d.fill(addr, false)
	if len(h.inflight) >= h.cfg.MaxOutstanding {
		panic("mem: Load issued with MSHR pool full; caller must check CanAcceptLoad")
	}
	h.inflight = append(h.inflight, inflightFill{line: line, done: now + int64(lat), level: served})
	h.stats.DataServed[served]++
	return lat, served
}

// Store performs a data store at cycle now. Stores are absorbed by the store
// buffer / write path and do not stall the pipeline, but they do perturb the
// cache contents (write-allocate, write-back).
//
//flea:hotpath
func (h *Hierarchy) Store(addr uint32, now int64) {
	h.stats.Stores++
	if h.l1d.lookup(addr) {
		h.l1d.setDirty(addr)
		return
	}
	if !h.l2.lookup(addr) {
		if !h.l3.lookup(addr) {
			h.l3.fill(addr, false)
		}
		h.l2.fill(addr, false)
	}
	h.l1d.fill(addr, true)
}

// Fetch performs an instruction fetch of the line containing addr and
// returns its latency and serving level. Instruction misses do not consume
// data MSHRs.
//
//flea:hotpath
func (h *Hierarchy) Fetch(addr uint32, now int64) (latency int, served Level) {
	if h.l1i.lookup(addr) {
		h.stats.FetchServed[LevelL1]++
		return h.cfg.L1I.Latency, LevelL1
	}
	var lat int
	if h.l2.lookup(addr) {
		lat, served = h.cfg.L2.Latency, LevelL2
	} else if h.l3.lookup(addr) {
		lat, served = h.cfg.L3.Latency, LevelL3
		h.l2.fill(addr, false)
	} else {
		lat, served = h.cfg.MemLatency, LevelMem
		h.l3.fill(addr, false)
		h.l2.fill(addr, false)
	}
	h.l1i.fill(addr, false)
	h.stats.FetchServed[served]++
	return lat, served
}

// L1ILatency returns the instruction-cache hit latency: the part of a
// Fetch latency the front-end pipeline depth already covers.
//
//flea:hotpath
//flea:inline
func (h *Hierarchy) L1ILatency() int { return h.cfg.L1I.Latency }

// LineBytesI returns the instruction-cache line size, used by fetch engines
// to detect line crossings.
func (h *Hierarchy) LineBytesI() int { return h.cfg.L1I.LineBytes }

// Levels returns the load-use latency of each level, for reports that scale
// access counts by latency (Figure 7).
func (h *Hierarchy) Levels() [NumLevels]int {
	return [NumLevels]int{
		LevelL1:  h.cfg.L1D.Latency,
		LevelL2:  h.cfg.L2.Latency,
		LevelL3:  h.cfg.L3.Latency,
		LevelMem: h.cfg.MemLatency,
	}
}
