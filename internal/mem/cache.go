package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	Assoc     int // ways per set
	LineBytes int // line size (power of two)
	Latency   int // total load-use latency when the access is served here
}

func (c CacheConfig) validate(name string) error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s line size %d is not a positive power of two", name, c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("mem: %s associativity %d must be positive", name, c.Assoc)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines <= 0 || lines%c.Assoc != 0 {
		return fmt.Errorf("mem: %s size/line/assoc %d/%d/%d does not divide into whole sets",
			name, c.SizeBytes, c.LineBytes, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s set count %d is not a power of two", name, sets)
	}
	return nil
}

// CacheStats counts the traffic seen by one cache.
type CacheStats struct {
	Accesses   int64
	Misses     int64
	Writebacks int64
}

type way struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64 // last-touch tick; larger = more recent
}

// cache is a timing-only set-associative cache with LRU replacement. It
// holds no data — the functional Image is the single source of values.
type cache struct {
	cfg       CacheConfig
	lineShift uint
	setShift  uint
	setMask   uint32
	sets      [][]way
	tick      uint64
	stats     CacheStats
	// touched has one bit per set, set by every fill into that set. Only
	// fill and restoreState (which marks every set) write an invalid way;
	// lookup and setDirty update valid ways alone. So the sets whose bits
	// are clear still hold their zero value, and reset skips them.
	touched []uint64
}

func newCache(cfg CacheConfig, name string) *cache {
	if err := cfg.validate(name); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	setShift := uint(0)
	for 1<<setShift != nsets {
		setShift++
	}
	sets := make([][]way, nsets)
	backing := make([]way, nsets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	return &cache{cfg: cfg, lineShift: shift, setShift: setShift, setMask: uint32(nsets - 1), sets: sets,
		touched: make([]uint64, (nsets+63)/64)}
}

// reset returns the cache to newCache's state, clearing only the sets a fill
// or a restore may have written.
func (c *cache) reset() {
	for i, word := range c.touched {
		for word != 0 {
			clear(c.sets[i*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
		c.touched[i] = 0
	}
	c.tick = 0
	c.stats = CacheStats{}
}

// touchAll marks every set as possibly written.
func (c *cache) touchAll() {
	for s := range c.sets {
		c.touched[s>>6] |= 1 << (s & 63)
	}
}

//flea:hotpath
func (c *cache) index(addr uint32) (set uint32, tag uint32) {
	line := addr >> c.lineShift
	return line & c.setMask, line >> c.setShift
}

// lineOf returns the line number containing addr.
//
//flea:hotpath
func (c *cache) lineOf(addr uint32) uint32 { return addr >> c.lineShift }

// lookup probes for addr; on hit the line's LRU state is refreshed.
//
//flea:hotpath
func (c *cache) lookup(addr uint32) bool {
	c.tick++
	c.stats.Accesses++
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			w.lru = c.tick
			return true
		}
	}
	c.stats.Misses++
	return false
}

// fill installs the line containing addr, evicting the LRU way if needed.
// It reports whether a dirty line was written back.
//
//flea:hotpath
func (c *cache) fill(addr uint32, dirty bool) (writeback bool) {
	c.tick++
	set, tag := c.index(addr)
	c.touched[set>>6] |= 1 << (set & 63)
	victim := 0
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag { // already present (racing fill)
			w.lru = c.tick
			w.dirty = w.dirty || dirty
			return false
		}
		if !w.valid {
			victim = i
			break
		}
		if c.sets[set][i].lru < c.sets[set][victim].lru {
			victim = i
		}
	}
	w := &c.sets[set][victim]
	writeback = w.valid && w.dirty
	if writeback {
		c.stats.Writebacks++
	}
	*w = way{tag: tag, valid: true, dirty: dirty, lru: c.tick}
	return writeback
}

// setDirty marks the line containing addr dirty if present; reports presence.
//
//flea:hotpath
func (c *cache) setDirty(addr uint32) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			w.dirty = true
			w.lru = c.tick
			return true
		}
	}
	return false
}
