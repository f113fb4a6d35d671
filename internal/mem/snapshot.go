package mem

import "fmt"

// This file exposes the hierarchy's mutable timing state for machine
// checkpoints (internal/checkpoint): every cache way, the LRU clocks, the
// traffic statistics, and the in-flight fill pool. All of it is slice-backed,
// so capture and restore are deterministic by construction.

// WayState is the serializable state of one cache way.
type WayState struct {
	Tag   uint32
	Valid bool
	Dirty bool
	LRU   uint64
}

// CacheState is the serializable state of one cache level: its ways in
// set-major order, the LRU clock, and the level's traffic counters.
type CacheState struct {
	Ways  []WayState
	Tick  uint64
	Stats CacheStats
}

// InflightFill is one pending L1D fill (absolute completion cycle).
type InflightFill struct {
	Line  uint32
	Done  int64
	Level Level
}

// HierarchyState is the full serializable state of a Hierarchy.
type HierarchyState struct {
	L1I, L1D, L2, L3 CacheState
	// Base holds the hierarchy-level counters (served levels, stores); its
	// per-cache fields are zero — cache traffic lives in each CacheState.
	Base Stats
	// Inflight holds the pending fills, in issue order.
	Inflight []InflightFill
}

func (c *cache) captureState() CacheState {
	s := CacheState{Ways: make([]WayState, 0, len(c.sets)*c.cfg.Assoc), Tick: c.tick, Stats: c.stats}
	for _, set := range c.sets {
		for _, w := range set {
			s.Ways = append(s.Ways, WayState{Tag: w.tag, Valid: w.valid, Dirty: w.dirty, LRU: w.lru})
		}
	}
	return s
}

func (c *cache) restoreState(s CacheState, name string) error {
	if len(s.Ways) != len(c.sets)*c.cfg.Assoc {
		return fmt.Errorf("mem: %s snapshot has %d ways, cache has %d (geometry mismatch)",
			name, len(s.Ways), len(c.sets)*c.cfg.Assoc)
	}
	c.touchAll()
	i := 0
	for _, set := range c.sets {
		for j := range set {
			w := s.Ways[i]
			set[j] = way{tag: w.Tag, valid: w.Valid, dirty: w.Dirty, lru: w.LRU}
			i++
		}
	}
	c.tick = s.Tick
	c.stats = s.Stats
	return nil
}

// CaptureState snapshots the hierarchy's mutable timing state. The result is
// independent of the hierarchy (safe to retain across further simulation).
func (h *Hierarchy) CaptureState() *HierarchyState {
	s := &HierarchyState{
		L1I:  h.l1i.captureState(),
		L1D:  h.l1d.captureState(),
		L2:   h.l2.captureState(),
		L3:   h.l3.captureState(),
		Base: h.stats,
	}
	s.Inflight = make([]InflightFill, 0, len(h.inflight))
	for _, f := range h.inflight {
		s.Inflight = append(s.Inflight, InflightFill{Line: f.line, Done: f.done, Level: f.level})
	}
	return s
}

// RestoreState reinstates a captured hierarchy state. The hierarchy must have
// the same configuration the state was captured under.
func (h *Hierarchy) RestoreState(s *HierarchyState) error {
	if err := h.l1i.restoreState(s.L1I, "L1I"); err != nil {
		return err
	}
	if err := h.l1d.restoreState(s.L1D, "L1D"); err != nil {
		return err
	}
	if err := h.l2.restoreState(s.L2, "L2"); err != nil {
		return err
	}
	if err := h.l3.restoreState(s.L3, "L3"); err != nil {
		return err
	}
	h.stats = s.Base
	h.inflight = h.inflight[:0]
	for _, f := range s.Inflight {
		h.inflight = append(h.inflight, inflightFill{line: f.Line, done: f.Done, level: f.Level})
	}
	return nil
}
