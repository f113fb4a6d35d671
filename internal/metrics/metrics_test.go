package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.SharedCounter("jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.SharedCounter("jobs"); again != c {
		t.Error("SharedCounter should return the same handle for the same name")
	}
	g := r.SharedGauge("queue.depth")
	g.Set(17)
	g.Add(-2)
	if g.Value() != 15 {
		t.Errorf("gauge = %d, want 15", g.Value())
	}
	if again := r.SharedGauge("queue.depth"); again != g {
		t.Error("SharedGauge should return the same handle for the same name")
	}
}

func TestCounterValueLookup(t *testing.T) {
	r := NewRegistry()
	r.SharedCounter("a").Add(3)
	r.SharedGauge("g").Set(1)
	if v, ok := r.CounterValue("a"); !ok || v != 3 {
		t.Errorf("CounterValue(a) = %d, %v", v, ok)
	}
	if _, ok := r.CounterValue("missing"); ok {
		t.Error("missing counter should report !ok")
	}
	if _, ok := r.CounterValue("g"); ok {
		t.Error("a gauge is not a counter")
	}
}

func TestEachIsSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.SharedCounter("z").Inc()
	r.SharedCounter("a").Add(2)
	r.SharedCounter("m").Add(3)
	var names []string
	var total int64
	r.EachCounter(func(name string, v int64) {
		names = append(names, name)
		total += v
	})
	if strings.Join(names, ",") != "a,m,z" {
		t.Errorf("EachCounter order = %v", names)
	}
	if total != 6 {
		t.Errorf("EachCounter total = %d", total)
	}
	r.SharedGauge("g2").Set(2)
	r.SharedGauge("g1").Set(1)
	names = names[:0]
	r.EachGauge(func(name string, v int64) { names = append(names, name) })
	if strings.Join(names, ",") != "g1,g2" {
		t.Errorf("EachGauge order = %v", names)
	}
}

func TestSharedCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.SharedCounter("service.jobs")
	g := r.SharedGauge("service.depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("shared counter = %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("shared gauge = %d, want 0", g.Value())
	}
	if again := r.SharedCounter("service.jobs"); again != c {
		t.Error("SharedCounter should return the same handle for the same name")
	}
	if again := r.SharedGauge("service.depth"); again != g {
		t.Error("SharedGauge should return the same handle for the same name")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SharedCounter("c.a").Add(3)
	r.SharedCounter("c.b").Add(4)
	r.SharedGauge("g.a").Set(5)
	r.SharedGauge("g.b").Set(6)

	counters, gauges := r.Snapshot()
	if len(counters) != 2 || counters["c.a"] != 3 || counters["c.b"] != 4 {
		t.Errorf("counters = %v", counters)
	}
	if len(gauges) != 2 || gauges["g.a"] != 5 || gauges["g.b"] != 6 {
		t.Errorf("gauges = %v", gauges)
	}
	// The snapshot is a copy: mutating it must not touch the registry.
	counters["c.a"] = 99
	if v, _ := r.CounterValue("c.a"); v != 3 {
		t.Errorf("registry counter mutated through snapshot copy: %d", v)
	}
}
