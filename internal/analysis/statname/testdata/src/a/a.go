// Positive fixture: metric-name collisions and non-constant registrations.
package a

import "metrics"

const (
	MetricCycles = "cycles_total"
	MetricInsts  = "instructions_total"
	MetricAlias  = "cycles_total" // want "metric name .cycles_total. already declared as MetricCycles"
)

func register(reg *metrics.Registry, name string) {
	reg.Counter(MetricCycles)   // named constant: fine
	reg.Counter(name)           // want "metric registration name must be a compile-time string constant"
	reg.Counter("cycles_total") // want "duplicates the named constant MetricCycles; use the constant"
	reg.Gauge("queue_depth")    // unique literal with no matching constant: fine
}

func registerShared(reg *metrics.Registry, name string) {
	reg.SharedCounter(MetricInsts)          // named constant: fine
	reg.SharedCounter(name)                 // want "metric registration name must be a compile-time string constant"
	reg.SharedGauge(name)                   // want "metric registration name must be a compile-time string constant"
	reg.SharedCounter("instructions_total") // want "duplicates the named constant MetricInsts; use the constant"
}
