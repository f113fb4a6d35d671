package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metric is one reported value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricName is the rule for metric names in results and BENCHMARK.json: a
// letter or digit, then at most 63 more letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricName reports whether name may appear in a result.
func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("invalid metric name %q: want a letter or digit, then at most 63 letters, digits, '_', '.' or '-'", name)
	}
	return nil
}

// metrics collects named values; put rejects bad names and non-finite
// values so a result never carries an unparseable number.
type metrics map[string]metric

func (m metrics) put(name string, value float64, unit string) error {
	if err := checkMetricName(name); err != nil {
		return err
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("metric %s is not finite (%v)", name, value)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	m[name] = metric{Value: value, Unit: unit}
	return nil
}

// kv is one metric to report.
type kv struct {
	name  string
	value float64
	unit  string
}

// putAll puts every metric of kvs, stopping at the first error.
func (m metrics) putAll(kvs []kv) error {
	for _, x := range kvs {
		if err := m.put(x.name, x.value, x.unit); err != nil {
			return err
		}
	}
	return nil
}

// ops accounts every operation a workload attempts. A failed operation,
// including one the server refused with 429, counts as attempted and as
// failed, and its latency is +Inf: it misses any latency limit, so it can
// only push the median and the tail up.
type ops struct {
	attempted int
	failed    int
	latencies []float64 // milliseconds; +Inf for failures
}

func (o *ops) ok(d time.Duration) {
	o.attempted++
	o.latencies = append(o.latencies, float64(d)/float64(time.Millisecond))
}

func (o *ops) fail() {
	o.attempted++
	o.failed++
	o.latencies = append(o.latencies, math.Inf(1))
}

// okFrac is the share of attempted operations that succeeded.
func (o *ops) okFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamplesBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamplesBeyond = 10

// tail is the highest percentile with at least tailSamplesBeyond samples
// beyond it: the value at rank n-1-tailSamplesBeyond of the sorted samples,
// so exactly that many are larger-ranked. pct is that rank's percentile
// (100 * rank / (n-1)) and n the sample count. ok is false when there are
// too few samples for any tail.
func tail(xs []float64) (value, pct float64, n int, ok bool) {
	n = len(xs)
	if n <= tailSamplesBeyond {
		return 0, 0, n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - 1 - tailSamplesBeyond
	return s[rank], 100 * float64(rank) / float64(n-1), n, true
}

// groupStats applies the median and the tail rule to each group of job
// samples and returns their medians over the groups. Each group holds the
// same make-up of jobs — a serve block, figure6's first two timed rounds —
// so its percentiles fall on the same kinds of job however many groups a
// run completed; pooled, a third block would move the tail's rank onto a
// cheaper kind of job. n and pct are the first group's sample count and
// tail percentile; ok is false if any group is too small for a tail.
func groupStats(groups [][]float64) (p50, tailV, pct float64, n int, ok bool) {
	var p50s, tails []float64
	ok = len(groups) > 0
	for i, g := range groups {
		v, p, gn, gok := tail(g)
		if i == 0 {
			pct, n = p, gn
		}
		ok = ok && gok
		p50s = append(p50s, median(g))
		tails = append(tails, v)
	}
	return median(p50s), median(tails), pct, n, ok
}

// geomean returns the geometric mean of positive ratios (1 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
