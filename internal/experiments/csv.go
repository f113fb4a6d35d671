package experiments

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"fleaflicker/internal/mem"
	"fleaflicker/internal/stats"
)

func fig8Records(points []Fig8Point) [][]string {
	recs := [][]string{{"benchmark", "feedback_latency", "deferred", "cycles"}}
	for _, p := range points {
		lat := strconv.Itoa(p.Latency)
		if p.Latency < 0 {
			lat = "inf"
		}
		recs = append(recs, []string{
			p.Benchmark, lat,
			strconv.FormatInt(p.Deferred, 10),
			strconv.FormatInt(p.Cycles, 10),
		})
	}
	return recs
}

func fig6Records(s *SuiteRuns) [][]string {
	recs := [][]string{{
		"benchmark", "model", "cycles", "instructions", "ipc",
		"unstalled", "load_stall", "nonload_stall", "resource_stall",
		"frontend_stall", "apipe_stall",
		"deferred", "preexecuted", "mispredicts_a", "mispredicts_b",
		"conflict_flushes", "regrouped",
	}}
	for _, bench := range s.Benchmarks {
		for _, m := range Fig6Models {
			r := s.Get(bench, m)
			if r == nil {
				continue
			}
			recs = append(recs, []string{
				bench, m.String(),
				strconv.FormatInt(r.Cycles, 10),
				strconv.FormatInt(r.Instructions, 10),
				fmt.Sprintf("%.4f", r.IPC()),
				strconv.FormatInt(r.ByClass[stats.Unstalled], 10),
				strconv.FormatInt(r.ByClass[stats.LoadStall], 10),
				strconv.FormatInt(r.ByClass[stats.NonLoadDepStall], 10),
				strconv.FormatInt(r.ByClass[stats.ResourceStall], 10),
				strconv.FormatInt(r.ByClass[stats.FrontEndStall], 10),
				strconv.FormatInt(r.ByClass[stats.APipeStall], 10),
				strconv.FormatInt(r.Deferred, 10),
				strconv.FormatInt(r.PreExecuted, 10),
				strconv.FormatInt(r.MispredictsA, 10),
				strconv.FormatInt(r.MispredictsB, 10),
				strconv.FormatInt(r.ConflictFlushes, 10),
				strconv.FormatInt(r.Regrouped, 10),
			})
		}
	}
	return recs
}

func fig7Records(s *SuiteRuns) [][]string {
	recs := [][]string{{"benchmark", "model", "level", "pipe", "accesses", "access_cycles"}}
	for _, bench := range s.Benchmarks {
		for _, m := range Fig6Models {
			r := s.Get(bench, m)
			if r == nil {
				continue
			}
			for lvl := mem.Level(0); lvl < mem.NumLevels; lvl++ {
				for p := stats.Pipe(0); p < stats.NumPipes; p++ {
					recs = append(recs, []string{
						bench, m.String(), lvl.String(), p.String(),
						strconv.FormatInt(r.Access[lvl][p], 10),
						strconv.FormatInt(r.AccessCycles[lvl][p], 10),
					})
				}
			}
		}
	}
	return recs
}

// csvString renders records as CSV text.
func csvString(recs [][]string) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.WriteAll(recs)
	w.Flush()
	return b.String()
}

// Fig6CSV returns the Figure 6 export as CSV text.
func Fig6CSV(s *SuiteRuns) string { return csvString(fig6Records(s)) }

// Fig7CSV returns the Figure 7 export as CSV text.
func Fig7CSV(s *SuiteRuns) string { return csvString(fig7Records(s)) }

// Fig8CSV returns a Figure 8 sweep as CSV text.
func Fig8CSV(points []Fig8Point) string { return csvString(fig8Records(points)) }
