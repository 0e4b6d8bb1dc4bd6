package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a tail
// estimate resting on fewer points is noise, so the reporter falls back to
// the highest percentile that has this many samples beyond it.
const minBeyond = 10

// samples is a set of raw observations; every statistic the benchmark
// reports is an exact order statistic over them, never a bucketed estimate.
type samples []float64

func (s *samples) add(v float64)             { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration)    { s.add(ms(d)) }
func (s *samples) addUS(d time.Duration)     { s.add(float64(d) / float64(time.Microsecond)) }
func (s *samples) merge(other samples)       { *s = append(*s, other...) }
func (s samples) sorted() samples            { c := append(samples(nil), s...); sort.Float64s(c); return c }
func (s samples) median() float64            { return s.sorted().rank(0.5) }
func (s samples) quantile(q float64) float64 { return s.sorted().rank(q) }

// rank is the nearest-rank q-quantile of sorted samples: the smallest value
// with at least a q share of the samples at or below it. Empty sets read 0.
func (s samples) rank(q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s[i]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLevels are the percentiles a tail metric may fall back through.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.5}

// tailQuantile returns the highest of tailLevels (at most want) that leaves
// at least minBeyond samples beyond it, and its value. With too few samples
// for any level it returns the median.
func (s samples) tailQuantile(want float64) (q, v float64) {
	sorted := s.sorted()
	for _, level := range tailLevels {
		if level > want {
			continue
		}
		if beyond(len(sorted), level) >= minBeyond {
			return level, sorted.rank(level)
		}
	}
	return 0.5, sorted.rank(0.5)
}

// quietShare is the share of a run's slices a throughput or CPU figure is
// taken from: the best quarter. The reference host is shared, and its speed
// swings from second to second (a spin loop timed the same work at 90-177
// ms, one second apart); a slice in which other tenants held the CPU is slow
// for reasons the program cannot see. A slower program slows every slice, so
// the quietest quarter moves with the program and far less with the
// neighbours.
const quietShare = 0.25

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported number with its unit and provenance.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value (0 for counters and ratios).
	n    int
	note string
}

// metricSet keeps metrics in the order they were set, for the report.
type metricSet struct {
	order []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (ms *metricSet) set(name string, mt metric) {
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = mt
}

// value sets a plain value.
func (ms *metricSet) value(name, unit string, v float64, n int) {
	ms.set(name, metric{Value: v, Unit: unit, n: n})
}

// median sets the median of s.
func (ms *metricSet) median(name, unit string, s samples) {
	ms.set(name, metric{Value: s.median(), Unit: unit, n: len(s)})
}

// tail sets the highest percentile up to want with minBeyond samples past it.
func (ms *metricSet) tail(name, unit string, s samples, want float64) {
	q, v := s.tailQuantile(want)
	mt := metric{Value: v, Unit: unit, n: len(s)}
	if q != want {
		mt.note = fmt.Sprintf("p%g used: too few samples for p%g", q*100, want*100)
	}
	ms.set(name, mt)
}

// report renders one human-readable line per metric.
func (ms *metricSet) report(prefix string) []string {
	lines := make([]string, 0, len(ms.order))
	for _, name := range ms.order {
		mt := ms.m[name]
		line := fmt.Sprintf("%s%-26s %14.6g %-6s", prefix, name, mt.Value, mt.Unit)
		if mt.n > 0 {
			line += fmt.Sprintf("  n=%d", mt.n)
		}
		if mt.note != "" {
			line += "  (" + mt.note + ")"
		}
		lines = append(lines, line)
	}
	return lines
}
