package main

import (
	"math"
	"testing"
	"time"

	"arbd/internal/geo"
)

func TestScheduleDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a := newPlan(wl, 7, 2*time.Second)
		b := newPlan(wl, 7, 2*time.Second)
		c := newPlan(wl, 8, 2*time.Second)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: the same seed gave two schedules", wl.name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", wl.name)
		}
		for ci, evs := range a.conns {
			if len(evs) == 0 {
				t.Fatalf("%s: connection %d has no events", wl.name, ci)
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].due < evs[i-1].due || evs[i].due >= a.window {
					t.Fatalf("%s: connection %d event %d due %v out of order or window", wl.name, ci, i, evs[i].due)
				}
			}
		}
	}
}

func TestWalkersStayInTheirBand(t *testing.T) {
	for _, wl := range workloads {
		pl := newPlan(wl, 3, 5*time.Second)
		for _, evs := range pl.conns {
			for _, e := range evs {
				d := distanceFromCenter(e)
				// A walker may overshoot its band by one step before it
				// turns back.
				if d < wl.minR-5 || d > wl.maxR+5 {
					t.Fatalf("%s: walker at %.1f m, band [%g, %g]", wl.name, d, wl.minR, wl.maxR)
				}
			}
		}
	}
}

func TestRankAndTailFixtures(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}, {0.011, 2},
	} {
		if got := s.sorted().rank(tc.q); got != tc.want {
			t.Errorf("rank(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := s.median(); got != 50 {
		t.Errorf("median = %g, want 50", got)
	}
	// 100 samples: p99 leaves 1 beyond, p95 5, p90 10 — so p90 is the
	// highest percentile with ten samples past it.
	if q, v := s.tailQuantile(0.99); q != 0.9 || v != 90 {
		t.Errorf("tailQuantile(0.99) = p%g %g, want p90 90", q*100, v)
	}
	var big samples
	for i := 1000; i >= 1; i-- { // unsorted input
		big.add(float64(i))
	}
	if q, v := big.tailQuantile(0.99); q != 0.99 || v != 990 {
		t.Errorf("1000 samples: tailQuantile(0.99) = p%g %g, want p99 990", q*100, v)
	}
	var few samples
	few.add(3)
	few.add(1)
	if q, v := few.tailQuantile(0.99); q != 0.5 || v != 1 {
		t.Errorf("2 samples: tailQuantile(0.99) = p%g %g, want the median 1", q*100, v)
	}
	if got := (samples{}).median(); got != 0 {
		t.Errorf("empty median = %g", got)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestRatioAndGCPauseFixtures(t *testing.T) {
	if ratio(3, 4) != 0.75 || ratio(1, 0) != 0 {
		t.Error("ratio arithmetic")
	}
	var a, b usage
	a.numGC = 300
	b.numGC = 303
	for gc := uint32(301); gc <= 303; gc++ {
		b.pauses[(gc+255)%256] = uint64(gc-300) * 1000 // 1, 2, 3 µs
	}
	got := gcPauses(a, b).sorted()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("gcPauses = %v, want [1 2 3]", got)
	}
}

func TestAngleDiff(t *testing.T) {
	for _, tc := range []struct{ to, from, want float64 }{
		{10, 350, 20}, {350, 10, -20}, {90, 90, 0}, {270, 90, -180},
	} {
		if got := angleDiff(tc.to, tc.from); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("angleDiff(%g, %g) = %g, want %g", tc.to, tc.from, got, tc.want)
		}
	}
}

// TestSmoke runs every workload tiny, untraced and traced, and requires
// every output, leak and drain check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the full topology")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			chk := &checks{}
			res, err := runUntraced(wl, 1, 1200*time.Millisecond, chk)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"setup_s", "latency_p50_ms", "latency_p90_ms", "peak_frames_per_s",
				"delivery_ratio", "alloc_bytes_per_frame", "bytes_per_frame", "peak_rss_mb"} {
				if mt, ok := res.Metrics[want]; !ok || mt.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v", want, mt)
				}
			}
			res, err = runTraced(wl, 1, 1200*time.Millisecond, chk)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.Metrics["geo.query_us"]; !ok {
				t.Error("traced run reported no geo.query_us")
			}
			if !chk.ok() {
				t.Fatalf("checks failed: %v", chk.failures)
			}
		})
	}
}

func distanceFromCenter(e event) float64 { return geo.DistanceMeters(cityCenter, e.pos) }
