// Command arbdbench is the repository's end-to-end benchmark. It starts the
// shipped serving topology in-process — one server.Router in front of two
// server.Shard nodes over loopback TCP, each shard on a started
// core.Platform with arbd-server's defaults — and drives it from one open-
// loop generator through the public server.Client. See README.md.
//
// Usage:
//
//	arbdbench --workload poll-dense|stream-sparse|join-churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit
// status is non-zero when any output, leak or drain check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"arbd/internal/obs"
)

// setupRounds is how many times a run builds the topology; setup_s is the
// median, and the last cluster built serves the workload.
const setupRounds = 21

// maxGenLatenessMS invalidates a run whose generator itself fell behind its
// schedule at the 99th percentile by more than this.
const maxGenLatenessMS = 20

// maxEmptyShare is the share of poll replies that may carry no annotation.
const maxEmptyShare = 0.01

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "poll-dense", "workload: poll-dense | stream-sparse | join-churn")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same schedule and walker paths")
		seconds = flag.Float64("seconds", 10, "measured time per run")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbdbench:", err)
		os.Exit(2)
	}
	total := time.Duration(*seconds * float64(time.Second))
	chk := &checks{}
	var res *result
	if *trace == 1 {
		res, err = runTraced(wl, *seed, total, chk)
	} else {
		res, err = runUntraced(wl, *seed, total, chk)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbdbench:", err)
		os.Exit(1)
	}
	for _, f := range chk.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	res.Correct = chk.ok()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runUntraced is the gated run: set-up rounds, the open-loop window, the
// checks, then the closed-loop peak phase.
func runUntraced(wl *workload, seed int64, total time.Duration, chk *checks) (*result, error) {
	var setups samples
	var cl *cluster
	for i := 0; i < setupRounds; i++ {
		runtime.GC() // each build starts from a collected heap, not the last one's garbage
		c, d, err := startCluster()
		if err != nil {
			return nil, err
		}
		setups.add(d.Seconds())
		if i < setupRounds-1 {
			c.close()
		} else {
			cl = c
		}
	}
	peakDur := total * 4 / 10
	pl := newPlan(wl, seed, total-peakDur)
	ps := newPass(pl, cl, false, chk)
	ps.run()
	peak, err := ps.peak(peakDur)
	cl.closeChecked(chk)
	if err != nil {
		return nil, err
	}
	ms := newMetricSet()
	ms.median("setup_s", "s", setups)
	ps.endToEnd(ms)
	ms.value("peak_frames_per_s", "1/s", peak, 0)
	ms.value("peak_rss_mb", "MB", peakRSSMB(), 0)
	return ps.result(ms, "untraced"), nil
}

// runTraced runs the workload twice on fresh clusters with the same seed:
// untraced, then traced with client spans, node records and a layer replay.
// Each pass gets half the time; only per-layer metrics are reported.
func runTraced(wl *workload, seed int64, total time.Duration, chk *checks) (*result, error) {
	res := &result{}
	var plainCPU float64
	for _, traced := range []bool{false, true} {
		cl, _, err := startCluster()
		if err != nil {
			return nil, err
		}
		ps := newPass(newPlan(wl, seed, total/2), cl, traced, chk)
		ps.run()
		m := ps.merged()
		ps.windowChecks(m)
		if !traced {
			plainCPU, _ = ps.cpuPerFrame()
			res.Attempted, res.Failed = m.attempted, m.failed
			cl.closeChecked(chk)
			continue
		}
		ms := newMetricSet()
		spans := &m.spans
		spans.on = true
		err = ps.perLayer(ms, m, spans, plainCPU)
		cl.closeChecked(chk) // perLayer reads the live nodes
		if err != nil {
			return nil, err
		}
		if err := spans.write(tracePath(wl.name, seed)); err != nil {
			return nil, err
		}
		for _, line := range ms.report(wl.name + " traced  ") {
			fmt.Println(line)
		}
		res.Metrics = ms.m
	}
	return res, nil
}

// primaryLatency is the workload's user-visible latency sample set.
func (ps *pass) primaryLatency(m *lane) (samples, string) {
	switch {
	case ps.pl.wl.pollRate > 0:
		return m.lat, "frame latency: GPS fix release to the reply"
	case ps.pl.wl.joinRate > 0:
		return m.lat, "first frame: Dial release to the first push"
	default:
		return m.gaps, "push gap between consecutive pushes of one stream"
	}
}

// endToEnd sets the window's end-to-end metrics and runs the window checks
// that need the merged lanes.
func (ps *pass) endToEnd(ms *metricSet) {
	m := ps.merged()
	lat, what := ps.primaryLatency(m)
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		ms.set(p.name, metric{Value: lat.quantile(p.q), Unit: "ms", n: len(lat), note: what})
	}
	frames := float64(m.frames)
	ms.value("delivery_ratio", "ratio", ratio(frames, ps.offered), int(m.frames))
	ms.value("alloc_bytes_per_frame", "B", ratio(float64(ps.end.totalAlloc-ps.begin.totalAlloc), frames), int(m.frames))
	ms.value("bytes_per_frame", "B", ratio(float64(ps.end.rx-ps.begin.rx), frames), int(m.frames))
	ps.windowChecks(m)
}

// windowChecks fails the run when the generator fell behind its own
// schedule, or when a stream lost pushes no drop counter accounts for — a
// delta that failed to apply on the client.
func (ps *pass) windowChecks(m *lane) {
	if m.frames == 0 {
		ps.chk.fail("window delivered no frames")
	}
	// A reply is legitimately empty when no annotation of the 60 nearest
	// POIs falls inside the camera's view; as the camera pans, a few
	// headings are such gaps. More than maxEmptyShare of them is not.
	if empty := ps.emptyReplies.Load(); float64(empty) > maxEmptyShare*float64(m.frames) {
		ps.chk.fail("poll: %d of %d replies empty", empty, m.frames)
	}
	if late := m.genLate.quantile(0.99); late > maxGenLatenessMS {
		ps.chk.fail("generator fell behind: lateness p99 %.2f ms > %d ms", late, maxGenLatenessMS)
	}
	dropped := ps.cl.shardValue("server.stream.dropped") +
		registryValue(ps.cl.router.Metrics(), "router.pushes.dropped") +
		float64(ps.clientDropped.Load())
	if float64(m.seqGaps) > dropped {
		ps.chk.fail("stream: %d pushes missing from Seq, only %.0f dropped by outboxes: a delta did not apply", m.seqGaps, dropped)
	}
}

// result prints the report and assembles the JSON result.
func (ps *pass) result(ms *metricSet, label string) *result {
	m := ps.merged()
	for _, line := range ms.report(fmt.Sprintf("%s %s  ", ps.pl.wl.name, label)) {
		fmt.Println(line)
	}
	lat, _ := ps.primaryLatency(m)
	q, tail := lat.tailQuantile(0.99)
	cpu, intervals := ps.cpuPerFrame()
	fmt.Printf("%s %s  info: latency p50 %.4g ms, p%g %.4g ms, n=%d; cpu_us_per_frame %.4g us over %d intervals; host CPU steal %.1f%%\n",
		ps.pl.wl.name, label, lat.median(), q*100, tail, len(lat), cpu, intervals, 100*ps.stealShare())
	fmt.Printf("%s %s  attempted=%d failed=%d empty_replies=%d gen.lateness_p99_ms=%.3f gc_cycles=%d goroutines=%d\n",
		ps.pl.wl.name, label, m.attempted, m.failed, ps.emptyReplies.Load(), m.genLate.quantile(0.99), ps.end.numGC-ps.begin.numGC, runtime.NumGoroutine())
	return &result{Attempted: m.attempted, Failed: m.failed, Metrics: ms.m}
}

// perLayer sets the per-layer metrics of a traced pass, whose merged lanes
// are m; plainCPU is the untraced pass's cpu_us_per_frame.
func (ps *pass) perLayer(ms *metricSet, m *lane, spans *spanLog, plainCPU float64) error {
	// The probe runs first so its stream frames are in the shards' flight
	// records even on a poll-only workload.
	if err := ps.probe(spans); err != nil {
		return err
	}
	stages := ps.nodeSpans(spans)
	rr, err := ps.replay(spans)
	if err != nil {
		return err
	}

	// geo and render, from the replay at the workload's walker positions.
	ms.median("geo.query_us", "us", rr.geoUS)
	ms.median("geo.candidates", "count", rr.candidates)
	ms.median("geo.kept_ratio", "ratio", rr.kept)
	ms.median("render.layout_us", "us", rr.layoutUS)
	ms.median("render.placed_ratio", "ratio", rr.placed)

	// core.
	frameUS := rr.frameUS.median()
	ms.median("core.frame_us", "us", rr.frameUS)
	ms.value("core.frame_self_us", "us", frameUS-rr.geoUS.median()-rr.layoutUS.median(), len(rr.frameUS))
	ms.median("core.sensor_us", "us", rr.sensorUS)
	ms.median("core.encode_us", "us", rr.encodeUS)
	ms.median("core.delta_encode_us", "us", rr.deltaUS)
	ms.median("core.decode_us", "us", rr.decodeUS)
	pushes := ps.cl.shardValue("server.stream.pushes")
	ms.value("core.keyframe_ratio", "ratio", ratio(ps.cl.shardValue("server.stream.keyframes"), pushes), 0)

	// server: scheduler, stream and outbox, from the shards' flight records.
	ms.median("server.queue_wait_p50_us", "us", stages[obs.StageQueue])
	ms.tail("server.queue_wait_p99_us", "us", stages[obs.StageQueue], 0.99)
	done := ps.cl.shardValue("server.frames.done") + pushes
	shed := ps.cl.shardValue("server.frames.shed") + ps.cl.shardValue("server.stream.shed")
	ms.value("server.shed_ratio", "ratio", ratio(shed, done+shed), 0)
	skipped := ps.cl.shardValue("server.stream.skipped")
	ms.value("server.skipped_ratio", "ratio", ratio(skipped, pushes+skipped), 0)
	ms.tail("server.admission_p99_us", "us", stages[obs.StageAdmission], 0.99)
	ms.tail("server.outbox_p99_us", "us", stages[obs.StageOutbox], 0.99)
	ms.tail("server.write_p99_us", "us", stages[obs.StageWrite], 0.99)
	ms.value("server.stream_dropped", "count", ps.cl.shardValue("server.stream.dropped"), 0)

	// router.
	rreg := ps.cl.router.Metrics()
	ms.value("router.flight_mean_us", "us", routerFlightMeanUS(ps.cl), 0)
	ms.value("router.shed", "count", registryValue(rreg, "router.frames.shed"), 0)
	ms.value("router.pushes_dropped", "count", registryValue(rreg, "router.pushes.dropped"), 0)
	ms.value("router.shard_skew", "ratio", shardSkew(ps.cl), 0)

	// client, from the generator's own spans.
	send := spans.durations("client.send_gps", "client.send_imu", "client.send_gaze")
	ms.median("client.send_us", "us", send)
	ms.median("client.dial_us", "us", spans.durations("client.dial"))
	ms.median("client.subscribe_us", "us", spans.durations("client.subscribe"))

	// wire, mq, analytics.
	ms.median("wire.encode_ns", "ns", rr.wireEncNS)
	ms.median("wire.decode_ns", "ns", rr.wireDecNS)
	var produced float64
	for _, p := range ps.cl.platforms {
		produced += registryValue(p.Broker().Metrics(), "mq.produced.")
	}
	ms.value("mq.produced", "count", produced, 0)
	ms.median("mq.produce_batch_us", "us", rr.produceUS)
	ms.value("mq.backlog_max", "count", ps.backlogMax, 0)
	ms.median("analytics.hot_topk_us", "us", ps.hotTopK)
	ms.value("analytics.consumed", "count", ps.cl.shardValue("core.interactions.consumed"), 0)

	// runtime and harness.
	tracedCPU, intervals := ps.cpuPerFrame()
	ms.value("runtime.cpu_us_per_frame", "us", tracedCPU, intervals)
	ms.value("runtime.gc_cycles", "count", float64(ps.end.numGC-ps.begin.numGC), 0)
	pauses := gcPauses(ps.begin, ps.end)
	ms.tail("runtime.gc_pause_p99_us", "us", pauses, 0.99)
	ms.value("runtime.goroutines_end", "count", float64(runtime.NumGoroutine()), 0)
	ms.tail("gen.lateness_p99_ms", "ms", m.genLate, 0.99)
	ms.value("trace.overhead", "ratio", ratio(tracedCPU, plainCPU)-1, 0)
	ms.value("unaccounted_us", "us", ps.unaccounted(m, ms), 0)
	ms.value("error_rate", "ratio", ratio(float64(m.failed), float64(m.attempted)), int(m.attempted))
	return nil
}

// unaccounted is the end-to-end p50 minus the measured layer p50s on the
// workload's blocking path, in microseconds.
func (ps *pass) unaccounted(m *lane, ms *metricSet) float64 {
	v := func(name string) float64 { return ms.m[name].Value }
	lat, _ := ps.primaryLatency(m)
	e2e := lat.median() * 1e3
	wireHop := (v("wire.encode_ns") + v("wire.decode_ns")) / 1e3
	switch {
	case ps.pl.wl.pollRate > 0:
		// GPS + IMU sends, then the request's four envelope hops
		// (client→router→shard and back), queue, render, encode, decode.
		return e2e - 2*v("client.send_us") - 4*wireHop - v("server.queue_wait_p50_us") -
			v("core.frame_us") - v("core.encode_us") - v("core.decode_us")
	case ps.pl.wl.joinRate > 0:
		// Dial, fix, subscribe, the first pacer interval, then one push.
		return e2e - v("client.dial_us") - v("client.send_us") - v("client.subscribe_us") -
			float64(ps.pl.wl.interval)/1e3 - v("server.queue_wait_p50_us") - v("core.frame_us") -
			v("core.delta_encode_us") - 2*wireHop - v("core.decode_us")
	default:
		// A push gap's blocking path is the pacer interval itself.
		return e2e - float64(ps.pl.wl.interval)/1e3
	}
}
