package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"arbd/internal/analytics"
)

// lane is the private result buffer of one generator goroutine; lanes merge
// only after the window, so recording a sample never takes a lock.
type lane struct {
	lat, gaps         samples // ms
	genLate           samples // ms
	frames            int64   // frames delivered inside the window
	attempted, failed int64
	seqGaps           int64 // pushes missing between consecutive Seqs
	spans             spanLog
}

// checks collects output-check failures from any goroutine.
type checks struct {
	mu       sync.Mutex
	n        int
	failures []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

// usage is a process resource reading at one instant.
type usage struct {
	totalAlloc uint64
	numGC      uint32
	pauses     [256]uint64
	rx         int64
	steal      int64 // host CPU steal, clock ticks, all CPUs (/proc/stat)
	ticks      int64 // every CPU state summed, clock ticks
}

func readUsage(rx *atomic.Int64) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := hostCPU()
	return usage{
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauses:     ms.PauseNs,
		rx:         rx.Load(),
		steal:      steal,
		ticks:      ticks,
	}
}

// hostCPU reads the steal and total tick counters from /proc/stat: time the
// hypervisor gave this machine's vCPUs to someone else explains timings the
// program cannot.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseInt(fields[i], 10, 64)
		total += v
		if i == 8 { // cpu user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of all CPU time the host stole during the window.
func (ps *pass) stealShare() float64 {
	return ratio(float64(ps.end.steal-ps.begin.steal), float64(ps.end.ticks-ps.begin.ticks))
}

// hostSample is one CPU sampler interval of the window.
type hostSample struct {
	cpuPerFrame float64 // µs of process CPU per frame delivered; -1 without frames
}

// cpuPerFrame is the lower quartile (see quietShare) of the per-interval CPU
// per frame.
func (ps *pass) cpuPerFrame() (v float64, n int) {
	var vals samples
	for _, h := range ps.host {
		if h.cpuPerFrame >= 0 {
			vals.add(h.cpuPerFrame)
		}
	}
	return vals.quantile(quietShare), len(vals)
}

// gcPauses returns the stop-the-world pauses of the GC cycles completed
// between two readings (the runtime keeps the last 256).
func gcPauses(a, b usage) samples {
	var s samples
	for gc := a.numGC + 1; gc <= b.numGC && b.numGC-gc < 256; gc++ {
		s.addUS(time.Duration(b.pauses[(gc+255)%256]))
	}
	return s
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// pass is one measured run of a workload's plan against one cluster.
type pass struct {
	pl     *plan
	cl     *cluster
	traced bool
	chk    *checks
	rx     atomic.Int64 // bytes every client read off the wire

	baseGoroutines int
	t0             time.Time
	begin, end     usage
	offered        float64 // frames the window offered
	gazeSent       atomic.Int64
	delivered      atomic.Int64 // frames delivered so far, for the CPU sampler
	host           []hostSample // CPU sampler intervals of the window
	stopCPU        func()
	clientDropped  atomic.Int64 // pushes clients evicted locally (slow consumer)
	emptyReplies   atomic.Int64 // poll replies with no annotation

	lanesMu sync.Mutex
	lanes   []*lane

	// samplers (traced passes): analytics reads beside ingest, mq backlog.
	hotTopK    samples
	backlogMax float64
}

func newPass(pl *plan, cl *cluster, traced bool, chk *checks) *pass {
	return &pass{pl: pl, cl: cl, traced: traced, chk: chk}
}

// newLane registers a result buffer for one goroutine.
func (ps *pass) newLane() *lane {
	l := &lane{spans: spanLog{on: ps.traced}}
	ps.lanesMu.Lock()
	ps.lanes = append(ps.lanes, l)
	ps.lanesMu.Unlock()
	return l
}

// merged folds every lane into one.
func (ps *pass) merged() *lane {
	out := &lane{}
	for _, l := range ps.lanes {
		out.lat.merge(l.lat)
		out.gaps.merge(l.gaps)
		out.genLate.merge(l.genLate)
		out.frames += l.frames
		out.attempted += l.attempted
		out.failed += l.failed
		out.seqGaps += l.seqGaps
		out.spans.spans = append(out.spans.spans, l.spans.spans...)
	}
	return out
}

// start opens the measured window: fixes the schedule's wall-clock origin
// and takes the resource reading every per-frame cost is a delta against.
func (ps *pass) start() {
	// Every window starts from a collected heap. Otherwise whether a GC
	// (which also empties every sync.Pool) lands inside the window depends
	// on the garbage set-up left behind, and alloc_bytes_per_frame turns
	// bimodal from run to run.
	runtime.GC()
	ps.begin = readUsage(&ps.rx)
	ps.t0 = time.Now()
	ps.stopCPU = ps.sampleCPU()
}

// stop closes the measured window.
func (ps *pass) stop() {
	ps.stopCPU()
	ps.end = readUsage(&ps.rx)
}

// deliver counts one frame delivered inside the window.
func (ps *pass) deliver(l *lane) {
	l.frames++
	ps.delivered.Add(1)
}

// cpuInterval is the CPU sampler's period.
const cpuInterval = 500 * time.Millisecond

// sampleCPU records, every cpuInterval until stopped, the process CPU spent
// per frame delivered in that interval.
func (ps *pass) sampleCPU() (stop func()) {
	cpu, frames := processCPU(), ps.delivered.Load()
	return every(cpuInterval, func() {
		c, f := processCPU(), ps.delivered.Load()
		h := hostSample{cpuPerFrame: -1}
		if f > frames {
			h.cpuPerFrame = float64(c-cpu) / float64(time.Microsecond) / float64(f-frames)
		}
		ps.host = append(ps.host, h)
		cpu, frames = c, f
	})
}

// every runs fn on its own goroutine once per period until the returned
// stop is called; stop returns once the goroutine has exited.
func every(period time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// due is an event's wall-clock due time.
func (ps *pass) due(e *event) time.Time { return ps.t0.Add(e.due) }

// windowEnd is when the last event of the window may come due.
func (ps *pass) windowEnd() time.Time { return ps.t0.Add(ps.pl.window) }

// run drives the workload's window, then tears its sessions down and runs
// the leak and drain checks.
func (ps *pass) run() {
	if err := ps.prime(); err != nil {
		ps.chk.fail("%s: prime: %v", ps.pl.wl.name, err)
		return
	}
	ps.baseGoroutines = settledGoroutines()
	stopSamplers := ps.startSamplers()
	var err error
	switch {
	case ps.pl.wl.pollRate > 0:
		err = ps.pollWindow()
	case ps.pl.wl.joinRate > 0:
		err = ps.joinWindow()
	default:
		err = ps.streamWindow()
	}
	stopSamplers()
	if err != nil {
		ps.chk.fail("%s: %v", ps.pl.wl.name, err)
		return
	}
	ps.leakCheck()
	ps.drainCheck()
}

// prime runs short joins until every shard has served a stream. A shard
// starts one push writer per router connection on its first subscription
// and keeps it for the connection's life; priming first keeps that
// per-connection goroutine out of the leak check's per-session baseline.
func (ps *pass) prime() error {
	l := &lane{}
	e := ps.pl.conns[0][0]
	for k := 0; k < 64; k++ {
		served := true
		for _, n := range ps.cl.perShard("server.stream.pushes") {
			served = served && n > 0
		}
		if served {
			return nil
		}
		ps.join(&e, uint64(k), time.Now(), l, 2*time.Millisecond, 1)
	}
	return fmt.Errorf("a shard served no stream after 64 joins")
}

// settledGoroutines reads the goroutine count once it has stopped falling,
// so goroutines of a just-closed cluster are not taken as the baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// leakCheck waits, once the window's clients have closed, for the process
// to drop back to its pre-workload goroutine count and for every shard to
// hold no live stream and no session.
func (ps *pass) leakCheck() {
	deadline := time.Now().Add(3 * time.Second)
	for {
		g := runtime.NumGoroutine()
		streams, sessions := 0, 0
		for _, sh := range ps.cl.shards {
			streams += len(sh.Engine().StreamSummaries())
			sessions += sh.Engine().Platform().NumSessions()
		}
		if g <= ps.baseGoroutines && streams == 0 && sessions == 0 {
			return
		}
		if time.Now().After(deadline) {
			ps.chk.fail("leak: %d goroutines after teardown (baseline %d), %d live streams, %d sessions",
				g, ps.baseGoroutines, streams, sessions)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// drainCheck flushes the shards' telemetry and checks that every gaze
// interaction the clients sent was consumed by analytics, none malformed.
func (ps *pass) drainCheck() {
	want := float64(ps.gazeSent.Load())
	var got float64
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, p := range ps.cl.platforms {
			_ = p.FlushTelemetry()
			_ = p.WaitAnalyticsIdle(100 * time.Millisecond)
		}
		got = ps.cl.shardValue("core.interactions.consumed")
		if got >= want || time.Now().After(deadline) {
			break
		}
	}
	if got != want {
		ps.chk.fail("drain: core.interactions.consumed=%g, gaze interactions sent=%g", got, want)
	}
	if bad := ps.cl.shardValue("core.interactions.bad"); bad != 0 {
		ps.chk.fail("drain: core.interactions.bad=%g", bad)
	}
}

// startSamplers runs, on traced passes, a goroutine that times
// Platform.HotPOIsInto while ingest runs and samples the analytics backlog.
func (ps *pass) startSamplers() (stop func()) {
	if !ps.traced {
		return func() {}
	}
	hot := make([]analytics.HeavyHitter, 0, 16)
	return every(5*time.Millisecond, func() {
		for _, p := range ps.cl.platforms {
			s := time.Now()
			hot = p.HotPOIsInto(hot[:0], 10)
			ps.hotTopK.addUS(time.Since(s))
			if b := float64(p.LoadSignal().Backlog); b > ps.backlogMax {
				ps.backlogMax = b
			}
		}
	})
}

// sleepUntil blocks until t (returns at once when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// waitDue sleeps until an event's due time and returns the instant the
// generator released the event. When the generator reaches the event early,
// that is when its timer fired: any overshoot past due is the generator's
// own lateness, recorded in genLate, and not the system's latency. When it
// reaches the event already late, the system under test held it up (a full
// window, a slow join), so the event is released, and timed, from its due
// time.
func (ps *pass) waitDue(due time.Time, l *lane) time.Time {
	if time.Now().After(due) {
		return due
	}
	sleepUntil(due)
	woke := time.Now()
	l.genLate.addDur(woke.Sub(due))
	return woke
}
