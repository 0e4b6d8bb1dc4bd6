package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/server"
)

// annotationRadiusM is the platform's default context radius; a poll reply
// may only carry anchors within it (plus the fix's accuracy margin).
const annotationRadiusM = 250

// anchorMarginM is the GPS accuracy margin of the anchor check: three sigma.
const anchorMarginM = 3 * gpsAccuracyM

func gpsFix(at time.Time, e *event) sensor.GPSFix {
	return sensor.GPSFix{Time: at, Position: e.pos, AccuracyM: gpsAccuracyM}
}

func imuSample(at time.Time, e *event) sensor.IMUSample {
	return sensor.IMUSample{Time: at, GyroZRad: e.gyro, AccelMps2: e.accel, CompassDeg: e.hdg}
}

// warm gives a fresh session a converged pose and a few rendered frames, so
// the window measures steady state rather than the first frames' set-up.
func warm(cli *server.Client, e *event) error {
	for i := 0; i < 5; i++ {
		now := time.Now()
		if err := cli.SendGPS(gpsFix(now, e)); err != nil {
			return err
		}
		if err := cli.SendIMU(imuSample(now, e)); err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := cli.RequestFrame(); err != nil {
			return err
		}
	}
	return nil
}

// dialAll opens one client per connection, warmed at the first event of
// that connection's schedule.
func (ps *pass) dialAll(name string, conns *[numConns][]event) ([]*server.Client, error) {
	clis := make([]*server.Client, 0, numConns)
	for c := 0; c < numConns; c++ {
		cli, err := dial(ps.cl.addr, fmt.Sprintf("%s-%d", name, c), &ps.rx)
		if err == nil {
			err = warm(cli, &conns[c][0])
		}
		if err != nil {
			closeAll(clis)
			return nil, err
		}
		clis = append(clis, cli)
	}
	return clis, nil
}

// dialPerShard opens one client per connection like dialAll, but keeps a
// client only when its session landed on a shard that has none of the
// others, redialling otherwise. The router places sessions by ID, and IDs
// count every session before them: on join-churn, whether the peak probe's
// two sessions shared a shard depended on how many joins the run made, and
// the probe read 2,600 or 4,300 frames/s with the run length.
func (ps *pass) dialPerShard(name string, conns *[numConns][]event) ([]*server.Client, error) {
	clis := make([]*server.Client, 0, numConns)
	taken := make([]bool, len(ps.cl.platforms))
	for attempt := 0; len(clis) < numConns && attempt < 32; attempt++ {
		before := ps.cl.sessionsPerShard()
		cli, err := dial(ps.cl.addr, fmt.Sprintf("%s-%d", name, len(clis)), &ps.rx)
		if err == nil {
			err = warm(cli, &conns[len(clis)][0])
		}
		if err != nil {
			closeAll(clis)
			return nil, err
		}
		shard := -1
		for i, n := range ps.cl.sessionsPerShard() {
			if n > before[i] {
				shard = i
			}
		}
		if shard >= 0 && !taken[shard] {
			taken[shard] = true
			clis = append(clis, cli)
			continue
		}
		_ = cli.Close()
	}
	if len(clis) < numConns {
		closeAll(clis)
		return nil, fmt.Errorf("%s: no session per shard after 32 dials", name)
	}
	return clis, nil
}

func closeAll(clis []*server.Client) {
	for _, cli := range clis {
		_ = cli.Close()
	}
}

// pollWindow is poll-dense: per connection, a dispatcher releases each tick
// at its due time into a fixed window of workers. A tick that comes due
// while the window is full waits, and its latency still counts from its
// due time, so a stall cannot hide the queueing it causes.
func (ps *pass) pollWindow() error {
	clis, err := ps.dialAll("poll", &ps.pl.conns)
	if err != nil {
		return err
	}
	defer closeAll(clis)
	ps.start()
	var wg sync.WaitGroup
	for c, cli := range clis {
		evs := ps.pl.conns[c]
		ps.offered += float64(len(evs))
		jobs := make(chan release)
		for w := 0; w < ps.pl.wl.inFlight; w++ {
			l := ps.newLane()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					ps.pollTick(cli, &evs[j.i], uint64(c)<<32|uint64(j.i), j.at, l)
				}
			}()
		}
		dl := ps.newLane()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			for i := range evs {
				at := ps.waitDue(ps.due(&evs[i]), dl)
				jobs <- release{i, at} // blocks while the window is full
			}
		}()
	}
	wg.Wait()
	ps.stop()
	return nil
}

// release is one tick handed to a worker, with the instant the generator
// released it (see waitDue).
type release struct {
	i  int
	at time.Time
}

// pollTick sends one tick's GPS fix and IMU sample, requests the frame, and
// checks the reply against the fix. Latency counts from at.
func (ps *pass) pollTick(cli *server.Client, e *event, id uint64, at time.Time, l *lane) {
	due := ps.due(e)
	tick := l.spans.now()
	l.attempted++
	s := l.spans.now()
	err := cli.SendGPS(gpsFix(due, e))
	l.spans.end("client.send_gps", "tick", id, s)
	if err == nil {
		s = l.spans.now()
		err = cli.SendIMU(imuSample(due, e))
		l.spans.end("client.send_imu", "tick", id, s)
	}
	var f *core.DecodedFrame
	if err == nil {
		s = l.spans.now()
		f, _, err = cli.RequestFrame()
		l.spans.end("client.request_frame", "tick", id, s)
	}
	recv := time.Now()
	l.spans.end("tick", "", id, tick)
	if err != nil {
		l.failed++
		return
	}
	ps.deliver(l)
	l.lat.addDur(recv.Sub(at))
	if len(f.Annotations) == 0 {
		ps.emptyReplies.Add(1)
	}
	for i := range f.Annotations {
		if d := geo.DistanceMeters(f.Annotations[i].Anchor, e.pos); d > annotationRadiusM+anchorMarginM {
			ps.chk.fail("poll: tick %d anchor %d is %.1f m from the fix", id, f.Annotations[i].ID, d)
			return
		}
	}
}

// lastOverlay is the annotation IDs of a stream's latest push, for gaze
// targeting.
type lastOverlay struct {
	mu  sync.Mutex
	ids [32]uint64
	n   int
}

func (o *lastOverlay) set(f *core.DecodedFrame) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n = 0
	for i := range f.Annotations {
		if o.n == len(o.ids) {
			break
		}
		o.ids[o.n] = f.Annotations[i].ID
		o.n++
	}
}

func (o *lastOverlay) pick(k int) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == 0 {
		return 0
	}
	return o.ids[k%o.n]
}

// streamWindow is stream-sparse: each connection holds one delta
// subscription while a dispatcher sends IMU, GPS and gaze on schedule.
func (ps *pass) streamWindow() error {
	clis, err := ps.dialAll("stream", &ps.pl.conns)
	if err != nil {
		return err
	}
	defer closeAll(clis)
	awaitFoldPhase(ps.pl.window + foldMargin)
	chans := make([]<-chan *core.DecodedFrame, len(clis))
	for c, cli := range clis {
		ch, err := cli.Subscribe(context.Background(), server.SubscribeOptions{Interval: ps.pl.wl.interval})
		if err != nil {
			return err
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			return fmt.Errorf("stream %d: no first push", c)
		}
		chans[c] = ch
	}
	ps.start()
	winEnd := ps.windowEnd()
	var consumers, senders sync.WaitGroup
	for c, cli := range clis {
		overlay := &lastOverlay{}
		cl := ps.newLane()
		consumers.Add(1)
		go func(ch <-chan *core.DecodedFrame) {
			defer consumers.Done()
			ps.consume(ch, overlay, winEnd, cl)
		}(chans[c])
		evs := ps.pl.conns[c]
		dl := ps.newLane()
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range evs {
				ps.sendSensor(cli, &evs[i], uint64(c)<<32|uint64(i), overlay, dl)
			}
		}()
	}
	senders.Wait()
	sleepUntil(winEnd)
	ps.stop()
	ps.offered = float64(len(clis)) * float64(ps.pl.window) / float64(ps.pl.wl.interval)
	for _, cli := range clis {
		if err := cli.Unsubscribe(); err != nil {
			ps.chk.fail("stream: unsubscribe: %v", err)
		}
	}
	consumers.Wait()
	for _, cli := range clis {
		ps.clientDropped.Add(cli.PushesDropped())
	}
	return nil
}

// crowdFold is the period of the platform's crowd view: the analytics
// pipeline sums interactions per POI over one-minute tumbling windows aligned
// to the wall clock, and folds a window into the view when the first
// interaction after its end arrives. From then on every frame near a gazed
// POI runs ARML interpretation on it, and each tag that fires allocates.
const crowdFold = time.Minute

// foldMargin covers subscribing and the ingest flush after the window.
const foldMargin = 2 * time.Second

// awaitFoldPhase returns once a span of d starting now ends before the next
// crowd fold, sleeping past the fold when it would not. A window that holds a
// fold switches its frames to interpretation part way through, at a point
// the wall clock chooses: alloc_bytes_per_frame then read ~400 or 500-600 B
// from run to run. With the fold kept out, every stream window measures the
// same state: gaze being ingested and read back through the sketch, no
// crowd rows folded yet.
func awaitFoldPhase(d time.Duration) {
	now := time.Now()
	next := now.Truncate(crowdFold).Add(crowdFold)
	if d >= crowdFold || now.Add(d).Before(next) {
		return
	}
	sleepUntil(next.Add(100 * time.Millisecond))
}

// consume reads one subscription until it closes: Seq must strictly
// increase, and in-window arrivals give the push gaps.
func (ps *pass) consume(ch <-chan *core.DecodedFrame, overlay *lastOverlay, winEnd time.Time, l *lane) {
	var lastSeq uint64
	var prev time.Time
	for f := range ch {
		now := time.Now()
		if lastSeq != 0 {
			if f.Seq <= lastSeq {
				ps.chk.fail("stream: Seq %d after %d", f.Seq, lastSeq)
			} else {
				l.seqGaps += int64(f.Seq - lastSeq - 1)
			}
		}
		lastSeq = f.Seq
		overlay.set(f)
		if now.Before(ps.t0) || now.After(winEnd) {
			continue
		}
		ps.deliver(l)
		if !prev.IsZero() {
			l.gaps.addDur(now.Sub(prev))
		}
		prev = now
	}
}

// sendSensor sends one scheduled sensor event at its due time.
func (ps *pass) sendSensor(cli *server.Client, e *event, id uint64, overlay *lastOverlay, l *lane) {
	due := ps.due(e)
	ps.waitDue(due, l)
	var err error
	s := l.spans.now()
	switch e.kind {
	case evIMU:
		err = cli.SendIMU(imuSample(due, e))
		l.spans.end("client.send_imu", "", id, s)
	case evGPS:
		err = cli.SendGPS(gpsFix(due, e))
		l.spans.end("client.send_gps", "", id, s)
	case evGaze:
		target := overlay.pick(e.pick)
		if target == 0 {
			return // nothing on screen yet to look at
		}
		err = cli.SendGaze(sensor.GazeSample{Time: due, TargetID: target, DwellMS: e.dwell})
		l.spans.end("client.send_gaze", "", id, s)
		if err == nil {
			ps.gazeSent.Add(1)
		}
	}
	l.attempted++
	if err != nil {
		l.failed++
	}
}

// joinWindow is join-churn: each slot runs its joins at their due times,
// one at a time; a join that comes due while the slot is still busy starts
// late, and its first-frame latency still counts from its due time.
func (ps *pass) joinWindow() error {
	ps.start()
	var wg sync.WaitGroup
	for c := 0; c < numConns; c++ {
		evs := ps.pl.conns[c]
		ps.offered += float64(len(evs) * ps.pl.wl.pushesPerJoin)
		l := ps.newLane()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range evs {
				at := ps.waitDue(ps.due(&evs[i]), l)
				ps.join(&evs[i], uint64(c)<<32|uint64(i), at, l, ps.pl.wl.interval, ps.pl.wl.pushesPerJoin)
			}
		}()
	}
	wg.Wait()
	ps.stop()
	return nil
}

// join runs one session's life: dial, fix, subscribe at interval, take
// pushes pushes, leave. First-frame latency counts from at.
func (ps *pass) join(e *event, id uint64, at time.Time, l *lane, interval time.Duration, pushes int) {
	due := ps.due(e)
	root := l.spans.now()
	defer l.spans.end("join", "", id, root)
	l.attempted++
	s := l.spans.now()
	cli, err := dial(ps.cl.addr, "join", &ps.rx)
	l.spans.end("client.dial", "join", id, s)
	if err != nil {
		l.failed++
		return
	}
	defer func() {
		ps.clientDropped.Add(cli.PushesDropped())
		s := l.spans.now()
		_ = cli.Close()
		l.spans.end("client.close", "join", id, s)
	}()
	s = l.spans.now()
	err = cli.SendGPS(gpsFix(due, e))
	l.spans.end("client.send_gps", "join", id, s)
	if err != nil {
		l.failed++
		return
	}
	s = l.spans.now()
	ch, err := cli.Subscribe(context.Background(), server.SubscribeOptions{Interval: interval})
	l.spans.end("client.subscribe", "join", id, s)
	if err != nil {
		l.failed++
		return
	}
	timeout := time.NewTimer(2 * time.Second)
	defer timeout.Stop()
	var prev time.Time
	var lastSeq uint64
	for got := 0; got < pushes; got++ {
		select {
		case f, ok := <-ch:
			if !ok {
				ps.chk.fail("join %d: stream closed after %d pushes: %v", id, got, cli.StreamErr())
				l.failed++
				return
			}
			now := time.Now()
			if got == 0 {
				l.lat.addDur(now.Sub(at))
				l.spans.endAt("first_push", "join", id, s, now)
			} else {
				l.gaps.addDur(now.Sub(prev))
				if f.Seq <= lastSeq {
					ps.chk.fail("join %d: Seq %d after %d", id, f.Seq, lastSeq)
				}
				l.seqGaps += int64(f.Seq - lastSeq - 1)
			}
			prev, lastSeq = now, f.Seq
			ps.deliver(l)
		case <-timeout.C:
			ps.chk.fail("join %d: timed out after %d pushes", id, got)
			l.failed++
			return
		}
	}
	s = l.spans.now()
	err = cli.Unsubscribe()
	l.spans.end("client.unsubscribe", "join", id, s)
	if err != nil {
		l.failed++
	}
}

// atOffset is the index of the last event due at or before offset (0 when
// none is): the walker's state at that moment of its path.
func atOffset(evs []event, offset time.Duration) int {
	k := sort.Search(len(evs), func(k int) bool { return evs[k].due > offset })
	return max(k-1, 0)
}

// peakBucket is the width of the peak phase's throughput buckets.
const peakBucket = 250 * time.Millisecond

// probeSeed fixes the peak probe's walkers. The probe is a reference load,
// the same in every run: a walker's spot within its anchor's jitter changes
// what a dense-centre frame costs, and with the run's seed one seed in five
// read 30-50% above the rest.
const probeSeed = 1

// peak measures closed-loop capacity for dense-centre frames, the same
// probe on every workload and seed: fresh connections walk poll-dense's
// paths for probeSeed in real time, each keeping a fixed window of GPS + IMU
// + frame requests in flight back to back for d. Every request carries its
// walker's state at the moment it is sent, so both cameras pan together as
// in the window, whatever each connection's throughput (see walk). It
// returns the upper quartile (see quietShare) over peakBucket slices of the
// frames completed per second. (At the light frames of the outer bands the
// closed loop measures goroutine hand-offs more than the system, and its
// run-to-run spread on the reference host was over 30%.)
func (ps *pass) peak(d time.Duration) (float64, error) {
	dense, err := workloadByName("poll-dense")
	if err != nil {
		return 0, err
	}
	pl := newPlan(dense, probeSeed, d)
	clis, err := ps.dialPerShard("peak", &pl.conns)
	if err != nil {
		return 0, err
	}
	defer closeAll(clis)
	runtime.GC() // start from a collected heap, as the window does
	width := min(peakBucket, d)
	buckets := make([]atomic.Int64, int(d/width))
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for c, cli := range clis {
		evs := pl.conns[c]
		for w := 0; w < dense.inFlight; w++ {
			l := ps.newLane()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for now := time.Now(); now.Before(stop); now = time.Now() {
					e := evs[atOffset(evs, now.Sub(start))]
					l.attempted++
					err := cli.SendGPS(gpsFix(now, &e))
					if err == nil {
						err = cli.SendIMU(imuSample(now, &e))
					}
					if err == nil {
						_, _, err = cli.RequestFrame()
					}
					if err != nil {
						l.failed++
						continue
					}
					if k := int(time.Since(start) / width); k < len(buckets) {
						buckets[k].Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	var rates samples
	for i := range buckets {
		rates.add(float64(buckets[i].Load()) / width.Seconds())
	}
	return rates.quantile(1 - quietShare), nil
}
