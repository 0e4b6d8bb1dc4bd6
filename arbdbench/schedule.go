package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

// numConns is the client connection (or join slot) count: the load comes
// from one process over at most nproc connections, and the reference host
// has two cores.
const numConns = 2

// workload is one traffic shape against the same city and topology.
type workload struct {
	name string
	// Walkers stay in the annulus [minR, maxR] metres from the city centre.
	minR, maxR float64

	// poll-dense: open-loop ticks per second per connection (GPS + IMU +
	// RequestFrame each) and the in-flight window per connection.
	pollRate float64
	inFlight int

	// stream-sparse: push interval and device sensor rates per connection.
	interval                   time.Duration
	imuRate, gpsRate, gazeRate float64

	// join-churn: open-loop join arrivals per second per slot and the
	// pushes each join waits for (the first push included).
	joinRate      float64
	pushesPerJoin int
}

// The workloads share the city and topology; only the traffic differs.
var workloads = []*workload{
	// Request/reply frames at the city centre, where ~1,400 POIs fall in
	// radius: geo and render carry the frame, and requests take the
	// router's forward leg.
	{
		name: "poll-dense",
		minR: 50, maxR: 150,
		pollRate: 200, inFlight: 4,
	},
	// Delta push streams 1.5-2.8 km out with gaze ingest: per-push serving
	// costs, and mq/analytics writes beside every frame's sketch read.
	{
		name: "stream-sparse",
		minR: 1500, maxR: 2800,
		interval: 5 * time.Millisecond, imuRate: 100, gpsRate: 1, gazeRate: 20,
	},
	// Sessions dial, subscribe, take three pushes and leave: handshake,
	// placement, the first keyframe and teardown rather than steady state.
	{
		name: "join-churn",
		minR: 300, maxR: 1200,
		interval: 2 * time.Millisecond, joinRate: 60, pushesPerJoin: 3,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type eventKind uint8

const (
	evTick eventKind = iota + 1 // poll: GPS + IMU + RequestFrame
	evIMU
	evGPS
	evGaze
	evJoin
)

// event is one scheduled client action. Every field is fixed by the seed
// before the run starts; only the wall-clock origin is chosen at run time.
type event struct {
	due   time.Duration // offset from the window start
	kind  eventKind
	pos   geo.Point // walker position at due
	hdg   float64   // camera heading, degrees
	gyro  float64   // camera yaw rate, rad/s
	accel float64   // forward acceleration, m/s²
	pick  int       // gaze: which annotation of the last push to look at
	dwell float64   // gaze: dwell, ms (always ≥ the 1.5 s interaction bar)
}

// plan is a workload's complete input schedule for one seed.
type plan struct {
	wl     *workload
	seed   int64
	window time.Duration
	conns  [numConns][]event
}

// gpsAccuracyM is the reported 1-sigma accuracy of every fix.
const gpsAccuracyM = 5

// walkSpeed is pedestrian speed, m/s.
const walkSpeed = 1.4

// newPlan derives the schedule and walker paths for one seed and window.
func newPlan(wl *workload, seed int64, window time.Duration) *plan {
	p := &plan{wl: wl, seed: seed, window: window}
	root := sim.NewRand(seed)
	lead := root.Float64()
	cam := newCamera(root, window)
	for c := 0; c < numConns; c++ {
		rng := root.Child(fmt.Sprintf("%s/%d", wl.name, c))
		// Frame requests and joins interleave evenly across the
		// connections from a seeded start. With a seeded phase per
		// connection, the seed would decide how often two connections'
		// requests collide, and the tail latency with it.
		slot := math.Mod(lead+float64(c)/numConns, 1)
		var evs []event
		switch {
		case wl.pollRate > 0:
			evs = periodic(rng, evTick, wl.pollRate, slot, window)
		case wl.joinRate > 0:
			evs = periodic(rng, evJoin, wl.joinRate, slot, window)
		default:
			evs = append(evs, periodic(rng, evIMU, wl.imuRate, rng.Float64(), window)...)
			evs = append(evs, periodic(rng, evGPS, wl.gpsRate, rng.Float64(), window)...)
			evs = append(evs, periodic(rng, evGaze, wl.gazeRate, rng.Float64(), window)...)
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
		}
		if wl.joinRate > 0 {
			// Every join is a different user, arriving at its own spot.
			for i := range evs {
				evs[i].pos = randomSpot(rng, wl)
				evs[i].hdg = rng.Uniform(0, 360)
			}
		} else {
			walk(rng, wl, c, cam, evs)
		}
		p.conns[c] = evs
	}
	return p
}

// periodic lays events of one kind at a fixed rate, the first at phase (a
// fraction of the period).
func periodic(rng *sim.Rand, kind eventKind, rate, phase float64, window time.Duration) []event {
	period := time.Duration(float64(time.Second) / rate)
	evs := make([]event, 0, int(float64(window)/float64(period))+1)
	for t := time.Duration(phase * float64(period)); t < window; t += period {
		e := event{due: t, kind: kind}
		if kind == evGaze {
			e.pick = rng.Intn(1 << 16)
			e.dwell = rng.Uniform(1500, 3000)
		}
		evs = append(evs, e)
	}
	return evs
}

// panTurns is how many full turns a user's camera sweeps per window: AR
// users look around, and a whole number of turns makes every run see every
// heading equally often, whatever the seed.
const panTurns = 3

// camera is the pan every walker of a plan follows: a seeded start heading
// and direction, panTurns turns over the window.
type camera struct {
	start float64 // degrees
	rate  float64 // degrees per second, signed
}

// newCamera draws a plan's camera from rng.
func newCamera(rng *sim.Rand, window time.Duration) camera {
	c := camera{start: rng.Uniform(0, 360), rate: panTurns * 360 / window.Seconds()}
	if rng.Bool(0.5) {
		c.rate = -c.rate
	}
	return c
}

// walk moves connection c's pedestrian through the events in due order,
// from a seeded spot near its anchor: a smooth random walking direction at
// walking speed, turned back whenever it leaves the workload's annulus,
// while the camera pans. Both walkers' cameras point the same way at every
// instant. The walkers stand on opposite sides of the centre, and a view
// toward the centre costs the most; with a seeded camera per walker, the
// seed decided whether the two expensive views came at the same time, and
// with it the tail latency: over five seeds, poll-dense p90 spread 0.19 with
// a camera per walker, and 0.04-0.10 with one.
func walk(rng *sim.Rand, wl *workload, c int, cam camera, evs []event) {
	pos := geo.Destination(anchor(wl, c), rng.Uniform(0, 360), rng.Uniform(0, anchorJitterM))
	dir := rng.Uniform(0, 360)
	var last time.Duration
	for i := range evs {
		dt := (evs[i].due - last).Seconds()
		last = evs[i].due
		turn := rng.Norm(0, 15*math.Sqrt(dt))
		d := geo.DistanceMeters(cityCenter, pos)
		switch {
		case d > wl.maxR:
			turn = angleDiff(geo.BearingDegrees(pos, cityCenter), dir) + rng.Uniform(-30, 30)
		case d < wl.minR:
			turn = angleDiff(geo.BearingDegrees(cityCenter, pos), dir) + rng.Uniform(-30, 30)
		}
		dir = math.Mod(dir+turn+360, 360)
		pos = geo.Destination(pos, dir, walkSpeed*dt)
		evs[i].pos = pos
		evs[i].hdg = math.Mod(cam.start+cam.rate*evs[i].due.Seconds()+3600, 360)
		evs[i].gyro = cam.rate * math.Pi / 180
		evs[i].accel = rng.Norm(0, 0.2)
	}
}

// anchorJitterM bounds a walker's seeded start offset from its anchor.
const anchorJitterM = 20

// anchor is connection c's fixed start spot: mid-band, on opposite bearings
// for the two connections. Walkers cover only metres in a window, so a
// seeded start anywhere in the band would make each run measure two random
// places of a city whose POI density varies block by block; fixed anchors
// keep the geography the same from seed to seed.
func anchor(wl *workload, c int) geo.Point {
	return geo.Destination(cityCenter, 45+180*float64(c), (wl.minR+wl.maxR)/2)
}

// randomSpot is a seeded point in the workload's annulus.
func randomSpot(rng *sim.Rand, wl *workload) geo.Point {
	return geo.Destination(cityCenter, rng.Uniform(0, 360), rng.Uniform(wl.minR, wl.maxR))
}

// angleDiff is the signed turn in degrees, within [-180, 180), that takes
// heading from onto heading to.
func angleDiff(to, from float64) float64 {
	return math.Mod(to-from+540, 360) - 180
}

// fingerprint hashes every scheduled input, for the determinism test.
func (p *plan) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	for _, evs := range p.conns {
		for _, e := range evs {
			put(uint64(e.due))
			put(uint64(e.kind))
			put(math.Float64bits(e.pos.Lat))
			put(math.Float64bits(e.pos.Lon))
			put(math.Float64bits(e.hdg))
			put(math.Float64bits(e.gyro))
			put(math.Float64bits(e.accel))
			put(uint64(e.pick))
			put(math.Float64bits(e.dwell))
		}
	}
	return h.Sum64()
}
