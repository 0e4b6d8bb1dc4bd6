package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/mq"
	"arbd/internal/obs"
	"arbd/internal/render"
	"arbd/internal/wire"
)

// span is one timed step: a client call, a node's frame stage, or a replayed
// layer call. ID is the tick, join, or replay step it belongs to; Parent
// names the enclosing span ("" for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"` // Unix nanoseconds
	End    int64  `json:"end"`
}

// spanLog buffers spans in memory; a disabled log records nothing and reads
// no clock, so untraced passes pay only a branch per call site.
type spanLog struct {
	on    bool
	spans []span
}

func (l *spanLog) now() time.Time {
	if !l.on {
		return time.Time{}
	}
	return time.Now()
}

func (l *spanLog) end(name, parent string, id uint64, start time.Time) {
	if l.on {
		l.endAt(name, parent, id, start, time.Now())
	}
}

func (l *spanLog) endAt(name, parent string, id uint64, start, end time.Time) {
	if l.on {
		l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start.UnixNano(), End: end.UnixNano()})
	}
}

// durations collects the durations of every span with the given names.
func (l *spanLog) durations(names ...string) samples {
	var s samples
	for _, sp := range l.spans {
		for _, n := range names {
			if sp.Name == n {
				s.addUS(time.Duration(sp.End - sp.Start))
				break
			}
		}
	}
	return s
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// nodeSpans converts each shard's flight-recorder ring into spans, one per
// frame stage, parented to a "shard.frame" root keyed by push Seq.
func (ps *pass) nodeSpans(l *spanLog) (stages [obs.NumStages]samples) {
	var recs []obs.FrameRecord
	for _, sh := range ps.cl.shards {
		recs = sh.Engine().Recorder().Records(recs[:0])
		for i := range recs {
			r := &recs[i]
			if r.Shed || r.Err {
				continue
			}
			at := r.Start
			l.spans = append(l.spans, span{Name: "shard.frame", ID: r.Seq, Start: at, End: at + r.Total})
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				d := r.Spans[st]
				l.spans = append(l.spans, span{Name: "shard." + st.String(), ID: r.Seq, Parent: "shard.frame", Start: at, End: at + d})
				at += d
				stages[st].addUS(time.Duration(d))
			}
		}
	}
	return stages
}

// replayResult is what calling the layers directly measured.
type replayResult struct {
	geoUS, candidates, kept     samples
	layoutUS, placed            samples
	frameUS, sensorUS           samples
	encodeUS, deltaUS, decodeUS samples
	wireEncNS, wireDecNS        samples
	produceUS                   samples
}

// replaySteps bounds the replay: enough for stable medians, short enough to
// leave the run's time to the measured window.
const replaySteps = 600

// replay feeds the workload's own seeded walker inputs through the layers'
// public functions on shard 1's platform, timing each call. A delta that
// fails to reproduce the full frame fails the run.
func (ps *pass) replay(l *spanLog) (*replayResult, error) {
	p := ps.cl.platforms[0]
	// A walker is one session for the whole replay; every join is a new
	// user, so join-churn replays each step as a session's first frame.
	perJoin := ps.pl.wl.joinRate > 0
	var sess *core.Session
	if !perJoin {
		sess = p.NewSession()
		defer func() { _ = p.EndSession(sess.ID) }()
	}
	occluders := render.OccludersFromPOIs(p.POIs().All(), 30)
	var evs []event
	for _, conn := range ps.pl.conns {
		evs = append(evs, conn...)
	}
	stride := 1
	if len(evs) > replaySteps {
		stride = len(evs) / replaySteps
	}
	const maxAnn = 20 // core.Config default MaxAnnotations
	var (
		rr       replayResult
		pois     []geo.POI
		anns     []render.Annotation
		laid     []render.Annotation
		lsc      render.LayoutScratch
		full     wire.Buffer
		delta    wire.Buffer
		envBuf   []byte
		env      wire.Envelope
		prev     *core.DecodedFrame
		base     = time.Now()
		deltaMsg = ps.pl.wl.pollRate == 0 // streams carry deltas, polls full frames
	)
	step := func(name string, id uint64, s time.Time) time.Duration {
		e := time.Now()
		l.endAt(name, "replay", id, s, e)
		return e.Sub(s)
	}
	for k := 0; k < replaySteps && k*stride < len(evs); k++ {
		e := &evs[k*stride]
		id := uint64(k)
		at := base.Add(e.due)
		root := time.Now()
		if perJoin {
			sess, prev = p.NewSession(), nil
		}

		s := time.Now()
		if err := sess.OnGPS(gpsFix(at, e)); err != nil {
			return nil, err
		}
		rr.sensorUS.addUS(step("core.on_gps", id, s))
		s = time.Now()
		sess.OnIMU(imuSample(at, e))
		rr.sensorUS.addUS(step("core.on_imu", id, s))

		s = time.Now()
		f, err := sess.Frame(at)
		if err != nil {
			return nil, err
		}
		rr.frameUS.addUS(step("core.frame", id, s))

		pose := f.Pose
		s = time.Now()
		pois = p.POIs().QueryRadiusInto(pois[:0], pose.Position, annotationRadiusM, 0)
		rr.geoUS.addUS(step("geo.query_radius", id, s))
		c := float64(len(pois))
		rr.candidates.add(c)
		working := pois
		if len(working) > 3*maxAnn {
			working = working[:3*maxAnn]
		}
		rr.kept.add(ratio(float64(len(working)), c))

		s = time.Now()
		anns = render.AnnotationsFromPOIsInto(anns[:0], pose, working)
		laid = render.LayoutAnchoredInto(laid[:0], &lsc, render.DefaultCamera, pose, anns, occluders, render.LayoutOptions{})
		rr.layoutUS.addUS(step("render.layout", id, s))
		rr.placed.add(ratio(float64(len(laid)), float64(len(anns))))

		// Codec calls take well under a microsecond, so each is timed over
		// a burst of back-to-back repetitions.
		s = time.Now()
		rr.encodeUS.addUS(perCall(func() { full.Reset(); core.EncodeFrameInto(&full, f) }))
		step("core.encode_frame", id, s)
		s = time.Now()
		rr.deltaUS.addUS(perCall(func() { delta.Reset(); core.EncodeFrameDeltaInto(&delta, f, prev == nil) }))
		step("core.encode_frame_delta", id, s)

		var got *core.DecodedFrame
		payload := full.Bytes()
		env.Type = wire.MsgAnnotations
		if deltaMsg {
			payload = delta.Bytes()
			env.Type = wire.MsgFrameDelta
		}
		s = time.Now()
		rr.decodeUS.addUS(perCall(func() {
			if deltaMsg {
				got, err = core.ApplyFrameDelta(prev, payload)
			} else {
				got, err = core.DecodeFrame(payload)
			}
		}))
		step("core.decode", id, s)
		if err != nil {
			return nil, fmt.Errorf("replay step %d: decode: %w", k, err)
		}
		want, err := core.DecodeFrame(full.Bytes())
		if err != nil {
			return nil, fmt.Errorf("replay step %d: full frame: %w", k, err)
		}
		if !sameOverlay(got, want) {
			return nil, fmt.Errorf("replay step %d: delta does not reproduce the full frame", k)
		}
		prev = want

		env.Seq, env.Session, env.Payload = id+1, sess.ID, payload
		var back wire.Envelope
		s = time.Now()
		rr.wireEncNS.add(float64(perCall(func() { envBuf = wire.EncodeEnvelope(envBuf[:0], &env) })))
		step("wire.encode_envelope", id, s)
		s = time.Now()
		rr.wireDecNS.add(float64(perCall(func() { err = wire.DecodeEnvelopeInto(&back, envBuf) })))
		step("wire.decode_envelope", id, s)
		if err != nil {
			return nil, err
		}
		if perJoin {
			_ = p.EndSession(sess.ID)
		}
		l.endAt("replay", "", id, root, time.Now())
	}
	if err := replayMQ(&rr, l); err != nil {
		return nil, err
	}
	return &rr, nil
}

// burst is how many back-to-back calls perCall times.
const burst = 32

// perCall returns the mean duration of one call of fn over a burst.
func perCall(fn func()) time.Duration {
	s := time.Now()
	for i := 0; i < burst; i++ {
		fn()
	}
	return time.Since(s) / burst
}

// sameOverlay compares two decoded overlays annotation by annotation.
func sameOverlay(a, b *core.DecodedFrame) bool {
	if len(a.Annotations) != len(b.Annotations) {
		return false
	}
	for i := range a.Annotations {
		x, y := &a.Annotations[i], &b.Annotations[i]
		if x.ID != y.ID || x.Label != y.Label || x.X != y.X || x.Y != y.Y || x.Anchor != y.Anchor || x.XRay != y.XRay {
			return false
		}
	}
	return true
}

// replayMQ times interaction-sized batches through a private broker:
// ProduceBatch, then PollInto draining them.
func replayMQ(rr *replayResult, l *spanLog) error {
	b := mq.NewBroker()
	defer b.Close()
	const topic = "replay.interactions"
	if err := b.CreateTopic(topic, mq.TopicConfig{Partitions: 4}); err != nil {
		return err
	}
	g, err := b.NewGroup(topic)
	if err != nil {
		return err
	}
	vals := make([][]byte, 32)
	for i := range vals {
		vals[i] = make([]byte, 40)
		vals[i][0] = byte(i)
	}
	var recs []mq.Record
	key := []byte("session")
	for k := 0; k < replaySteps; k++ {
		s := time.Now()
		if _, err := b.ProduceBatch(topic, key, vals); err != nil {
			return err
		}
		e := time.Now()
		rr.produceUS.addUS(e.Sub(s))
		l.endAt("mq.produce_batch", "replay", uint64(k), s, e)

		s = time.Now()
		if recs, err = g.PollInto(recs[:0], len(vals)); err != nil {
			return err
		}
		l.endAt("mq.poll", "replay", uint64(k), s, time.Now())
	}
	return nil
}

// tracePath is where a traced run writes its spans (inside the checkout, in
// the build directory the repository ignores).
func tracePath(wl string, seed int64) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", wl, seed))
}

// probeJoins is the length of the traced pass's join probe.
const probeJoins = 20

// probe runs a short sequential series of joins after the window, so every
// workload yields dial and subscribe spans and stream flight records.
func (ps *pass) probe(spans *spanLog) error {
	l := &lane{spans: spanLog{on: true}}
	evs := ps.pl.conns[0]
	for k := 0; k < probeJoins; k++ {
		e := evs[k%len(evs)]
		e.due = time.Since(ps.t0)
		ps.join(&e, uint64(1)<<40|uint64(k), ps.due(&e), l, 2*time.Millisecond, 3)
	}
	if l.failed > 0 {
		return fmt.Errorf("probe: %d of %d joins failed", l.failed, probeJoins)
	}
	spans.spans = append(spans.spans, l.spans.spans...)
	return nil
}

// routerFlightMeanUS is the mean router-side push flight (outbox wait plus
// write) from the router registry's obs.frame.total histogram. The router's
// per-stage records are not exported, so the stage split cannot be read
// from outside the program.
func routerFlightMeanUS(cl *cluster) float64 {
	for _, in := range cl.router.Metrics().Snapshot() {
		if in.Name == "obs.frame.total" && in.Kind == metrics.KindHistogram {
			return float64(in.Hist.Mean) / float64(time.Microsecond)
		}
	}
	return 0
}

// shardSkew is max ÷ min frames served per shard (min floored at 1).
func shardSkew(cl *cluster) float64 {
	done := cl.perShard("server.frames.done")
	pushes := cl.perShard("server.stream.pushes")
	lo, hi := -1.0, 0.0
	for i := range done {
		n := done[i] + pushes[i]
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo < 1 {
		lo = 1
	}
	return hi / lo
}
