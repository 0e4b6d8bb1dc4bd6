package server

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// fakeServer accepts one connection, answers the hello at the given
// version, and hands the conn to serve. It stands in for misbehaving or
// down-level servers the real Engine would never produce.
func fakeServer(t *testing.T, version uint32, serve func(fr *wire.FrameReader, fw *wire.FrameWriter)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := wire.NewFrameReader(conn)
		fw := wire.NewFrameWriter(conn)
		env, err := fr.ReadEnvelope()
		if err != nil || env.Type != wire.MsgHello {
			return
		}
		var hb wire.Buffer
		wire.EncodeHelloInto(&hb, wire.Hello{ID: 99, Name: "fake", Version: version})
		_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgHello, Seq: env.Seq, Payload: hb.Bytes()})
		_ = fw.Flush()
		if serve != nil {
			serve(fr, fw)
		}
	}()
	return ln.Addr().String()
}

// encodeTaggedFrame builds a valid empty-frame payload whose ElapsedNs
// carries the tag, so tests can tell replies apart.
func encodeTaggedFrame(tag uint64) []byte {
	var b wire.Buffer
	b.Uvarint(0)   // annotations
	b.Uvarint(0)   // level
	b.Uvarint(tag) // elapsed ns = tag
	return b.Bytes()
}

// TestRequestFrameMatchesSeq is the regression test for the reply-matching
// bug: the old client accepted *any* MsgAnnotations as the answer to its
// frame request. The fake server answers each request with an unrelated
// annotations envelope (wrong seq) first, then the real reply; the client
// must return the frame whose envelope carried the request's seq.
func TestRequestFrameMatchesSeq(t *testing.T) {
	addr := fakeServer(t, wire.ProtoV2, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			env, err := fr.ReadEnvelope()
			if err != nil {
				return
			}
			if env.Type != wire.MsgFrameRequest {
				continue
			}
			// A stray reply with an unrelated seq, then the real one.
			_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAnnotations, Seq: env.Seq + 1000,
				Session: 99, Payload: encodeTaggedFrame(666)})
			_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAnnotations, Seq: env.Seq,
				Session: 99, Payload: encodeTaggedFrame(42)})
			_ = fw.Flush()
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		f, _, err := cl.RequestFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.ElapsedNs != 42 {
			t.Fatalf("round %d: client returned the wrong-seq reply (tag %d)", i, f.ElapsedNs)
		}
	}
}

// TestPipelinedRequestsMatchOutOfOrderReplies drives concurrent requests
// against a server that answers them in reverse order: each caller must
// still get its own reply.
func TestPipelinedRequestsMatchOutOfOrderReplies(t *testing.T) {
	const batch = 4
	addr := fakeServer(t, wire.ProtoV2, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			var pend []*wire.Envelope
			for len(pend) < batch {
				env, err := fr.ReadEnvelope()
				if err != nil {
					return
				}
				if env.Type == wire.MsgFrameRequest {
					pend = append(pend, env)
				}
			}
			for i := len(pend) - 1; i >= 0; i-- {
				_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAnnotations, Seq: pend[i].Seq,
					Session: 99, Payload: encodeTaggedFrame(pend[i].Seq)})
			}
			_ = fw.Flush()
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, err := cl.RequestFrame()
			if err != nil {
				errs <- err
				return
			}
			if f.ElapsedNs == 0 {
				errs <- errors.New("untagged reply")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The matching invariant is stronger than "no error": every caller saw
	// the tag equal to a seq the server actually used, and the demux map
	// drained fully.
	cl.mu.Lock()
	left := len(cl.pending)
	cl.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries leaked", left)
	}
}

// TestDialVersionMismatchTyped pins the fail-closed handshake: a client
// requiring v2 against a v1-only server gets a *wire.VersionError from
// Dial — typed, immediate, no hang — and a default client that settled on
// v1 gets the same typed error from Subscribe without touching the wire.
func TestDialVersionMismatchTyped(t *testing.T) {
	// A v1-only server that answers pings; fakeServer takes one
	// connection, so each dial gets its own.
	ackPings := func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			env, err := fr.ReadEnvelope()
			if err != nil {
				return
			}
			if env.Type == wire.MsgControl {
				_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAck, Seq: env.Seq})
				_ = fw.Flush()
			}
		}
	}

	// Requiring v2 fails the dial itself.
	_, err := DialContext(context.Background(), fakeServer(t, wire.ProtoV1, ackPings),
		DialOptions{MinProto: wire.ProtoV2})
	var ve *wire.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("dial error = %v, want *wire.VersionError", err)
	}
	if ve.Remote != wire.ProtoV1 || ve.Need != wire.ProtoV2 {
		t.Fatalf("version error fields: %+v", ve)
	}

	// A tolerant client connects at v1, but Subscribe fails typed.
	cl, err := Dial(fakeServer(t, wire.ProtoV1, ackPings))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Proto() != wire.ProtoV1 {
		t.Fatalf("negotiated %d, want v1", cl.Proto())
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Subscribe(context.Background(), SubscribeOptions{})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe against v1 server hung")
	}
	if !errors.As(err, &ve) {
		t.Fatalf("subscribe error = %v, want *wire.VersionError", err)
	}
	// Request/reply still works on the negotiated v1 connection.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeStandalone is the v2 streaming happy path on a standalone
// server: subscribe once, then pushed frames arrive at a steady cadence
// with strictly increasing stream seqs and no further requests from the
// client; unsubscribe closes the channel cleanly.
func TestSubscribeStandalone(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Proto() < wire.ProtoV2 {
		t.Fatalf("negotiated %d, want >= v2", cl.Proto())
	}
	if cl.SessionID() == 0 {
		t.Fatal("handshake did not carry the session ID")
	}
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	var got int
	deadline := time.After(10 * time.Second)
	for got < 10 {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("stream closed after %d frames: %v", got, cl.StreamErr())
			}
			if f.Seq <= lastSeq {
				t.Fatalf("push seq went %d -> %d: not strictly increasing", lastSeq, f.Seq)
			}
			lastSeq = f.Seq
			if len(f.Annotations) == 0 {
				t.Fatal("pushed frame carries no annotations")
			}
			got++
		case <-deadline:
			t.Fatalf("only %d pushed frames arrived", got)
		}
	}
	if err := cl.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	// The channel must close (possibly after a few in-flight frames).
	for {
		select {
		case _, ok := <-frames:
			if !ok {
				if err := cl.StreamErr(); err != nil {
					t.Fatalf("clean unsubscribe left StreamErr = %v", err)
				}
				// Request/reply still works after the stream ends.
				if _, _, err := cl.RequestFrame(); err != nil {
					t.Fatal(err)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("channel never closed after unsubscribe")
		}
	}
}

// TestSubscribeStandalonePollWhileStreaming polls frames on a standalone
// session while its own 1 ms stream renders it on other scheduler workers.
// Each reply is encoded from per-session scratch the next render
// overwrites, so both paths must encode under the session lock: under
// -race an encode outside it is a data race, and without -race it shows as
// a corrupt frame or a reply for the wrong request.
func TestSubscribeStandalonePollWhileStreaming(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pushed := make(chan int)
	go func() {
		n := 0
		for range frames {
			n++
		}
		pushed <- n
	}()
	for i := 0; i < 300; i++ {
		f, _, err := cl.RequestFrame()
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		if len(f.Annotations) == 0 {
			t.Fatalf("poll %d: frame carries no annotations", i)
		}
	}
	if err := cl.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-pushed:
		if n == 0 {
			t.Fatal("no frames pushed while polling")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel never closed after unsubscribe")
	}
}

// TestSubscribeContextCancelUnsubscribes checks the context path: when the
// subscription context is cancelled the client unsubscribes on its own and
// the channel closes.
func TestSubscribeContextCancelUnsubscribes(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	frames, err := cl.Subscribe(ctx, SubscribeOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One frame proves the stream is live, then cancel.
	select {
	case <-frames:
	case <-time.After(10 * time.Second):
		t.Fatal("no frame before cancel")
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-frames:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel never closed after context cancel")
		}
	}
}

// TestCloseUnblocksSubscribersAndWaiters checks Close's contract: an
// in-flight round-trip and a live subscription both unblock.
func TestCloseUnblocksSubscribersAndWaiters(t *testing.T) {
	// A server that acks subscribes but then goes silent, so the client
	// has a live stream and a hanging request.
	addr := fakeServer(t, wire.ProtoV2, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			env, err := fr.ReadEnvelope()
			if err != nil {
				return
			}
			if env.Type == wire.MsgSubscribe {
				_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAck, Seq: env.Seq})
				_ = fw.Flush()
			}
			// Frame requests are swallowed: the waiter must be freed by
			// Close, not by a reply.
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		_, _, err := cl.RequestFrame()
		reqDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the wire
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reqDone:
		if err == nil {
			t.Fatal("request succeeded against a silent server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the request waiter")
	}
	select {
	case _, ok := <-frames:
		if ok {
			// Drain: channel must close shortly.
			for range frames {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not close the subscription channel")
	}
	if cl.StreamErr() == nil {
		t.Fatal("abnormal stream end recorded no error")
	}
}

// blockingWriter blocks every Write until released, emulating a peer that
// stops reading while the kernel buffer is full.
type blockingWriter struct {
	release chan struct{}
}

func (bw *blockingWriter) Write(p []byte) (int, error) {
	<-bw.release
	return len(p), nil
}

// TestOutboxDropsOldestWhenFull pins the backpressure policy at the unit
// level: with the writer wedged, enqueues beyond capacity drop the oldest
// queued push (releasing its buffer) and never block the caller.
func TestOutboxDropsOldestWhenFull(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{})}
	var reg metrics.Registry
	dropped := reg.Counter("dropped")
	ob := newOutbox(&lockedWriter{fw: wire.NewFrameWriter(bw)}, 4, dropped, nil)

	released := make(map[uint64]bool)
	var mu sync.Mutex
	enq := func(seq uint64) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ob.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgFramePush, Seq: seq},
				release: func() { mu.Lock(); released[seq] = true; mu.Unlock() }})
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("enqueue(%d) blocked", seq)
		}
	}
	// The writer takes the first message off the queue and wedges in
	// Write; capacity 4 then fills with the next four. Give the writer a
	// beat to pick up msg 1 so the accounting below is deterministic.
	enq(1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		ob.mu.Lock()
		n := ob.queueLenLocked()
		ob.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first push")
		}
		time.Sleep(time.Millisecond)
	}
	for seq := uint64(2); seq <= 5; seq++ {
		enq(seq) // fills capacity exactly
	}
	enq(6) // must evict 2
	enq(7) // must evict 3
	mu.Lock()
	if !released[2] || !released[3] {
		mu.Unlock()
		t.Fatal("oldest pushes were not dropped")
	}
	if released[6] || released[7] {
		mu.Unlock()
		t.Fatal("newest pushes were dropped")
	}
	mu.Unlock()
	if got := dropped.Value(); got != 2 {
		t.Fatalf("dropped counter = %d, want 2", got)
	}
	close(bw.release) // unwedge; everything drains
	ob.close()
	mu.Lock()
	defer mu.Unlock()
	for seq := uint64(4); seq <= 7; seq++ {
		if !released[seq] {
			t.Fatalf("push %d never released after drain", seq)
		}
	}
}

// TestStreamSkipsTicksWhenBehind pins cadence degradation: with the only
// scheduler worker wedged, a fast subscription's ticks are skipped (at
// most one frame in flight) instead of piling jobs into the queue.
func TestStreamSkipsTicksWhenBehind(t *testing.T) {
	p := newTestPlatform(t)
	srv := NewWithOptions(p, discardLogger(),
		Options{Scheduler: SchedulerConfig{Workers: 1, Deadline: -1}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// Wedge the single worker.
	blocker := p.NewSession()
	if err := blocker.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(1)
	if err := srv.Scheduler().Submit(blocker, func(_ *core.Frame, err error) {
		defer blocked.Done()
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	defer blocked.Wait()
	defer close(release)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	skipped := srv.Scheduler().Metrics().Counter("server.stream.skipped")
	deadline := time.Now().Add(10 * time.Second)
	for skipped.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stream skipped no ticks while the worker was wedged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cadence degraded to completion pacing: exactly one frame job belongs
	// to the stream (queued behind the blocker) and no pushes complete
	// while the worker is wedged — the stream parks instead of piling jobs
	// into the queue.
	time.Sleep(20 * time.Millisecond)
	if pushes := srv.Scheduler().Metrics().Counter("server.stream.pushes").Value(); pushes != 0 {
		t.Fatalf("pushes completed while the only worker was wedged: %d", pushes)
	}
	if got := skipped.Value(); got != 1 {
		t.Fatalf("skipped = %d ticks, want exactly 1 (the stream parks on the in-flight frame)", got)
	}
}

// TestStaleContextCannotKillNewerSubscription pins the watcher scoping: a
// cancelled context from an *earlier*, already-unsubscribed subscription
// must not tear down the stream that replaced it.
func TestStaleContextCannotKillNewerSubscription(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	if _, err := cl.Subscribe(ctx1, SubscribeOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cancel1() // the first subscription's watcher must be a no-op by now
	// The second stream keeps flowing well past the cancellation.
	deadline := time.After(10 * time.Second)
	for got := 0; got < 5; got++ {
		select {
		case _, ok := <-frames:
			if !ok {
				t.Fatalf("stale context killed the newer subscription after %d frames (StreamErr=%v)",
					got, cl.StreamErr())
			}
		case <-deadline:
			t.Fatal("stream stalled")
		}
	}
}

// TestSubscribeTwiceFails pins the one-stream-per-connection rule.
func TestSubscribeTwiceFails(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Subscribe(context.Background(), SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(context.Background(), SubscribeOptions{}); !errors.Is(err, ErrAlreadySubscribed) {
		t.Fatalf("second subscribe err = %v, want ErrAlreadySubscribed", err)
	}
}

// TestLegacyRawClientStillServed pins v1 compatibility on the standalone
// server: a connection that never says hello speaks the old protocol
// unchanged, and a subscribe attempt on it is rejected with a version
// error rather than honoured or hung.
func TestLegacyRawClientStillServed(t *testing.T) {
	_, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.sendGPS(t, 0, center)
	seq := rc.send(t, wire.MsgFrameRequest, 0, nil)
	env := rc.read(t)
	if env.Type != wire.MsgAnnotations || env.Seq != seq {
		t.Fatalf("legacy frame reply = %v seq %d, want annotations seq %d", env.Type, env.Seq, seq)
	}
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 1})
	rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	env = rc.read(t)
	if env.Type != wire.MsgError || !strings.Contains(string(env.Payload), "version mismatch") {
		t.Fatalf("v1 subscribe reply = %v %q, want version-mismatch error", env.Type, env.Payload)
	}
}

// TestStandaloneClientConnEdgeCases pins how a standalone client
// connection treats envelopes outside the plain v1 exchange. Each case
// starts with ordinary traffic, which pins the connection at v1, and sends
// under a session ID the server must ignore. The reply must carry the
// connection's own session, and the connection must stay usable on it.
func TestStandaloneClientConnEdgeCases(t *testing.T) {
	var hb wire.Buffer
	wire.EncodeHelloInto(&hb, wire.Hello{Name: "late", Version: wire.ProtoMax})
	cases := []struct {
		name     string
		typ      wire.MsgType
		payload  []byte
		want     wire.MsgType
		wantText string
	}{
		{"hello after traffic", wire.MsgHello, hb.Bytes(), wire.MsgError, "hello after traffic"},
		{"control payload is a ping", wire.MsgControl, []byte{CtrlEndSession}, wire.MsgAck, ""},
		{"migrate is unsupported", wire.MsgMigrateSession, nil, wire.MsgError, "unsupported message"},
	}
	_, addr := startServer(t)
	frame := func(t *testing.T, rc *rawConn) *wire.Envelope {
		t.Helper()
		seq := rc.send(t, wire.MsgFrameRequest, 0, nil)
		env := rc.read(t)
		if env.Type != wire.MsgAnnotations || env.Seq != seq {
			t.Fatalf("frame reply = %v seq %d %q, want annotations seq %d", env.Type, env.Seq, env.Payload, seq)
		}
		return env
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialRaw(t, addr)
			rc.sendGPS(t, 0, center)
			session := frame(t, rc).Session
			seq := rc.send(t, tc.typ, session+1000, tc.payload)
			env := rc.read(t)
			if env.Type != tc.want || env.Seq != seq || !strings.Contains(string(env.Payload), tc.wantText) {
				t.Fatalf("reply = %v seq %d %q, want %v seq %d containing %q",
					env.Type, env.Seq, env.Payload, tc.want, seq, tc.wantText)
			}
			if env.Session != session {
				t.Fatalf("reply on session %d, want the connection's %d", env.Session, session)
			}
			if got := frame(t, rc).Session; got != session {
				t.Fatalf("frame after %s served on session %d, want %d", tc.name, got, session)
			}
		})
	}
}

// TestStalledClientDoesNotWedgeWorkers: a standalone client that pipelines
// thousands of frame requests and never reads its replies fills its socket
// buffers. That must block only its own connection; the render workers
// must keep serving every other client.
func TestStalledClientDoesNotWedgeWorkers(t *testing.T) {
	// Large overlays fill the stalled connection's buffers quickly.
	p, err := core.NewPlatform(core.Config{Seed: 1, MaxAnnotations: 200,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(p, discardLogger(),
		Options{Scheduler: SchedulerConfig{Workers: 2, Deadline: -1}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	stalled := dialRaw(t, addr)
	stalled.sendGPS(t, 0, center)
	go func() {
		// Writes block once the server stops reading; the test's cleanup
		// closes the conn and ends the loop.
		for seq := uint64(1); ; seq++ {
			env := wire.Envelope{Type: wire.MsgFrameRequest, Seq: seq}
			if stalled.fw.WriteEnvelope(&env) != nil || stalled.fw.Flush() != nil {
				return
			}
		}
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	// Keep polling while the flood renders and its buffers fill up.
	start := time.Now()
	for time.Since(start) < 2*time.Second {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _, err := c.RequestFrameContext(ctx)
		cancel()
		if err != nil {
			t.Fatalf("frame %v into a stalled client's flood: %v", time.Since(start), err)
		}
	}
}

// TestRawV2SubscribePushesWithoutRequests is the wire-level acceptance
// check: after hello and subscribe, pushed frames arrive with strictly
// increasing seqs while the client sends nothing at all.
func TestRawV2SubscribePushesWithoutRequests(t *testing.T) {
	_, addr := startServer(t)
	rc := dialRaw(t, addr)
	peer := rc.hello(t, "raw-v2", wire.ProtoMax)
	if peer.Version != wire.ProtoMax {
		t.Fatalf("server announced v%d", peer.Version)
	}
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 2, Budget: 16})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		env := rc.read(t)
		if env.Type != wire.MsgFramePush {
			t.Fatalf("push %d: type %v", i, env.Type)
		}
		if env.Seq <= last {
			t.Fatalf("push seq went %d -> %d", last, env.Seq)
		}
		last = env.Seq
		if _, err := core.DecodeFrame(env.Payload); err != nil {
			t.Fatalf("push %d: corrupt frame: %v", i, err)
		}
	}
}

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// newTestPlatform builds the small-city platform the server tests share.
func newTestPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
