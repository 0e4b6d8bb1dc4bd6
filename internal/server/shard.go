package server

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"arbd/internal/core"
	"arbd/internal/wire"
)

// Control payload discriminators inside MsgControl envelopes. An empty
// control payload is a ping (replied to with MsgAck); routers use
// CtrlEndSession to tell a shard a client disconnected.
const (
	// CtrlEndSession ends the envelope's session on the receiving shard:
	// buffered telemetry is flushed and the session leaves the registry.
	// One-way — no reply, since the client it belonged to is gone.
	CtrlEndSession uint8 = 1
)

// MsgMigrateSession reply status bytes (shard → router). The request
// direction needs no discriminator: an empty payload asks the shard to
// export the session, a non-empty payload is a snapshot to import.
const (
	// MigExported precedes the session snapshot in an export reply.
	MigExported uint8 = 1
	// MigImported acknowledges a successful snapshot import.
	MigImported uint8 = 2
	// MigFailed precedes UTF-8 error text in either direction's reply.
	MigFailed uint8 = 3
)

// backendPushQueue is the minimum outbox capacity on a shard's backend
// connection, which multiplexes many sessions' streams toward one router.
const backendPushQueue = 64

// clientFramesInFlight bounds a client connection's unanswered frame
// requests. Past it the connection stops reading, so a client that stops
// reading its replies backs up into its own socket, as it would against a
// synchronous server.
const clientFramesInFlight = 32

// ShardOptions tunes a shard node.
type ShardOptions struct {
	// Options carries the engine/scheduler tuning (same knobs as the
	// standalone server).
	Options
	// ID is the shard's ring member identity, announced in the hello
	// handshake so a router can detect a miswired address.
	ID uint64
	// Name labels the shard in handshakes and logs (default "shard-<ID>").
	Name string
	// LoadEvery is how often the shard pushes a MsgLoad envelope on every
	// backend connection (default 25 ms). Zero takes the default; negative
	// disables pushing (tests drive load reports by hand).
	LoadEvery time.Duration
	// Load overrides the reported load signal (default: the platform's
	// LoadSignal). Tests inject synthetic pressure here.
	Load func() core.LoadSignal
}

// Shard serves a partition of the session ID space to routers: one backend
// connection multiplexes many sessions, each envelope resolved to its
// session by ID (the router assigns IDs and owns placement). Frame requests
// run on the engine's scheduler and reply asynchronously, so one slow frame
// does not head-of-line-block the other sessions on the connection; the
// shard also pushes its LoadSignal periodically so routers shed for this
// shard's pressure before spending a forward hop.
type Shard struct{ node }

// NewShard returns a shard node over the platform (not yet listening).
func NewShard(p *core.Platform, logger *log.Logger, opts ShardOptions) *Shard {
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("shard-%d", opts.ID)
	}
	if opts.LoadEvery == 0 {
		opts.LoadEvery = 25 * time.Millisecond
	}
	if opts.Load == nil {
		opts.Load = p.LoadSignal
	}
	sh := &Shard{node{role: "shard", id: opts.ID, name: opts.Name, backend: true,
		loadEvery: opts.LoadEvery, load: opts.Load}}
	sh.setup(p, logger, opts.Options)
	return sh
}

// ID returns the shard's ring member identity.
func (sh *Shard) ID() uint64 { return sh.id }

// node is the frame-serving node behind both the standalone Server and the
// Shard: an engine, its listener, and one per-connection dispatch. The
// roles differ only in their labels and their connection mode (see
// serveConn); standalone is a shard whose connections are each bound to
// one session.
type node struct {
	eng    *Engine
	cs     *connServer
	logger *log.Logger
	role   string // introspection-plane role
	id     uint64 // hello identity on backend connections; plane node ID
	name   string // hello name and log prefix
	// backend selects the connection mode: routers dial in and multiplex
	// sessions (shard), or each client connection is one session
	// (standalone).
	backend   bool
	loadEvery time.Duration // backend load-push period; <= 0 disables
	load      func() core.LoadSignal
}

// setup builds the node's engine and listener plumbing.
func (n *node) setup(p *core.Platform, logger *log.Logger, opts Options) {
	if logger == nil {
		logger = log.Default()
	}
	n.eng = NewEngine(p, opts)
	n.logger = logger
	n.cs = newConnServer(logger, n.serveConn)
}

// Engine exposes the node's frame-serving engine.
func (n *node) Engine() *Engine { return n.eng }

// Listen binds addr and starts accepting connections, returning the bound
// address (useful with ":0").
func (n *node) Listen(addr string) (string, error) { return n.cs.listen(addr) }

// Close stops accepting, closes live connections, and waits for handlers.
// Idempotent.
func (n *node) Close() error {
	err := n.cs.close()
	n.eng.Close()
	return err
}

// endSession ends a session this node's connection owned.
func (n *node) endSession(id uint64) {
	if err := n.eng.platform.EndSession(id); err != nil {
		n.logger.Printf("%s: ending session %d: %v", n.name, id, err)
	}
}

// serveConn is the per-connection dispatch of both roles. A connection is
// in one of two modes, and nothing else differs:
//
//   - Backend (a router dialled a shard): the connection must open with a
//     hello. It multiplexes many sessions, each envelope resolving its
//     session by ID; the shard pushes its load signal on it, and the
//     router may migrate or end sessions over it.
//   - Client (standalone): the connection is bound at accept to one new
//     session. The hello is optional and the first other envelope pins
//     v1. Every envelope is treated as the bound session's, whatever ID it
//     carries, and a control envelope is always a ping.
//
// Either way the connection owns the sessions it created and ends them
// when it closes. Frame requests render on the scheduler and reply
// asynchronously, matched to their request by seq (see frameReplies for
// who writes the reply).
func (n *node) serveConn(conn net.Conn) {
	fr := wire.NewFrameReader(conn)
	w := &lockedWriter{fw: wire.NewFrameWriter(conn), conn: conn}
	var in wire.Envelope
	replyErr := func(text string) {
		_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: in.Seq, Session: in.Session,
			Payload: []byte(text)})
	}

	// owned tracks sessions created via this connection so a router crash
	// or a departing client ends them instead of stranding them in the
	// registry.
	owned := make(map[uint64]struct{})
	defer func() {
		for id := range owned {
			n.endSession(id)
		}
	}()

	proto := wire.ProtoV1
	var bound *core.Session // client mode: the connection's one session
	if n.backend {
		// Handshake: the dialer (a router) speaks first; we answer with our
		// identity and protocol version. A deadline bounds how long a
		// silent dialer can hold the handler.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		err := fr.ReadEnvelopeReuse(&in)
		if err != nil || in.Type != wire.MsgHello {
			n.logger.Printf("%s: backend handshake failed from %v: %v", n.name, conn.RemoteAddr(), err)
			return
		}
		_ = conn.SetReadDeadline(time.Time{})
		if proto, err = answerHello(w, &in, n.id, n.name); err != nil {
			n.logger.Printf("%s: handshake with %v: %v", n.name, conn.RemoteAddr(), err)
			return
		}
		// Push the load signal for the life of the connection so the
		// router's view of this shard's pressure stays fresh.
		stopLoad := make(chan struct{})
		defer close(stopLoad)
		if n.loadEvery > 0 {
			go n.loadLoop(w, stopLoad)
		}
	} else {
		bound = n.eng.platform.NewSession()
		owned[bound.ID] = struct{}{}
	}

	// Outstanding frames are answered (or fail on the closed conn) before
	// the deferred session teardown runs.
	replies := newFrameReplies(w, n.eng, bound != nil)
	defer replies.close()

	// Streaming state: one stream per subscribed session, all multiplexed
	// onto this connection's drop-oldest outbox. Torn down (and waited for)
	// before the owned sessions end. The conn closes first so an outbox
	// writer blocked on a stalled peer fails out instead of wedging the
	// teardown.
	var streams streamSet
	var ob *outbox
	defer func() {
		_ = conn.Close()
		streams.stopAll()
		if ob != nil {
			ob.close()
		}
	}()

	// A client connection may open with a hello; a backend's was consumed
	// above, so a second one there is an unsupported message.
	helloOpen := bound != nil
	// Resolved before the read loop: the lazily-built outbox must not pay
	// a registry lookup inside the per-envelope path.
	droppedCtr := n.eng.sched.Metrics().Counter("server.stream.dropped")
	for {
		if err := fr.ReadEnvelopeReuse(&in); err != nil {
			return // peer gone: deferred cleanup ends owned sessions
		}
		if bound != nil {
			in.Session = bound.ID // like the router: clients cannot choose
			if in.Type == wire.MsgHello {
				if !helloOpen {
					replyErr("server: hello after traffic")
					continue
				}
				helloOpen = false
				var err error
				if proto, err = answerHello(w, &in, bound.ID, n.name); err != nil {
					return // mismatch fails closed; the typed error went back
				}
				continue
			}
			helloOpen = false
			if in.Type == wire.MsgControl {
				// Control payloads are router-to-shard vocabulary
				// (CtrlEndSession); a client's control is a ping.
				in.Payload = nil
			}
		}
		if in.Session == 0 {
			replyErr("server: shard envelope without session")
			continue
		}
		// Envelope types that need no session are handled before the
		// registry is touched: an end-session for a session that never
		// sent traffic (client connected and left) must not build one
		// just to tear it down, and junk types must not leak registrations.
		if in.Type == wire.MsgControl && len(in.Payload) > 0 && in.Payload[0] == CtrlEndSession {
			if _, live := owned[in.Session]; live {
				delete(owned, in.Session)
				streams.remove(in.Session) // the stream must not outlive its session
				n.endSession(in.Session)
			}
			continue // one-way: the client is already gone
		}
		if in.Type == wire.MsgMigrateSession && bound == nil {
			// Live migration (protocol v3). Export: freeze the session's
			// stream, purge its queued pushes, snapshot, detach, reply.
			// Import: rebuild the session from the snapshot and own it.
			migFail := func(msg string) {
				var buf wire.Buffer
				buf.Byte(MigFailed)
				buf.Append([]byte(msg))
				_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
					Session: in.Session, Payload: buf.Bytes()})
			}
			if proto < wire.ProtoV3 {
				migFail((&wire.VersionError{Local: proto, Remote: proto, Need: wire.ProtoV3}).Error())
				continue
			}
			if len(in.Payload) == 0 { // export request
				_, live := owned[in.Session]
				sess, ok := n.eng.platform.Session(in.Session)
				if !live || !ok {
					// The session never reached this shard (client connected
					// but sent nothing yet) or already ended: nothing to
					// move. An empty export tells the router to re-home the
					// session with fresh state instead of failing the drain.
					_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
						Session: in.Session, Payload: []byte{MigExported}})
					continue
				}
				// Stop the stream first: stopStream waits out the in-flight
				// frame, so its push is enqueued (and then purged) before
				// the snapshot is taken. Pipelined MsgFrameRequests still
				// queued on the scheduler are NOT waited for: they hold no
				// sensor state (that was applied inline, above, in arrival
				// order), and EncodeSnapshotInto serialises with a running
				// frame via the session lock — a queued one just replies
				// after the snapshot, its frames/overruns counter bump
				// staying on this side. Waiting would couple the export to
				// every other session's queue depth for a cosmetic counter.
				streams.remove(in.Session)
				if ob != nil {
					ob.purge(in.Session)
				}
				var buf wire.Buffer
				buf.Byte(MigExported)
				sess.EncodeSnapshotInto(&buf)
				delete(owned, in.Session)
				n.eng.platform.DetachSession(in.Session)
				_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
					Session: in.Session, Payload: buf.Bytes()})
				continue
			}
			// Import request: the payload is the snapshot.
			if _, err := n.eng.platform.RestoreSession(in.Payload); err != nil {
				migFail(err.Error())
				continue
			}
			owned[in.Session] = struct{}{}
			_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
				Session: in.Session, Payload: []byte{MigImported}})
			continue
		}
		if in.Type == wire.MsgAck {
			// Client frame-ack forwarded by the router (protocol v4):
			// fire-and-forget, and resolved before SessionOrNew — an ack
			// racing its stream's teardown must not materialise a session.
			if a, err := wire.DecodeFrameAck(in.Payload); err == nil {
				streams.ack(in.Session, a)
			}
			continue
		}
		switch in.Type {
		case wire.MsgSensorEvent, wire.MsgFrameRequest, wire.MsgControl:
		case wire.MsgSubscribe, wire.MsgUnsubscribe:
			if proto < wire.ProtoV2 {
				replyErr((&wire.VersionError{Local: proto, Remote: proto, Need: wire.ProtoV2}).Error())
				continue
			}
		default:
			replyErr(fmt.Sprintf("server: unsupported message %v", in.Type))
			continue
		}
		if in.Type == wire.MsgUnsubscribe {
			// Resolved before SessionOrNew: unsubscribing a session that
			// never subscribed must not materialise one.
			streams.remove(in.Session)
			_ = w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session})
			continue
		}
		sess := bound
		if sess == nil {
			sess = n.eng.platform.SessionOrNew(in.Session)
			owned[in.Session] = struct{}{}
		}
		switch in.Type {
		case wire.MsgSensorEvent:
			if err := applySensor(sess, in.Payload); err != nil {
				replyErr(err.Error())
			}
		case wire.MsgFrameRequest:
			n.submitFrame(replies, sess, in.Seq)
		case wire.MsgSubscribe:
			sub, err := wire.DecodeSubscribe(in.Payload)
			if err != nil {
				replyErr(err.Error())
				continue
			}
			if ob == nil {
				// A backend connection multiplexes many sessions' streams:
				// the floor keeps one session's tiny budget from bounding
				// everyone; per-subscription budgets only ever raise it.
				capacity := pushBudget(sub)
				if n.backend && capacity < backendPushQueue {
					capacity = backendPushQueue
				}
				ob = newOutbox(w, capacity, droppedCtr, streams.forceKeyframe)
			}
			if w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session}) != nil {
				return
			}
			// Delta pushes only when the subscriber asked and this
			// connection speaks v4: behind a router the flag rides the
			// forwarded Subscribe payload, and the router-shard link must
			// also speak v4 for MsgFrameDelta envelopes to be legal on it.
			delta := proto >= wire.ProtoV4 && sub.Flags&wire.SubFlagDelta != 0
			streams.add(in.Session, n.eng.startStream(sess, sub, ob, delta))
		case wire.MsgControl:
			_ = w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session})
		}
	}
}

// submitFrame schedules one frame and replies from the worker callback —
// the connection read loop keeps draining other sessions' envelopes while
// the frame renders. The reply is encoded inside the visit callback, under
// the session lock: a client pipelining a second frame request for the
// same session re-enters Session.Frame on another worker, and without the
// lock that would overwrite the scratch buffers the encoder is reading.
// visit and done run sequentially on one worker goroutine, so the captured
// reply/buffer need no further synchronisation.
func (n *node) submitFrame(r *frameReplies, sess *core.Session, seq uint64) {
	id := sess.ID
	r.reserve()
	var reply wire.Envelope
	var pooled *wire.Buffer
	err := n.eng.sched.SubmitVisit(sess, func(f *core.Frame) {
		pooled = n.eng.encodeFrame(&reply, wire.MsgAnnotations, id, seq, f, false)
	}, func(err error) {
		if err != nil {
			r.send(&wire.Envelope{Type: wire.MsgError, Seq: seq, Session: id, Payload: []byte(err.Error())}, nil)
			return
		}
		r.send(&reply, pooled)
	})
	if err != nil {
		r.send(&wire.Envelope{Type: wire.MsgError, Seq: seq, Session: id, Payload: []byte(err.Error())}, nil)
	}
}

// frameReplies delivers one connection's frame replies. On a backend
// connection the worker that rendered a frame writes the reply itself: the
// peer is a router, which always drains its link. A client is untrusted,
// and a worker blocked writing to a client that stopped reading would
// stall every session's frames; so a client connection's replies queue to
// a writer goroutine of its own, and at most clientFramesInFlight of its
// frame requests are unanswered at once.
type frameReplies struct {
	w        *lockedWriter
	eng      *Engine
	inflight sync.WaitGroup    // frames submitted but not yet answered
	slots    chan struct{}     // client mode: one token per unanswered request
	queue    chan pendingReply // client mode: replies awaiting the writer
	done     chan struct{}     // client mode: closed when the writer exits
}

// pendingReply is a rendered reply and the pooled buffer backing it (nil
// for errors).
type pendingReply struct {
	env    wire.Envelope
	pooled *wire.Buffer
}

func newFrameReplies(w *lockedWriter, eng *Engine, client bool) *frameReplies {
	r := &frameReplies{w: w, eng: eng}
	if client {
		r.slots = make(chan struct{}, clientFramesInFlight)
		r.queue = make(chan pendingReply, clientFramesInFlight)
		r.done = make(chan struct{})
		go r.writeLoop()
	}
	return r
}

// reserve accounts for one frame request before it is submitted. On a
// client connection it blocks while clientFramesInFlight are unanswered.
func (r *frameReplies) reserve() {
	r.inflight.Add(1)
	if r.slots != nil {
		r.slots <- struct{}{}
	}
}

// send answers one reserved frame request. On a client connection the
// queue send never blocks: it holds at most one reply per reserved slot.
func (r *frameReplies) send(env *wire.Envelope, pooled *wire.Buffer) {
	defer r.inflight.Done()
	if r.queue != nil {
		r.queue <- pendingReply{env: *env, pooled: pooled}
		return
	}
	r.deliver(env, pooled)
}

func (r *frameReplies) deliver(env *wire.Envelope, pooled *wire.Buffer) {
	_ = r.w.write(env)
	if pooled != nil {
		r.eng.release(pooled)
	}
}

// writeLoop writes a client connection's queued replies. It keeps draining
// after a failed write so the read loop's reserve and the teardown never
// wait on a dead peer.
func (r *frameReplies) writeLoop() {
	defer close(r.done)
	for p := range r.queue {
		r.deliver(&p.env, p.pooled)
		<-r.slots
	}
}

// close waits until every reserved frame is answered, then stops the
// writer. The connection must already be closed, so that a writer blocked
// on a stalled peer fails out.
func (r *frameReplies) close() {
	r.inflight.Wait()
	if r.queue != nil {
		close(r.queue)
		<-r.done
	}
}

// loadLoop pushes the shard's LoadSignal on the connection until it closes.
func (n *node) loadLoop(w *lockedWriter, stop <-chan struct{}) {
	ticker := time.NewTicker(n.loadEvery)
	defer ticker.Stop()
	var buf wire.Buffer
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			buf.Reset()
			core.EncodeLoadSignalInto(&buf, n.load())
			if err := w.write(&wire.Envelope{Type: wire.MsgLoad, Payload: buf.Bytes()}); err != nil {
				return
			}
		}
	}
}
