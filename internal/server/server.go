// Package server exposes the platform over TCP using the wire protocol:
// clients stream sensor envelopes and request or subscribe to frames.
// Three roles share it. The Shard owns a partition of the session ID space
// behind a Router, resolving each envelope's session by ID. The standalone
// Server is a shard whose connections are each bound to one session: the
// same dispatch serves it (see node.serveConn). The Router owns client
// connections and forwards to shards placed by rendezvous hashing.
// cmd/arbd-server selects the role; cmd/arbd-loadgen drives a standalone
// server or a router identically.
package server

import (
	"log"

	"arbd/internal/core"
)

// Sensor payload kinds inside MsgSensorEvent envelopes. Enums start at 1.
const (
	SensorGPS uint8 = iota + 1
	SensorIMU
	SensorGaze
)

// Server serves the platform over TCP, one session per client connection.
// Sensor envelopes are applied inline on the connection goroutine (cheap
// state updates); frame requests are executed by the engine's shared
// FrameScheduler and reply asynchronously, so render work is bounded by
// the worker pool, not by the connection count.
type Server struct{ node }

// Options tunes the server beyond its defaults.
type Options struct {
	// Scheduler configures the frame worker pool; zero values take the
	// SchedulerConfig defaults, except Deadline where the server applies
	// its own 250 ms default — pass a negative Deadline to disable
	// shedding entirely (render late frames rather than drop them).
	Scheduler SchedulerConfig
}

// New returns a server for the platform (not yet listening) with default
// options.
func New(p *core.Platform, logger *log.Logger) *Server {
	return NewWithOptions(p, logger, Options{})
}

// NewWithOptions returns a server with explicit scheduler tuning.
func NewWithOptions(p *core.Platform, logger *log.Logger, opts Options) *Server {
	s := &Server{node{role: "standalone", name: "server", load: p.LoadSignal}}
	s.setup(p, logger, opts)
	return s
}

// Scheduler exposes the server's frame scheduler (for stats).
func (s *Server) Scheduler() *FrameScheduler { return s.eng.sched }
