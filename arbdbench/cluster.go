package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/server"
)

// The serving topology mirrors arbd-server's defaults: world seed 1, a 3 km
// city of 5000 POIs around the default centre, default scheduler, no tuning.
const (
	worldSeed  = 1
	cityPOIs   = 5000
	cityRadius = 3000.0
	numShards  = 2
)

var cityCenter = geo.Point{Lat: 22.3364, Lon: 114.2655}

// cluster is one router in front of numShards shards over loopback TCP.
type cluster struct {
	platforms []*core.Platform
	shards    []*server.Shard
	router    *server.Router
	addr      string // the router's client-facing address
}

// startCluster builds the topology and returns it with its set-up time:
// from the first platform build until the router has connected to every
// shard and is listening.
func startCluster() (*cluster, time.Duration, error) {
	discard := log.New(io.Discard, "", 0)
	start := time.Now()
	c := &cluster{}
	members := make([]server.Member, 0, numShards)
	for i := 0; i < numShards; i++ {
		p, err := core.NewPlatform(core.Config{
			Seed: worldSeed,
			City: geo.CityConfig{Center: cityCenter, RadiusM: cityRadius, NumPOIs: cityPOIs, TallRatio: 0.2},
		})
		if err != nil {
			c.close()
			return nil, 0, err
		}
		if err := p.Start(); err != nil {
			c.close()
			return nil, 0, err
		}
		c.platforms = append(c.platforms, p)
		sh := server.NewShard(p, discard, server.ShardOptions{ID: uint64(i + 1)})
		c.shards = append(c.shards, sh)
		addr, err := sh.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, 0, err
		}
		members = append(members, server.Member{ID: uint64(i + 1), Addr: addr})
	}
	rt, err := server.NewRouter(members, discard, nil, server.RouterOptions{})
	if err != nil {
		c.close()
		return nil, 0, err
	}
	c.router = rt
	if err := rt.Connect(); err != nil {
		c.close()
		return nil, 0, err
	}
	if c.addr, err = rt.Listen("127.0.0.1:0"); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// close tears the topology down front to back; safe on a partial cluster.
func (c *cluster) close() {
	if c.router != nil {
		_ = c.router.Close()
	}
	for _, sh := range c.shards {
		_ = sh.Close()
	}
	for _, p := range c.platforms {
		_ = p.Stop()
	}
}

// closeChecked tears the cluster down and checks that every shard's pacer
// wheel stopped: server.stream.pacers reads 0 once the engine has closed.
func (c *cluster) closeChecked(chk *checks) {
	c.close()
	if pacers := c.shardValue("server.stream.pacers"); pacers != 0 {
		chk.fail("leak: server.stream.pacers=%g after shard close", pacers)
	}
}

// shardValue sums a counter or gauge over every shard's registry (the
// engine, scheduler and platform of a shard share one). It reads a snapshot,
// so a name no shard registered yet reads 0 without being created.
func (c *cluster) shardValue(name string) float64 {
	var v float64
	for _, sh := range c.shards {
		v += registryValue(sh.Engine().Platform().Metrics(), name)
	}
	return v
}

// perShard reads a counter or gauge on each shard separately.
func (c *cluster) perShard(name string) []float64 {
	out := make([]float64, len(c.shards))
	for i, sh := range c.shards {
		out[i] = registryValue(sh.Engine().Platform().Metrics(), name)
	}
	return out
}

// sessionsPerShard reads each shard's live session count.
func (c *cluster) sessionsPerShard() []int {
	out := make([]int, len(c.platforms))
	for i, p := range c.platforms {
		out[i] = p.NumSessions()
	}
	return out
}

// registryValue returns the value of a counter or gauge, or the summed value
// of every counter whose name starts with name when it ends in '.', as the
// broker's per-topic "mq.produced." family does.
func registryValue(reg *metrics.Registry, name string) float64 {
	var v float64
	for _, in := range reg.Snapshot() {
		match := in.Name == name || (strings.HasSuffix(name, ".") && strings.HasPrefix(in.Name, name))
		if !match {
			continue
		}
		switch in.Kind {
		case metrics.KindCounter:
			v += float64(in.Counter)
		case metrics.KindGauge:
			v += in.Gauge
		}
	}
	return v
}

// countingConn counts the bytes a client reads off the wire.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// dial opens one client connection to the router through a counting conn.
func dial(addr, name string, rx *atomic.Int64) (*server.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return server.NewClient(ctx, countingConn{Conn: conn, n: rx}, server.DialOptions{Name: name})
}
