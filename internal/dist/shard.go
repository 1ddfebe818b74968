package dist

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements sharded views. A graph.Sharding partitions the
// vertex space into contiguous ranges; the engine keeps its one flat data
// plane (batch.go) on every view, and the partition only shapes what
// callers observe: the view's shard count and the per-shard round
// telemetry of probed runs (probe.go). Because shard k's vertices own
// the contiguous slot range of the flat columns, a shard is a segment of
// the flat layout, never a copy of it.

// Sharded returns a view of the network over the given vertex partition.
// The view shares the graph and identifier assignment but gets a FRESH
// session, so every point of a shard sweep - including k=1, which a
// zero-value or single-shard Sharding means - starts from cold caches.
// Runs on the view produce bit-for-bit the results of the flat network;
// probed runs on a view of k >= 2 shards step each shard's segment of
// the live list as one timed chunk and report per-shard round stats.
func (net *Network) Sharded(sh graph.Sharding) (*Network, error) {
	if k := sh.NumShards(); k > 0 && sh.N() != net.g.N() {
		return nil, fmt.Errorf("dist: sharding partitions %d vertices, graph has %d", sh.N(), net.g.N())
	}
	c := *net
	c.sharding = sh
	c.sess = &session{}
	return &c, nil
}

// NewNetworkSharded is NewNetwork followed by Sharded.
func NewNetworkSharded(g *graph.Graph, sh graph.Sharding) (*Network, error) {
	return NewNetwork(g).Sharded(sh)
}

// Sharding returns the vertex partition this view was created with (the
// zero value on flat networks).
func (net *Network) Sharding() graph.Sharding { return net.sharding }

// Shards returns the effective shard count of this view: the
// partition's count, or 1 on flat (and single-shard) views.
func (net *Network) Shards() int {
	if k := net.sharding.NumShards(); k > 1 {
		return k
	}
	return 1
}
