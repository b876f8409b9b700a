package totem

import (
	"fmt"

	"repro/internal/transport"
)

// Sharded transport support: a node can run a pool of R independent rings
// (distinct fabric ports, distinct circulating tokens) so that independent
// process groups are not serialized behind one token rotation. Each ring in
// a pool is a completely ordinary Ring — the pool is purely a construction
// and lifecycle convenience plus the port-layout convention that makes
// every node derive the same shard→port mapping.

// ShardPort is the canonical port layout of a ring pool: shard i listens on
// base+i on every node. It delegates to the transport layer's contract so
// that every backend and every fault filter agree on the one layout.
func ShardPort(base uint16, shard int) uint16 {
	return transport.ShardPort(base, shard)
}

// NewRingPool creates (but does not start) shards rings on consecutive
// ports starting at cfg.Port, all sharing the remaining configuration. With
// shards == 1 the pool is exactly one NewRing at cfg.Port — the single-ring
// wire behaviour is unchanged. On any error the already-opened rings are
// stopped so no transport ports leak.
func NewRingPool(tp transport.Transport, cfg Config, shards int) ([]*Ring, error) {
	if shards < 1 {
		shards = 1
	}
	rings := make([]*Ring, 0, shards)
	for i := 0; i < shards; i++ {
		c := cfg
		c.Port = ShardPort(cfg.Port, i)
		r, err := NewRing(tp, c)
		if err != nil {
			for _, prev := range rings {
				prev.Stop()
			}
			return nil, fmt.Errorf("totem: shard %d: %w", i, err)
		}
		rings = append(rings, r)
	}
	return rings, nil
}

// StopPool stops every ring in the pool (idempotent, like Ring.Stop).
func StopPool(rings []*Ring) {
	for _, r := range rings {
		r.Stop()
	}
}

// AggregateStats sums protocol counters across a pool — the per-ring
// snapshots remain available from each Ring individually.
func AggregateStats(rings []*Ring) Stats {
	var total Stats
	for _, r := range rings {
		s := r.Stats()
		total.Delivered += s.Delivered
		total.Sent += s.Sent
		total.Retransmit += s.Retransmit
		total.Formations += s.Formations
		total.Batches += s.Batches
		total.Withdrawn += s.Withdrawn
	}
	return total
}
