package totem

import (
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// TestShardPortLayout pins the one port-layout rule every backend and
// every fault filter share: shard i of a pool based at port p listens on
// p+i, and totem.ShardPort is exactly the transport-layer contract (no
// second copy of the arithmetic that could drift). PR 7 moved the layout
// into the transport package; this guards against the chaos/slo drop
// filters and the ring pool ever disagreeing about which port a shard is
// on again.
func TestShardPortLayout(t *testing.T) {
	for _, base := range []uint16{1, 4000, 9000} {
		for shard := 0; shard < 8; shard++ {
			want := base + uint16(shard)
			if got := transport.ShardPort(base, shard); got != want {
				t.Fatalf("transport.ShardPort(%d, %d) = %d, want %d", base, shard, got, want)
			}
			if got := ShardPort(base, shard); got != transport.ShardPort(base, shard) {
				t.Fatalf("totem.ShardPort(%d, %d) = %d diverges from transport contract", base, shard, got)
			}
		}
	}
}

// TestRingPoolTrafficOnLayoutPorts taps every datagram a two-shard pool
// puts on the fabric and asserts all of it — formation, token, data —
// flows on exactly the two contractual ports. This is the observable a
// targeted fault filter depends on: if a pool ever bound a shard
// anywhere else, a filter written against ShardPort would silently miss
// it (the abstraction leak PR 7 closed).
func TestRingPoolTrafficOnLayoutPorts(t *testing.T) {
	const base = 4000
	fabric := netsim.NewFabric(netsim.Config{})
	nodes := []string{"a", "b"}
	for _, n := range nodes {
		fabric.AddNode(n)
	}

	var mu sync.Mutex
	seen := map[uint16]bool{}
	fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		mu.Lock()
		seen[port] = true
		mu.Unlock()
		return false
	})
	defer fabric.SetDropFilter(nil)

	// Node 0 signals each shard's message deliveries on its own channel.
	delivered := []chan struct{}{make(chan struct{}, 16), make(chan struct{}, 16)}
	pools := make([][]*Ring, len(nodes))
	for i, n := range nodes {
		p, err := NewRingPool(fabric, Config{
			Node: n, Universe: nodes, Port: base,
			HeartbeatInterval: 2 * time.Millisecond,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
		for shard, r := range p {
			var c Consumer
			if i == 0 {
				c.Deliver = signalMessages(delivered[shard])
			}
			r.Start(c)
		}
		defer StopPool(p)
	}
	waitFull := func(r *Ring) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, m := r.CurrentRing(); len(m) == len(nodes) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("ring never formed")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for shard := 0; shard < 2; shard++ {
		waitFull(pools[0][shard])
	}

	// Push a multicast through each shard so the tap sees data traffic,
	// not just formation and tokens.
	for shard, ring := range pools[0] {
		if err := ring.JoinGroup("g"); err != nil {
			t.Fatalf("shard %d join: %v", shard, err)
		}
		if err := ring.Multicast("g", []byte("x")); err != nil {
			t.Fatalf("shard %d multicast: %v", shard, err)
		}
		select {
		case <-delivered[shard]:
		case <-time.After(5 * time.Second):
			t.Fatalf("shard %d never delivered", shard)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for shard := 0; shard < 2; shard++ {
		if !seen[ShardPort(base, shard)] {
			t.Errorf("no traffic observed on shard %d's contractual port %d", shard, ShardPort(base, shard))
		}
	}
	for port := range seen {
		if port != ShardPort(base, 0) && port != ShardPort(base, 1) {
			t.Errorf("pool traffic on port %d, outside the ShardPort layout", port)
		}
	}
}
