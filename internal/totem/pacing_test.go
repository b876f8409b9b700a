package totem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
)

// withHeartbeat sets the heartbeat; every timeout derives from it.
func withHeartbeat(hb time.Duration) func(*Config) {
	return func(c *Config) { c.HeartbeatInterval = hb }
}

// formations sums Stats().Formations over the cluster.
func (c *cluster) formations() uint64 {
	var n uint64
	for _, r := range c.rings {
		n += r.Stats().Formations
	}
	return n
}

// waitDelivered waits until every node has delivered at least want
// messages and fails if that takes longer than d.
func (c *cluster) waitDelivered(d time.Duration, want int, what string) {
	c.t.Helper()
	waitFor(c.t, d, what, func() bool {
		for _, n := range c.nodes {
			if c.collect[n].deliverCount() < want {
				return false
			}
		}
		return true
	})
}

func (c *cluster) joinAll(group string) {
	c.t.Helper()
	for _, n := range c.nodes {
		if err := c.rings[n].JoinGroup(group); err != nil {
			c.t.Fatal(err)
		}
	}
}

// TestIdleRingParks counts token datagrams on an idle ring: with the token
// parked at the coordinator, the only rotation left is the keepalive, one
// per heartbeat.
func TestIdleRingParks(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 3)
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	hb := c.rings["n1"].cfg.HeartbeatInterval
	time.Sleep(10 * hb) // formation traffic settles

	var tokens atomic.Int64
	c.fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		if Classify(payload) == ClassToken {
			tokens.Add(1)
		}
		return false
	})
	start := time.Now()
	time.Sleep(100 * hb)
	c.fabric.SetDropFilter(nil)
	beats := int64(time.Since(start) / hb)

	// One rotation is one hop per member; allow a few rotations of slack
	// for the window edges.
	limit := int64(len(c.nodes)) * (beats + 5)
	if n := tokens.Load(); n > limit {
		t.Fatalf("idle ring sent %d token datagrams in %d heartbeats; want at most %d (one rotation per heartbeat)",
			n, beats, limit)
	}
}

// TestParkedRingWakesOnDemand multicasts into a parked ring from the
// coordinator (its wake resumes the token) and from a member (its nudge
// does) and requires delivery everywhere well inside a heartbeat, so the
// keepalive rotation cannot be what carried the message. The heartbeat is
// long so that a scheduling stall on a loaded host cannot eat the budget.
func TestParkedRingWakesOnDemand(t *testing.T) {
	const hb = 200 * time.Millisecond
	c := newCluster(t, netsim.Config{}, 3, withHeartbeat(hb))
	c.joinAll("g")
	c.startAll()
	c.waitStableRing(5*time.Second, c.nodes)

	rid, _ := c.rings["n1"].CurrentRing()
	member := "n2"
	if rid.Coord == member {
		member = "n1"
	}
	sent := 0
	for _, sender := range []string{rid.Coord, member} {
		for i := 0; i < 20; i++ {
			time.Sleep(2 * time.Millisecond) // the ring goes quiet and parks
			if err := c.rings[sender].Multicast("g", []byte(fmt.Sprintf("%s-%d", sender, i))); err != nil {
				t.Fatal(err)
			}
			sent++
			c.waitDelivered(hb/2, sent, fmt.Sprintf("multicast %d from %s within half a heartbeat", i, sender))
		}
	}
}

// TestParkedRingRepairsLoss drops a member's only copy of a data frame on a
// parked ring: the rotation the multicast woke must also repair the gap.
func TestParkedRingRepairsLoss(t *testing.T) {
	const hb = 100 * time.Millisecond
	c := newCluster(t, netsim.Config{}, 3, withHeartbeat(hb))
	c.joinAll("g")
	c.startAll()
	c.waitStableRing(5*time.Second, c.nodes)
	rid, _ := c.rings["n1"].CurrentRing()
	victim := "n3"
	if rid.Coord == victim {
		victim = "n2"
	}
	time.Sleep(hb / 2) // the ring goes quiet and parks

	var dropped atomic.Bool
	c.fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		return to == victim && Classify(payload) == ClassDataBatch && dropped.CompareAndSwap(false, true)
	})
	defer c.fabric.SetDropFilter(nil)
	if err := c.rings[rid.Coord].Multicast("g", []byte("lost-once")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(4*hb, 1, "the dropped frame at "+victim)
	if !dropped.Load() {
		t.Fatal("the drop filter never saw the data frame")
	}
}

// TestTokenSurvivesTwoLostHops drops the token on one hop and then the
// retransmitted token on the next hop. Each lost hop costs one retained-token
// resend delay, so both must fit inside the token timeout: the ring keeps
// its membership and carries on.
func TestTokenSurvivesTwoLostHops(t *testing.T) {
	const hb = 50 * time.Millisecond
	c := newCluster(t, netsim.Config{}, 3, withHeartbeat(hb))
	c.joinAll("g")
	c.startAll()
	c.waitStableRing(5*time.Second, c.nodes)
	time.Sleep(2 * hb) // group joins are delivered; formation is over
	forms := c.formations()

	// Drop the first token hop, remembering its round and receiver; then
	// drop that receiver's forward of the same round (an older round it
	// resends meanwhile is a duplicate downstream and passes).
	var mu sync.Mutex
	var drops int
	var firstTo string
	var round uint64
	c.fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		if Classify(payload) != ClassToken {
			return false
		}
		pkt, err := decodePacketIn(payload, false, nil)
		if err != nil {
			return false
		}
		tok := pkt.(*token)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case drops == 0:
			firstTo, round = to, tok.Round
		case drops == 1 && from == firstTo && tok.Round >= round:
		default:
			return false
		}
		drops++
		return true
	})
	defer c.fabric.SetDropFilter(nil)
	waitFor(t, 2*time.Second, "two dropped token hops", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return drops == 2
	})
	time.Sleep(tokenTimeoutBeats * hb) // past the deadline the second hop was racing

	if got := c.formations(); got != forms {
		t.Fatalf("ring re-formed after two lost token hops: formations %d -> %d", forms, got)
	}
	if err := c.rings["n2"].Multicast("g", []byte("after")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered(2*time.Second, 1, "a multicast after the lost hops")
}
