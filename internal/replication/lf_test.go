package replication

import (
	"testing"
	"time"

	"repro/internal/cdr"
)

func lfDef(id uint64) GroupDef {
	return GroupDef{ID: id, Name: "lf", Style: LeaderFollower, ReadOnlyOps: []string{"get"}}
}

// lfTotal sums a counter across every engine in the cluster.
func (c *cluster) lfTotal(pick func(Stats) uint64) uint64 {
	var total uint64
	for _, e := range c.engines {
		total += pick(e.Stats())
	}
	return total
}

func TestLeaderFollowerConsistency(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1}, WithLFFastPath("get"))

	var want int64
	for i := 1; i <= 10; i++ {
		out, err := proxy.Invoke("add", cdr.Long(int32(i)))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		want += int64(i)
		if out[0].AsLongLong() != want {
			t.Fatalf("add %d returned %d, want %d", i, out[0].AsLongLong(), want)
		}
	}
	// The order stream must converge every follower on the leader's state,
	// with each operation executed exactly once.
	waitFor(t, 5*time.Second, "follower convergence", func() bool {
		for _, node := range []string{"n1", "n2", "n3"} {
			bal, ops := c.servants[node][1].snapshot()
			if bal != want || ops != 10 {
				return false
			}
		}
		return true
	})
}

func TestLeaderFollowerLeasedLocalReads(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1}, WithLFFastPath("get"))

	if _, err := proxy.Invoke("add", cdr.Long(42)); err != nil {
		t.Fatal(err)
	}
	// Once leases circulate, reads must be served from replica-local state
	// on the direct lane (no totem entry). Session tokens guarantee the
	// read observes our own write.
	waitFor(t, 5*time.Second, "leased local read", func() bool {
		out, err := proxy.Invoke("get")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if out[0].AsLongLong() != 42 {
			t.Fatalf("read %d, want 42 (session token violated)", out[0].AsLongLong())
		}
		return c.lfTotal(func(s Stats) uint64 { return s.LfReads }) > 0
	})

	// With the lease machinery warm, a burst of reads should be served on
	// the fast path without growing the ordered execution counters.
	before := c.lfTotal(func(s Stats) uint64 { return s.LfReads })
	for i := 0; i < 20; i++ {
		if _, err := proxy.Invoke("get"); err != nil {
			t.Fatalf("warm get: %v", err)
		}
	}
	after := c.lfTotal(func(s Stats) uint64 { return s.LfReads })
	if after-before < 15 {
		t.Fatalf("only %d of 20 warm reads used the fast path", after-before)
	}
}

func TestLeaderFollowerLeaderCrashNoAckedLoss(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1}, WithLFFastPath("get"))

	var want int64
	for i := 1; i <= 5; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatalf("pre-crash add %d: %v", i, err)
		}
		want += int64(i)
	}

	// Kill the leader mid-stream: everything acked so far must survive at
	// the followers, and the senior follower must take over.
	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()

	for i := 6; i <= 10; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatalf("post-crash add %d: %v", i, err)
		}
		want += int64(i)
	}
	waitFor(t, 5*time.Second, "post-failover convergence", func() bool {
		for _, node := range []string{"n2", "n3"} {
			bal, ops := c.servants[node][1].snapshot()
			if bal != want || ops != 10 {
				return false
			}
		}
		return true
	})
	if got := c.lfTotal(func(s Stats) uint64 { return s.LfTakeovers }); got == 0 {
		t.Fatal("no leadership takeover recorded")
	}
}

// lfReadProbe pushes one direct-lane read submit at a specific replica
// (bypassing the proxy's target rotation) and reports whether it was
// served locally or redirected, by watching the node's counters.
func lfReadProbe(t *testing.T, c *cluster, node string, gid uint64, seq uint64) (served, redirected bool) {
	t.Helper()
	e := c.engines[node]
	sub := &msgLfSubmit{
		GroupID:   gid,
		Key:       opKey{ClientID: "probe:" + node, OpSeq: seq},
		Operation: "get",
		ReadOnly:  true,
		From:      node,
	}
	payload, err := encodeWire(sub)
	if err != nil {
		t.Fatal(err)
	}
	r0 := e.Stats()
	e.onDirect(node, invGroupName(gid), payload)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := e.Stats()
		if s.LfReads > r0.LfReads {
			return true, false
		}
		if s.LfRedirects > r0.LfRedirects {
			return false, true
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("read probe at %s: neither served nor redirected", node)
	return false, false
}

// Lease corner case: the lease expires with no renewal in sight (leader
// process wedged — ring alive, engine stopped). In-flight reads drain and
// later reads must refuse the fast path rather than serve stale state.
func TestLeaseExpiryStopsLocalReads(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1}, WithLFFastPath("get"))
	if _, err := proxy.Invoke("add", cdr.Long(7)); err != nil {
		t.Fatal(err)
	}
	// Wait until n3 holds a live lease and serves a local read.
	waitFor(t, 5*time.Second, "lease live at n3", func() bool {
		served, _ := lfReadProbe(t, c, "n3", 1, uint64(time.Now().UnixNano()))
		return served
	})

	// Wedge the leader's engine: the ring keeps heartbeating (no view
	// change, no revocation) but lease renewals stop.
	c.engines["n1"].Stop()

	time.Sleep(leaseDuration + leaseGuard + 50*time.Millisecond)
	served, redirected := lfReadProbe(t, c, "n3", 1, uint64(time.Now().UnixNano()))
	if served || !redirected {
		t.Fatal("expired lease still served a local read")
	}
}

// Lease corner case: the guard band. A lease within leaseGuard of its
// local expiry must refuse reads — that margin is what absorbs bounded
// clock-rate skew and delivery lag across nodes.
func TestLeaseGuardBandBoundary(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	// Stop renewals up front so manually planted leases stay put.
	c.engines["n1"].Stop()
	time.Sleep(20 * time.Millisecond)

	r := c.engines["n3"].replicaFor(1)
	plant := func(expIn time.Duration) {
		r.mu.Lock()
		r.lfLeaseHold = r.members[0]
		r.lfLeaseEpoch = r.lfFence
		r.lfLeaseExp = time.Now().Add(expIn)
		r.mu.Unlock()
	}

	// Comfortably inside the lease: served.
	plant(leaseGuard + 500*time.Millisecond)
	if served, _ := lfReadProbe(t, c, "n3", 1, 1); !served {
		t.Fatal("live lease refused a local read")
	}
	// Inside the guard band (still before nominal expiry): refused.
	plant(leaseGuard / 2)
	if served, _ := lfReadProbe(t, c, "n3", 1, 2); served {
		t.Fatal("read served inside the guard band")
	}
}

// Lease corner case: revocation racing a view change. A follower cut off
// by a partition must drop its lease at its own view install — before
// natural expiry — because the primary side may elect new leadership and
// resume writes once the fence lapses.
func TestLeaseRevokedOnViewChange(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1}, WithLFFastPath("get"))
	if _, err := proxy.Invoke("add", cdr.Long(9)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "lease live at n3", func() bool {
		served, _ := lfReadProbe(t, c, "n3", 1, uint64(time.Now().UnixNano()))
		return served
	})

	c.fabric.Partition([]string{"n1", "n2", "n4"}, []string{"n3"})
	r := c.engines["n3"].replicaFor(1)
	waitFor(t, 5*time.Second, "lease revoked at n3", func() bool {
		r.mu.Lock()
		revoked := r.lfLeaseHold == ""
		r.mu.Unlock()
		return revoked
	})
	if served, _ := lfReadProbe(t, c, "n3", 1, uint64(time.Now().UnixNano())); served {
		t.Fatal("partitioned follower served a read on a revoked lease")
	}

	// Heal: the post-heal nudge must bring n3 back to operational without
	// any follow-on client traffic.
	c.fabric.Heal()
	waitFor(t, 5*time.Second, "n3 rejoins after heal", func() bool {
		st, ok := c.engines["n3"].GroupStatus(1)
		return ok && !st.Secondary && !st.Syncing
	})
}

// Lease corner case: a follower promoted to leader must serve reads
// (under a fresh self-granted lease) and writes immediately after the
// write fence, with no acked state lost.
func TestReadAfterPromotion(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1}, WithLFFastPath("get"))
	if _, err := proxy.Invoke("add", cdr.Long(11)); err != nil {
		t.Fatal(err)
	}

	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()

	// Reads must keep answering across the failover (fallback allowed),
	// always reflecting the acked write.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		out, err := proxy.Invoke("get")
		if err != nil {
			t.Fatalf("read during failover: %v", err)
		}
		if out[0].AsLongLong() != 11 {
			t.Fatalf("read %d during failover, want 11", out[0].AsLongLong())
		}
		// Done once the new leader's own lease serves a local read.
		if served, _ := lfReadProbe(t, c, "n2", 1, uint64(time.Now().UnixNano())); served {
			return
		}
	}
	t.Fatal("promoted leader never served a leased local read")
}

// Satellite: the post-heal catch-up nudge. A partition heal with no
// follow-on traffic must converge the former secondary promptly (it used
// to wait for timer-driven rescue, or stall outright when the returning
// member was a fresh incarnation).
func TestPostHealCatchUpNudge(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 3, Name: "cold", Style: ColdPassive}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 3})

	c.fabric.Partition([]string{"n1", "n2", "n4"}, []string{"n3"})
	waitFor(t, 5*time.Second, "n3 secondary", func() bool {
		st, ok := c.engines["n3"].GroupStatus(3)
		return ok && st.Secondary
	})
	var want int64
	for i := 1; i <= 5; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatalf("partitioned add %d: %v", i, err)
		}
		want += int64(i)
	}

	// Heal and then send NOTHING: catch-up must be self-triggering.
	c.fabric.Heal()
	waitFor(t, 5*time.Second, "n3 converges with no follow-on traffic", func() bool {
		bal, _ := c.servants["n3"][3].snapshot()
		return bal == want
	})
	if got := c.lfTotal(func(s Stats) uint64 { return s.HealNudges }); got == 0 {
		t.Fatal("no heal nudge recorded")
	}
}

// Satellite: the fresh-incarnation stall. A secondary whose partition
// peers died and were replaced by a brand-new member (not in its
// pre-split view) used to stay secondary forever — nothing marked it
// syncing and the sync-retry loop only covers syncing replicas. The
// nudge makes it request state, and the stateReq rescue elects its
// (senior, state-bearing) replica as authoritative.
func TestHealWithFreshIncarnationRecovers(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 4, Name: "cold", Style: ColdPassive}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 4})
	if _, err := proxy.Invoke("add", cdr.Long(21)); err != nil {
		t.Fatal(err)
	}
	// Cold backups only log; state materializes at promotion. Wait until
	// the primary executed and n3 has the invocation in its log.
	waitFor(t, 5*time.Second, "pre-split convergence", func() bool {
		bal, _ := c.servants["n1"][4].snapshot()
		n, _ := c.engines["n3"].LogLen(4)
		return bal == 21 && n > 0
	})

	// Isolate n3, then kill its former peers for good.
	c.fabric.Partition([]string{"n1", "n2", "n4"}, []string{"n3"})
	waitFor(t, 5*time.Second, "n3 secondary", func() bool {
		st, ok := c.engines["n3"].GroupStatus(4)
		return ok && st.Secondary
	})
	for _, node := range []string{"n1", "n2"} {
		c.fabric.CrashNode(node)
		c.engines[node].Stop()
		c.rings[node].Stop()
	}

	// Recruit a fresh incarnation on n4 (late join: syncing) and heal.
	a := &account{}
	c.servants["n4"][4] = a
	if err := c.engines["n4"].HostReplica(def, a, false); err != nil {
		t.Fatal(err)
	}
	c.fabric.Heal()

	waitFor(t, 10*time.Second, "n3+n4 recover with n3's state", func() bool {
		st3, ok3 := c.engines["n3"].GroupStatus(4)
		st4, ok4 := c.engines["n4"].GroupStatus(4)
		if !ok3 || !ok4 || st3.Secondary || st3.Syncing || st4.Secondary || st4.Syncing {
			return false
		}
		b3, _ := c.servants["n3"][4].snapshot()
		b4, _ := a.snapshot()
		return b3 == 21 && b4 == 21
	})
}

// The write path must stay exactly-once when a direct-lane ack is lost
// and the client retries through the ordered path.
func TestLFFallbackDedup(t *testing.T) { lfFallbackDedup(t, 10) }

// TestLFDirectAckWaitsForOrder runs the fallback workload long enough to
// hit the race where the ordered copy of a write executes at the leader
// before its direct-lane copy arrives. The leader must not ack the direct
// copy from the logged reply until the write's order has come back through
// agreed delivery: otherwise the client's next write, whose low-water mark
// retires this one, can be ordered ahead of the order, and the followers
// skip the write.
func TestLFDirectAckWaitsForOrder(t *testing.T) { lfFallbackDedup(t, 200) }

func lfFallbackDedup(t *testing.T, writes int) {
	c := newCluster(t, 4)
	c.host(lfDef(1), "n1", "n2", "n3")
	// A proxy with a microscopic attempt budget falls back constantly;
	// every operation must still apply exactly once.
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1},
		WithLFFastPath("get"), WithLFAttemptTimeout(time.Microsecond))
	var want int64
	for i := 1; i <= writes; i++ {
		out, err := proxy.Invoke("add", cdr.Long(int32(i)))
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		want += int64(i)
		if out[0].AsLongLong() != want {
			t.Fatalf("add %d returned %d, want %d (duplicate execution?)", i, out[0].AsLongLong(), want)
		}
	}
	waitFor(t, 5*time.Second, "convergence", func() bool {
		for _, node := range []string{"n1", "n2", "n3"} {
			bal, ops := c.servants[node][1].snapshot()
			if bal != want || ops != int64(writes) {
				return false
			}
		}
		return true
	})
}
