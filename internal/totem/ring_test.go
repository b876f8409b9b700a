package totem

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// collector records a ring's ordered stream into inspectable slices; its
// add is the ring's Consumer.Deliver.
type collector struct {
	mu       sync.Mutex
	delivers []Deliver
	views    []ViewChange
	groups   []GroupView
}

func (c *collector) add(d Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch v := d.Event.(type) {
	case nil:
		c.delivers = append(c.delivers, d.Deliver)
	case ViewChange:
		c.views = append(c.views, v)
	case GroupView:
		c.groups = append(c.groups, v)
	}
}

func (c *collector) deliverCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.delivers)
}

func (c *collector) deliverSnapshot() []Deliver {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Deliver(nil), c.delivers...)
}

func (c *collector) viewsSnapshot() []ViewChange {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ViewChange(nil), c.views...)
}

func (c *collector) lastView() (ViewChange, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.views) == 0 {
		return ViewChange{}, false
	}
	return c.views[len(c.views)-1], true
}

// cluster is a test harness: n rings on one fabric.
type cluster struct {
	t       *testing.T
	fabric  *netsim.Fabric
	rings   map[string]*Ring
	collect map[string]*collector
	nodes   []string
}

func testConfig(node string, universe []string) Config {
	return Config{
		Node:              node,
		Universe:          universe,
		Port:              4000,
		HeartbeatInterval: 4 * time.Millisecond,
		StrictInvariants:  true,
	}
}

// newCluster builds n rings on one fabric from testConfig; each opt may
// adjust every node's Config before its ring is created.
func newCluster(t *testing.T, netCfg netsim.Config, n int, opts ...func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		fabric:  netsim.NewFabric(netCfg),
		rings:   make(map[string]*Ring),
		collect: make(map[string]*collector),
	}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, fmt.Sprintf("n%d", i+1))
	}
	for _, node := range c.nodes {
		c.fabric.AddNode(node)
	}
	for _, node := range c.nodes {
		cfg := testConfig(node, c.nodes)
		for _, opt := range opts {
			opt(&cfg)
		}
		r, err := NewRing(c.fabric, cfg)
		if err != nil {
			t.Fatalf("NewRing(%s): %v", node, err)
		}
		c.rings[node] = r
		c.collect[node] = &collector{}
	}
	t.Cleanup(func() {
		for _, r := range c.rings {
			r.Stop()
		}
	})
	return c
}

func (c *cluster) startAll() {
	for _, node := range c.nodes {
		c.start(node)
	}
}

// start starts node's ring with its collector as the consumer.
func (c *cluster) start(node string) {
	c.rings[node].Start(Consumer{Deliver: c.collect[node].add})
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// waitStableRing waits until every listed node reports the same ring with
// exactly those members.
func (c *cluster) waitStableRing(d time.Duration, nodes []string) {
	c.t.Helper()
	waitFor(c.t, d, fmt.Sprintf("stable ring %v", nodes), func() bool {
		var rid RingID
		for i, n := range nodes {
			id, members := c.rings[n].CurrentRing()
			if id.IsZero() || !slices.Equal(members, sortedCopy(nodes)) {
				return false
			}
			if i == 0 {
				rid = id
			} else if id != rid {
				return false
			}
		}
		return true
	})
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestRingFormation(t *testing.T) {
	c := newCluster(t, netsim.Config{Latency: 100 * time.Microsecond}, 3)
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	// The ring hands the view to its consumer just after publishing it to
	// CurrentRing: wait for the consumer to have it.
	for _, n := range c.nodes {
		waitFor(t, 3*time.Second, n+" consumes the 3-member view", func() bool {
			v, ok := c.collect[n].lastView()
			return ok && len(v.Members) == 3
		})
	}
}

func TestTotalOrderAcrossSenders(t *testing.T) {
	c := newCluster(t, netsim.Config{Latency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond}, 3)
	c.startAll()
	for _, n := range c.nodes {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	c.waitStableRing(3*time.Second, c.nodes)

	const perNode = 50
	for _, n := range c.nodes {
		n := n
		go func() {
			for i := 0; i < perNode; i++ {
				c.rings[n].Multicast("g", []byte(fmt.Sprintf("%s-%d", n, i)))
			}
		}()
	}
	total := perNode * len(c.nodes)
	waitFor(t, 5*time.Second, "all deliveries", func() bool {
		for _, n := range c.nodes {
			if c.collect[n].deliverCount() < total {
				return false
			}
		}
		return true
	})

	// Every node must deliver the identical sequence.
	ref := c.collect[c.nodes[0]].deliverSnapshot()[:total]
	for _, n := range c.nodes[1:] {
		got := c.collect[n].deliverSnapshot()[:total]
		for i := range ref {
			if got[i].MsgID != ref[i].MsgID || string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s diverges at %d: %v vs %v", n, i, got[i], ref[i])
			}
		}
	}

	// MsgIDs must be strictly increasing at each node.
	for _, n := range c.nodes {
		ds := c.collect[n].deliverSnapshot()
		for i := 1; i < len(ds); i++ {
			if ds[i].MsgID <= ds[i-1].MsgID {
				t.Fatalf("%s: MsgID not increasing at %d: %d then %d", n, i, ds[i-1].MsgID, ds[i].MsgID)
			}
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 1)
	c.startAll()
	c.rings["n1"].JoinGroup("solo")
	c.waitStableRing(3*time.Second, []string{"n1"})
	c.rings["n1"].Multicast("solo", []byte("only"))
	waitFor(t, 3*time.Second, "self delivery", func() bool {
		return c.collect["n1"].deliverCount() >= 1
	})
	d := c.collect["n1"].deliverSnapshot()[0]
	if d.Sender != "n1" || string(d.Payload) != "only" || d.Group != "solo" {
		t.Fatalf("got %+v", d)
	}
}

func TestSubscriptionFiltering(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 2)
	c.startAll()
	c.rings["n1"].JoinGroup("a")
	// n2 joins nothing.
	c.waitStableRing(3*time.Second, c.nodes)
	c.rings["n2"].Multicast("a", []byte("x"))
	waitFor(t, 3*time.Second, "n1 delivery", func() bool {
		return c.collect["n1"].deliverCount() >= 1
	})
	time.Sleep(20 * time.Millisecond)
	if got := c.collect["n2"].deliverCount(); got != 0 {
		t.Errorf("unsubscribed node delivered %d messages", got)
	}
}

func TestGroupViewsConsistent(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 3)
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	c.rings["n1"].JoinGroup("g")
	c.rings["n2"].JoinGroup("g")
	waitFor(t, 3*time.Second, "group views", func() bool {
		for _, n := range c.nodes {
			if !slices.Equal(c.rings[n].GroupMembers("g"), []string{"n1", "n2"}) {
				return false
			}
		}
		return true
	})
	c.rings["n2"].LeaveGroup("g")
	waitFor(t, 3*time.Second, "leave view", func() bool {
		for _, n := range c.nodes {
			if !slices.Equal(c.rings[n].GroupMembers("g"), []string{"n1"}) {
				return false
			}
		}
		return true
	})
}

func TestCrashReformsRing(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 3)
	c.startAll()
	for _, n := range c.nodes {
		c.rings[n].JoinGroup("g")
	}
	c.waitStableRing(3*time.Second, c.nodes)

	c.fabric.CrashNode("n3")
	c.rings["n3"].Stop()
	c.waitStableRing(3*time.Second, []string{"n1", "n2"})

	// The survivors keep ordering messages.
	before := c.collect["n1"].deliverCount()
	c.rings["n2"].Multicast("g", []byte("after-crash"))
	waitFor(t, 3*time.Second, "post-crash delivery", func() bool {
		return c.collect["n1"].deliverCount() > before
	})
}

// TestLostInstallIsResent drops the first install sent to a joining
// member. The member keeps ignoring the new ring's token until it installs,
// so the coordinator resends the install with the retained token until the
// first round returns: the ring forms once, with no re-formation after the
// token timeout.
func TestLostInstallIsResent(t *testing.T) {
	const hb = 10 * time.Millisecond
	c := newCluster(t, netsim.Config{}, 3, withHeartbeat(hb))
	c.start("n1")
	c.start("n2")
	c.waitStableRing(3*time.Second, []string{"n1", "n2"})
	forms := map[string]uint64{}
	for _, n := range c.nodes {
		forms[n] = c.rings[n].Stats().Formations
	}

	var mu sync.Mutex
	dropped := false
	c.fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if dropped || to != "n3" || firstOctet(payload) != byte(pktInstall) {
			return false
		}
		dropped = true
		return true
	})
	defer c.fabric.SetDropFilter(nil)
	c.start("n3")
	c.waitStableRing(3*time.Second, c.nodes)
	mu.Lock()
	if !dropped {
		t.Fatal("the drop filter never saw an install for n3")
	}
	mu.Unlock()
	rid, _ := c.rings["n1"].CurrentRing()
	time.Sleep(3 * tokenTimeoutBeats * hb) // past any token timeout

	for _, n := range c.nodes {
		if id, members := c.rings[n].CurrentRing(); id != rid || len(members) != 3 {
			t.Fatalf("%s left ring %v for %v %v", n, rid, id, members)
		}
		if got := c.rings[n].Stats().Formations - forms[n]; got != 1 {
			t.Errorf("%s: %d formations after n3 joined, want 1", n, got)
		}
	}
}

func TestPartitionBothComponentsOperate(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 4)
	c.startAll()
	for _, n := range c.nodes {
		c.rings[n].JoinGroup("g")
	}
	c.waitStableRing(3*time.Second, c.nodes)

	c.fabric.Partition([]string{"n1", "n2"}, []string{"n3", "n4"})
	c.waitStableRing(3*time.Second, []string{"n1", "n2"})
	c.waitStableRing(3*time.Second, []string{"n3", "n4"})

	// Both components continue to multicast and deliver independently.
	n1Before := c.collect["n1"].deliverCount()
	n3Before := c.collect["n3"].deliverCount()
	c.rings["n1"].Multicast("g", []byte("left"))
	c.rings["n4"].Multicast("g", []byte("right"))
	waitFor(t, 3*time.Second, "left component delivery", func() bool {
		return c.collect["n1"].deliverCount() > n1Before && c.collect["n2"].deliverCount() > 0
	})
	waitFor(t, 3*time.Second, "right component delivery", func() bool {
		return c.collect["n3"].deliverCount() > n3Before
	})

	// Remerge: one ring with all four again.
	c.fabric.Heal()
	c.waitStableRing(5*time.Second, c.nodes)

	before := c.collect["n4"].deliverCount()
	c.rings["n1"].Multicast("g", []byte("merged"))
	waitFor(t, 3*time.Second, "post-merge delivery", func() bool {
		return c.collect["n4"].deliverCount() > before
	})
}

// TestEVSSamePrefixPerComponent checks the extended-virtual-synchrony
// guarantee: nodes that proceed together from one view to the next deliver
// the same messages in the same order.
func TestEVSSamePrefixPerComponent(t *testing.T) {
	c := newCluster(t, netsim.Config{Jitter: 200 * time.Microsecond}, 4)
	c.startAll()
	for _, n := range c.nodes {
		c.rings[n].JoinGroup("g")
	}
	c.waitStableRing(3*time.Second, c.nodes)

	// Burst of messages, then an immediate partition mid-stream.
	for i := 0; i < 30; i++ {
		c.rings["n1"].Multicast("g", []byte(fmt.Sprintf("a%d", i)))
		c.rings["n3"].Multicast("g", []byte(fmt.Sprintf("b%d", i)))
	}
	c.fabric.Partition([]string{"n1", "n2"}, []string{"n3", "n4"})
	c.waitStableRing(5*time.Second, []string{"n1", "n2"})
	c.waitStableRing(5*time.Second, []string{"n3", "n4"})
	// Give recovery deliveries a moment to flush.
	time.Sleep(100 * time.Millisecond)

	check := func(a, b string) {
		da := c.collect[a].deliverSnapshot()
		db := c.collect[b].deliverSnapshot()
		n := len(da)
		if len(db) < n {
			n = len(db)
		}
		for i := 0; i < n; i++ {
			if da[i].MsgID != db[i].MsgID || string(da[i].Payload) != string(db[i].Payload) {
				t.Fatalf("%s and %s diverge at %d: %v vs %v", a, b, i, da[i], db[i])
			}
		}
		if len(da) != len(db) {
			t.Fatalf("%s delivered %d, %s delivered %d — same-component members must match", a, len(da), b, len(db))
		}
	}
	check("n1", "n2")
	check("n3", "n4")
}

func TestLossyNetworkStillDelivers(t *testing.T) {
	c := newCluster(t, netsim.Config{Loss: 0.10, Seed: 42}, 3)
	c.startAll()
	for _, n := range c.nodes {
		c.rings[n].JoinGroup("g")
	}
	c.waitStableRing(5*time.Second, c.nodes)

	const msgs = 40
	for i := 0; i < msgs; i++ {
		c.rings["n1"].Multicast("g", []byte(fmt.Sprintf("m%d", i)))
	}
	waitFor(t, 10*time.Second, "lossy delivery", func() bool {
		for _, n := range c.nodes {
			// Count only data messages for group g (views may add noise).
			cnt := 0
			for _, d := range c.collect[n].deliverSnapshot() {
				if d.Group == "g" {
					cnt++
				}
			}
			if cnt < msgs {
				return false
			}
		}
		return true
	})
	// Order must still agree.
	ref := filterGroup(c.collect["n1"].deliverSnapshot(), "g")
	for _, n := range []string{"n2", "n3"} {
		got := filterGroup(c.collect[n].deliverSnapshot(), "g")
		for i := 0; i < msgs; i++ {
			if string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s diverges at %d under loss", n, i)
			}
		}
	}
}

func filterGroup(ds []Deliver, g string) []Deliver {
	out := ds[:0:0]
	for _, d := range ds {
		if d.Group == g {
			out = append(out, d)
		}
	}
	return out
}

func TestStatsProgress(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 2)
	c.startAll()
	c.rings["n1"].JoinGroup("g")
	c.waitStableRing(3*time.Second, c.nodes)
	c.rings["n1"].Multicast("g", []byte("x"))
	waitFor(t, 3*time.Second, "delivery", func() bool {
		return c.collect["n1"].deliverCount() >= 1
	})
	s := c.rings["n1"].Stats()
	if s.Sent == 0 || s.Delivered == 0 || s.Formations == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAPIAfterStop(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 1)
	c.startAll()
	c.waitStableRing(3*time.Second, []string{"n1"})
	c.rings["n1"].Stop()
	if err := c.rings["n1"].Multicast("g", nil); err != ErrStopped {
		t.Errorf("Multicast after stop: %v", err)
	}
	if err := c.rings["n1"].JoinGroup("g"); err != ErrStopped {
		t.Errorf("JoinGroup after stop: %v", err)
	}
	if err := c.rings["n1"].LeaveGroup("g"); err != ErrStopped {
		t.Errorf("LeaveGroup after stop: %v", err)
	}
	c.rings["n1"].Stop() // double stop is safe
}

// TestMulticastBackpressure pins the send-queue bound. The ring is never
// started, so no token ever drains its queue: maxSendQueue multicasts
// return, the next one blocks, and Stop releases it with ErrStopped.
func TestMulticastBackpressure(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 1)
	r := c.rings["n1"]
	for i := 0; i < maxSendQueue; i++ {
		if err := r.Multicast("g", nil); err != nil {
			t.Fatalf("Multicast %d: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.Multicast("g", nil) }()
	select {
	case err := <-done:
		t.Fatalf("Multicast past the bound returned %v instead of blocking", err)
	case <-time.After(50 * time.Millisecond):
	}
	r.Stop()
	select {
	case err := <-done:
		if err != ErrStopped {
			t.Fatalf("blocked Multicast returned %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not release the blocked Multicast")
	}
}

func TestRingIDOrdering(t *testing.T) {
	a := RingID{Epoch: 1, Coord: "n1"}
	b := RingID{Epoch: 1, Coord: "n2"}
	cc := RingID{Epoch: 2, Coord: "n0"}
	if !a.Less(b) || !b.Less(cc) || cc.Less(a) {
		t.Error("RingID ordering broken")
	}
	if a.String() == "" || !(RingID{}).IsZero() || a.IsZero() {
		t.Error("RingID helpers broken")
	}
}

func TestMsgIDComposition(t *testing.T) {
	if MsgIDFor(1, 0) <= MsgIDFor(0, 1<<39) {
		t.Error("later epoch must dominate any seq")
	}
	if MsgIDFor(2, 5) <= MsgIDFor(2, 4) {
		t.Error("same epoch must order by seq")
	}
}

func TestPacketRoundTrips(t *testing.T) {
	pkts := []any{
		&hello{From: "a", MaxEpoch: 9},
		&propose{Ring: RingID{Epoch: 4, Coord: "b"}, Members: []string{"a", "b"}},
		&accept{
			Ring: RingID{Epoch: 4, Coord: "b"}, From: "a",
			OldRing: RingID{Epoch: 3, Coord: "a"}, Delivered: 17,
			Stored: []storedMsg{{Seq: 18, Group: "g", Sender: "a", Payload: []byte{1}}},
			Groups: []string{"g"},
		},
		&install{
			Ring: RingID{Epoch: 4, Coord: "b"}, Members: []string{"a", "b"},
			Recovery: []recoverySet{{OldRing: RingID{Epoch: 3, Coord: "a"},
				Msgs: []storedMsg{{Seq: 18, Group: "g", Sender: "a", Payload: []byte{1, 2}}}}},
			Subs: []groupSub{{Node: "a", Group: "g"}},
		},
		&token{Ring: RingID{Epoch: 4, Coord: "b"}, Round: 7, Seq: 100, Aru: 90, LastAru: 80, Rtr: []uint64{91, 95}},
		retransmission(RingID{Epoch: 4, Coord: "b"}, 101, "g", "a", "p"),
	}
	for _, p := range pkts {
		got, err := decodePacketIn(mustEncodePacket(t, p), false, nil)
		if err != nil {
			t.Fatalf("%T: %v", p, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", p) {
			t.Errorf("%T round trip: %+v vs %+v", p, got, p)
		}
	}
	if _, err := decodePacketIn([]byte{99}, false, nil); err == nil {
		t.Error("unknown packet type must error")
	}
	if _, err := decodePacketIn(nil, false, nil); err == nil {
		t.Error("empty packet must error")
	}
}

// mustEncodePacket encodes a packet, failing the test on error.
func mustEncodePacket(t testing.TB, p any) []byte {
	t.Helper()
	raw, err := encodePacket(p)
	if err != nil {
		t.Fatalf("encodePacket: %v", err)
	}
	return raw
}
