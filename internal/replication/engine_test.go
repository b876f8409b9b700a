package replication

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/totem"
	"repro/internal/wal"
)

// account is a deterministic, checkpointable test servant: a balance plus
// an operation count.
type account struct {
	mu      sync.Mutex
	balance int64
	ops     int64
}

func (a *account) RepoID() string { return "IDL:repro/Account:1.0" }

func (a *account) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch inv.Operation {
	case "add":
		a.ops++
		a.balance += int64(inv.Args[0].AsLong())
		return []cdr.Value{cdr.LongLong(a.balance)}, nil
	case "get":
		return []cdr.Value{cdr.LongLong(a.balance), cdr.LongLong(a.ops)}, nil
	case "overdraw":
		return nil, &orb.UserException{Name: "IDL:repro/Overdraft:1.0", Info: []cdr.Value{cdr.LongLong(a.balance)}}
	default:
		return nil, errors.New("bad op")
	}
}

func (a *account) GetState() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(a.balance)
	e.WriteLongLong(a.ops)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func (a *account) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	bal, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	ops, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.balance, a.ops = bal, ops
	a.mu.Unlock()
	return nil
}

func (a *account) snapshot() (int64, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.balance, a.ops
}

// cluster is the replication test harness: n nodes, each with a ring and
// an engine.
type cluster struct {
	t        *testing.T
	fabric   *netsim.Fabric
	nodes    []string
	rings    map[string]*totem.Ring
	engines  map[string]*Engine
	servants map[string]map[uint64]*account
}

// newCluster starts n nodes; tune, when given, adjusts every engine's
// configuration.
func newCluster(t *testing.T, n int, tune ...func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:        t,
		fabric:   netsim.NewFabric(netsim.Config{Latency: 50 * time.Microsecond}),
		rings:    make(map[string]*totem.Ring),
		engines:  make(map[string]*Engine),
		servants: make(map[string]map[uint64]*account),
	}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, fmt.Sprintf("n%d", i+1))
	}
	for _, node := range c.nodes {
		c.fabric.AddNode(node)
	}
	for _, node := range c.nodes {
		c.startNode(node, tune...)
		c.servants[node] = make(map[uint64]*account)
	}
	t.Cleanup(func() {
		for _, e := range c.engines {
			e.Stop()
		}
		for _, r := range c.rings {
			r.Stop()
		}
	})
	return c
}

// startNode gives node a fresh ring and a started engine on it; tune, when
// given, adjusts the engine's configuration.
func (c *cluster) startNode(node string, tune ...func(*Config)) {
	c.t.Helper()
	r, err := totem.NewRing(c.fabric, totem.Config{
		Node:              node,
		Universe:          c.nodes,
		Port:              4000,
		HeartbeatInterval: 4 * time.Millisecond,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.rings[node] = r
	cfg := Config{
		Node:          node,
		Rings:         []*totem.Ring{r},
		CallTimeout:   8 * time.Second,
		RetryInterval: time.Second,
	}
	for _, f := range tune {
		f(&cfg)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	e.Start()
	c.engines[node] = e
}

// host places replicas of a fresh group on the given nodes.
func (c *cluster) host(def GroupDef, on ...string) {
	c.t.Helper()
	for _, node := range on {
		a := &account{}
		c.servants[node][def.ID] = a
		if err := c.engines[node].HostReplica(def, a, true); err != nil {
			c.t.Fatal(err)
		}
	}
	c.waitMembers(def.ID, on)
}

// waitMembers waits until every hosting node sees the expected membership
// and every node's ring has ordered the members' joins. The second half
// matters to a client on a non-member node: until its ring holds the
// members, it may still sit in a ring of its own, and an invocation
// multicast there never reaches them — a oneway one, never retried, is
// lost.
func (c *cluster) waitMembers(gid uint64, on []string) {
	c.t.Helper()
	want := append([]string(nil), on...)
	sortStrings(want)
	inv := namesOf(gid).inv
	waitFor(c.t, 5*time.Second, fmt.Sprintf("group %d membership %v", gid, want), func() bool {
		for _, node := range on {
			st, ok := c.engines[node].GroupStatus(gid)
			if !ok || st.Syncing || !equalStrings(st.Members, want) {
				return false
			}
		}
		for _, r := range c.rings {
			if !equalStrings(r.GroupMembers(inv), want) {
				return false
			}
		}
		return true
	})
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

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

func TestActiveReplicationConsistency(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 1, Name: "acct", Style: Active}
	c.host(def, "n1", "n2", "n3")

	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1})
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
	// Every replica must have executed every operation and hold the same
	// state.
	waitFor(t, 5*time.Second, "replica convergence", func() bool {
		for _, node := range []string{"n1", "n2", "n3"} {
			bal, ops := c.servants[node][1].snapshot()
			if bal != want || ops != 10 {
				return false
			}
		}
		return true
	})
}

func TestActiveReplicaCrashIsTransparent(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 1, Name: "acct", Style: Active}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 1})

	if _, err := proxy.Invoke("add", cdr.Long(5)); err != nil {
		t.Fatal(err)
	}
	c.fabric.CrashNode("n2")
	c.engines["n2"].Stop()
	c.rings["n2"].Stop()

	// Invocations keep succeeding with no client-visible change.
	out, err := proxy.Invoke("add", cdr.Long(7))
	if err != nil {
		t.Fatalf("post-crash add: %v", err)
	}
	if out[0].AsLongLong() != 12 {
		t.Fatalf("post-crash balance %d, want 12", out[0].AsLongLong())
	}
}

func TestWarmPassivePrimaryOnlyExecution(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 2, Name: "warm", Style: WarmPassive}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 2})

	for i := 0; i < 5; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(10)); err != nil {
			t.Fatal(err)
		}
	}
	// Only the primary (n1, senior member) executes; backups apply state.
	waitFor(t, 5*time.Second, "backup state sync", func() bool {
		b2, _ := c.servants["n2"][2].snapshot()
		b3, _ := c.servants["n3"][2].snapshot()
		return b2 == 50 && b3 == 50
	})
	_, opsPrimary := c.servants["n1"][2].snapshot()
	if opsPrimary != 5 {
		t.Errorf("primary executed %d ops, want 5", opsPrimary)
	}
	// Backups applied full-state updates: their op counters mirror the
	// primary's because state includes the counter.
	if ex := c.engines["n2"].Stats().Executions; ex != 0 {
		t.Errorf("backup n2 executed %d operations, want 0", ex)
	}
}

func TestWarmPassiveFailover(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 3, Name: "warm", Style: WarmPassive}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 3})

	if _, err := proxy.Invoke("add", cdr.Long(100)); err != nil {
		t.Fatal(err)
	}
	c.fabric.CrashNode("n1") // kill the primary
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()

	out, err := proxy.Invoke("add", cdr.Long(1))
	if err != nil {
		t.Fatalf("failover add: %v", err)
	}
	if out[0].AsLongLong() != 101 {
		t.Fatalf("state lost in failover: got %d, want 101", out[0].AsLongLong())
	}
	waitFor(t, 5*time.Second, "new primary", func() bool {
		st, ok := c.engines["n2"].GroupStatus(3)
		return ok && st.Primary == "n2"
	})
}

func TestColdPassiveFailoverReplaysLog(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 4, Name: "cold", Style: ColdPassive, CheckpointEvery: 3}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 4})

	var want int64
	for i := 1; i <= 7; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatal(err)
		}
		want += int64(i)
	}
	// Backups have NOT executed anything yet.
	if bal, _ := c.servants["n2"][4].snapshot(); bal != 0 {
		// A periodic checkpoint may have installed state; that's fine too —
		// but executions must be zero.
		if ex := c.engines["n2"].Stats().Executions; ex != 0 {
			t.Fatalf("cold backup executed %d ops", ex)
		}
		_ = bal
	}

	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()

	out, err := proxy.Invoke("get")
	if err != nil {
		t.Fatalf("post-failover get: %v", err)
	}
	if out[0].AsLongLong() != want {
		t.Fatalf("cold failover state %d, want %d", out[0].AsLongLong(), want)
	}
	if re := c.engines["n2"].Stats().Replays; re == 0 {
		t.Error("expected replayed operations at the new cold primary")
	}
}

// refusing is an account that refuses every checkpoint.
type refusing struct{ account }

func (r *refusing) SetState([]byte) error { return errors.New("checkpoint refused") }

// TestColdFailoverReplaysPastRefusedCheckpoint: a new cold primary whose
// servant refuses the logged checkpoint still replays every invocation
// logged after it, instead of dropping them and serving an empty state.
func TestColdFailoverReplaysPastRefusedCheckpoint(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 5, Name: "cold-refuse", Style: ColdPassive, CheckpointEvery: 3}
	heir := &refusing{}
	for _, node := range []string{"n1", "n2", "n3"} {
		var s orb.Servant = &account{}
		if node == "n2" {
			s = heir
		}
		if err := c.engines[node].HostReplica(def, s, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(def.ID, []string{"n1", "n2", "n3"})
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID})
	for i := 1; i <= 7; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()

	out, err := proxy.Invoke("get")
	if err != nil {
		t.Fatalf("post-failover get: %v", err)
	}
	// Nothing installed the state, so the heir holds exactly the adds
	// logged after the checkpoint, and answers from it.
	bal, ops := heir.snapshot()
	if ops == 0 || ops > 7 || out[0].AsLongLong() != bal || out[1].AsLongLong() != ops {
		t.Fatalf("heir state balance=%d ops=%d, answered %d/%d",
			bal, ops, out[0].AsLongLong(), out[1].AsLongLong())
	}
}

// gatedAccount is an account whose first dispatch blocks until release
// is closed.
type gatedAccount struct {
	account
	first   sync.Once
	release chan struct{}
}

func (g *gatedAccount) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	g.first.Do(func() { <-g.release })
	return g.account.Dispatch(inv)
}

func TestDuplicateInvocationSuppression(t *testing.T) {
	c := newCluster(t, 2)
	def := GroupDef{ID: 5, Name: "dup", Style: Active}
	// The replica's first dispatch is held past several retry intervals,
	// so the client always retransmits the operation while it executes.
	gated := &gatedAccount{release: make(chan struct{})}
	if err := c.engines["n1"].HostReplica(def, gated, true); err != nil {
		t.Fatal(err)
	}
	c.waitMembers(def.ID, []string{"n1"})
	proxy := c.engines["n2"].Proxy(GroupRef{ID: 5}, WithRetryInterval(3*time.Millisecond))

	done := make(chan error, 1)
	go func() {
		_, err := proxy.Invoke("add", cdr.Long(1))
		done <- err
	}()
	waitFor(t, 5*time.Second, "client retransmissions", func() bool {
		return c.engines["n2"].Stats().Retries >= 3
	})
	close(gated.release)
	if err := <-done; err != nil {
		t.Fatalf("add: %v", err)
	}
	waitFor(t, 5*time.Second, "receiver-side duplicate suppression", func() bool {
		return c.engines["n1"].Stats().DupInvocations > 0
	})
	time.Sleep(20 * time.Millisecond)
	if bal, ops := gated.snapshot(); bal != 1 || ops != 1 {
		t.Fatalf("retransmissions corrupted state: balance=%d ops=%d", bal, ops)
	}
}

func TestNestedInvocationMixedStyles(t *testing.T) {
	c := newCluster(t, 4)
	// Group A (active, 2 replicas) calls group B (warm passive, 2
	// replicas) from inside its dispatch — the paper's central scenario.
	defB := GroupDef{ID: 11, Name: "B", Style: WarmPassive}
	c.host(defB, "n3", "n4")

	defA := GroupDef{ID: 10, Name: "A", Style: Active}
	for _, node := range []string{"n1", "n2"} {
		node := node
		forwarder := orb.NewMethodServant("IDL:repro/Forwarder:1.0").
			Define("addVia", func(inv *orb.Invocation) ([]cdr.Value, error) {
				nested := Nested(inv, GroupRef{ID: 11})
				return nested.Invoke("add", inv.Args[0])
			})
		if err := c.engines[node].HostReplica(defA, forwarder, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(10, []string{"n1", "n2"})

	client := c.engines["n3"].Proxy(GroupRef{ID: 10})
	out, err := client.Invoke("addVia", cdr.Long(42))
	if err != nil {
		t.Fatalf("nested invoke: %v", err)
	}
	if out[0].AsLongLong() != 42 {
		t.Fatalf("nested result = %d", out[0].AsLongLong())
	}

	// Both replicas of A invoked B; B must have executed the operation
	// exactly once.
	waitFor(t, 5*time.Second, "B state", func() bool {
		bal, ops := c.servants["n3"][11].snapshot()
		return bal == 42 && ops == 1
	})
	time.Sleep(50 * time.Millisecond)
	if _, ops := c.servants["n3"][11].snapshot(); ops != 1 {
		t.Fatalf("duplicate nested invocation executed: ops=%d", ops)
	}
	dups := c.engines["n3"].Stats().DupInvocations + c.engines["n4"].Stats().DupInvocations
	if dups == 0 {
		t.Error("expected receiver-side duplicate suppression of the second replica's invocation")
	}
}

func TestVotingMajority(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 12, Name: "vote", Style: ActiveWithVoting}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 12}, WithVotes(3))
	// Many sequential calls: each needs two agreeing replies of three, so
	// this also guards against sender-side suppression starving the quorum
	// (a voting group must never suppress its responses).
	var want int64
	for i := 1; i <= 40; i++ {
		out, err := proxy.Invoke("add", cdr.Long(int32(i)))
		if err != nil {
			t.Fatalf("voted add %d: %v", i, err)
		}
		want += int64(i)
		if out[0].AsLongLong() != want {
			t.Fatalf("voted result = %d, want %d", out[0].AsLongLong(), want)
		}
	}
}

// divergent is a replica whose servant computes a wrong result: it runs
// the account but reports every balance off by one.
type divergent struct{ account }

func (d *divergent) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	out, err := d.account.Dispatch(inv)
	if err == nil && len(out) > 0 {
		out[0] = cdr.LongLong(out[0].AsLongLong() + 1)
	}
	return out, err
}

// TestVotingMajorityMasksDivergentReplica: one of three ACTIVE_WITH_VOTING
// replicas returns a different result on every call, and the client gets
// the other two replicas' agreed one every time.
func TestVotingMajorityMasksDivergentReplica(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 14, Name: "vote-mask", Style: ActiveWithVoting}
	for _, node := range []string{"n1", "n2"} {
		a := &account{}
		c.servants[node][def.ID] = a
		if err := c.engines[node].HostReplica(def, a, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.engines["n3"].HostReplica(def, &divergent{}, true); err != nil {
		t.Fatal(err)
	}
	c.waitMembers(def.ID, []string{"n1", "n2", "n3"})
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID}, WithVotes(3))
	var want int64
	for i := 1; i <= 20; i++ {
		out, err := proxy.Invoke("add", cdr.Long(int32(i)))
		if err != nil {
			t.Fatalf("voted add %d: %v", i, err)
		}
		want += int64(i)
		if got := out[0].AsLongLong(); got != want {
			t.Fatalf("voted add %d = %d, want the majority's %d", i, got, want)
		}
	}
}

// keeper keeps the octet-sequence argument of its first "keep" call
// without copying it, against the lifetime contract's advice, and
// overwrites a buffer of its own with every later one.
type keeper struct {
	mu   sync.Mutex
	kept []byte
	last []byte
}

func (k *keeper) RepoID() string { return "IDL:repro/Keeper:1.0" }

func (k *keeper) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	b := inv.Args[0].AsOctetSeq()
	if k.kept == nil {
		k.kept = b
	}
	k.last = append(k.last[:0], b...)
	return nil, nil
}

// TestKeptArgumentSurvivesLaterDeliveries pins the buffer-lifetime rule
// the zero-copy argument decode relies on: delivered frames are never
// recycled, so an octet-sequence argument a servant keeps past Dispatch
// (aliasing the frame it arrived in) still reads unchanged after 1000
// further deliveries.
func TestKeptArgumentSurvivesLaterDeliveries(t *testing.T) {
	c := newCluster(t, 2)
	def := GroupDef{ID: 15, Name: "keeper", Style: Active}
	k := &keeper{}
	if err := c.engines["n1"].HostReplica(def, k, true); err != nil {
		t.Fatal(err)
	}
	c.waitMembers(def.ID, []string{"n1"})
	proxy := c.engines["n2"].Proxy(GroupRef{ID: def.ID})
	// The kept argument arrives in the largest frame of the test: a
	// transport that reused frame storage would write later frames over it.
	first := make([]byte, 4096)
	for i := range first {
		first[i] = byte(i*7 + 1)
	}
	want := append([]byte(nil), first...)
	if _, err := proxy.Invoke("keep", cdr.OctetSeq(first)); err != nil {
		t.Fatal(err)
	}
	// 1000 more deliveries from 8 concurrent callers, so the ring
	// coalesces them into frames as it does under load.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 1000; i += 8 {
				if _, err := proxy.Invoke("keep", cdr.OctetSeq(bytes.Repeat([]byte{byte(i)}, 1+i%256))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if !bytes.Equal(k.kept, want) {
		t.Fatalf("kept argument changed after 1000 deliveries:\n got %x\nwant %x", k.kept, want)
	}
}

func TestUserExceptionPropagates(t *testing.T) {
	c := newCluster(t, 2)
	def := GroupDef{ID: 13, Name: "exc", Style: Active}
	c.host(def, "n1")
	proxy := c.engines["n2"].Proxy(GroupRef{ID: 13})
	_, err := proxy.Invoke("overdraw")
	var uexc *orb.UserException
	if !errors.As(err, &uexc) || uexc.Name != "IDL:repro/Overdraft:1.0" {
		t.Fatalf("got %v", err)
	}
}

func TestOnewayInvocation(t *testing.T) {
	c := newCluster(t, 2)
	def := GroupDef{ID: 14, Name: "ow", Style: Active}
	c.host(def, "n1")
	proxy := c.engines["n2"].Proxy(GroupRef{ID: 14})
	if err := proxy.InvokeOneway("add", cdr.Long(3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "oneway effect", func() bool {
		bal, _ := c.servants["n1"][14].snapshot()
		return bal == 3
	})
}

func TestJoinerStateTransfer(t *testing.T) {
	c := newCluster(t, 3)
	def := GroupDef{ID: 15, Name: "join", Style: Active}
	c.host(def, "n1", "n2")
	proxy := c.engines["n3"].Proxy(GroupRef{ID: 15})
	for i := 0; i < 4; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(25)); err != nil {
			t.Fatal(err)
		}
	}

	// A new replica joins mid-stream and must be brought up to state.
	late := &account{}
	c.servants["n3"][15] = late
	if err := c.engines["n3"].HostReplica(def, late, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "joiner synced", func() bool {
		st, ok := c.engines["n3"].GroupStatus(15)
		if !ok || st.Syncing {
			return false
		}
		bal, _ := late.snapshot()
		return bal == 100
	})
	if c.engines["n3"].Stats().StateTransfers == 0 {
		t.Error("joiner did not record a state transfer")
	}

	// The joiner now participates: kill the old members, state survives.
	for _, n := range []string{"n1", "n2"} {
		c.fabric.CrashNode(n)
		c.engines[n].Stop()
		c.rings[n].Stop()
	}
	local := c.engines["n3"].Proxy(GroupRef{ID: 15})
	out, err := local.Invoke("get")
	if err != nil {
		t.Fatalf("surviving joiner: %v", err)
	}
	if out[0].AsLongLong() != 100 {
		t.Fatalf("joiner state = %d, want 100", out[0].AsLongLong())
	}
}

// A member that adopts a checkpoint through gap repair (a snapshot whose
// horizon is past its own) must not re-execute an operation the snapshot's
// window covers when recovery re-delivers it: adoption seeds the dedup
// table from the window.
func TestGapRepairAdoptionKeepsExactlyOnce(t *testing.T) {
	c := newCluster(t, 1)
	def := GroupDef{ID: 17, Name: "gap", Style: Active}
	c.host(def, "n1")
	eng := c.engines["n1"]
	if _, err := eng.Proxy(GroupRef{ID: 17}).Invoke("add", cdr.Long(1)); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.GroupStatus(17)
	r := eng.replicaFor(17)

	// The snapshot comes from a lineage n1 missed: it already includes the
	// effect of operation k, which n1 never saw.
	k := opKey{ClientID: "c:elsewhere", OpSeq: 7}
	state, _ := (&account{balance: 40, ops: 3}).GetState()
	upTo := st.LastExec + 100
	raw, err := encodeWire(&msgCheckpoint{
		GroupID: 17, Reason: ckptPeriodic, UpToMsgID: upTo, State: state,
		Covered: encodeWindow([]opKey{k}),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeWire(raw)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	r.q.Push(task{msgID: upTo, m: m})
	waitFor(t, 5*time.Second, "gap-repair adoption", func() bool {
		return eng.Stats().StateTransfers > before.StateTransfers
	})

	r.q.Push(task{msgID: upTo + 1, m: &msgInvocation{
		GroupID: 17, Key: k, Operation: "add",
		Args: orb.EncodeRequestBody([]cdr.Value{cdr.Long(5)}),
	}})
	waitFor(t, 5*time.Second, "re-delivered invocation handled", func() bool {
		s := eng.Stats()
		return s.DupInvocations > before.DupInvocations || s.Executions > before.Executions
	})
	if got := eng.Stats().Executions; got != before.Executions {
		t.Fatalf("covered operation re-executed after adoption: executions %d → %d", before.Executions, got)
	}
	if bal, ops := c.servants["n1"][17].snapshot(); bal != 40 || ops != 3 {
		t.Fatalf("state after re-delivery = (%d, %d), want the adopted (40, 3)", bal, ops)
	}
}

// The record cap still bounds the table once no low-water mark retires
// anything: it keeps the newest dedupRetain records, the client remembers
// the highest OpSeq evicted, and a checkpoint's window lists the executed
// records oldest first, also after the cap has evicted, followed by the
// client's horizons.
func TestDedupBoundAndWindowOrder(t *testing.T) {
	r := newReplica(nil, GroupDef{ID: 1, Style: WarmPassive}, &account{}, false, &wal.MemLog{})
	total := dedupRetain + 100
	var want []opKey
	for i := 0; i < total; i++ {
		k := opKey{ClientID: "c:n1", OpSeq: uint64(i + 1)}
		rec := r.dedup.record(k)
		if i%3 != 0 { // executed here; the rest were only answered
			rec.executedLocal = true
			if i >= total-dedupRetain {
				want = append(want, k)
			}
		}
	}
	listed := 0
	for rec := r.dedup.oldest; rec != nil; rec = rec.next {
		listed++
	}
	if len(r.dedup.recs) != dedupRetain || listed != dedupRetain {
		t.Fatalf("table holds %d records, %d in insertion order, want %d", len(r.dedup.recs), listed, dedupRetain)
	}
	if _, st := r.dedup.lookup(opKey{ClientID: "c:n1", OpSeq: 100}); st != keyEvicted {
		t.Errorf("an evicted key reads as state %d, want keyEvicted", st)
	}
	if _, st := r.dedup.lookup(opKey{ClientID: "c:n1", OpSeq: 101}); st != keyLive {
		t.Errorf("the oldest kept key reads as state %d, want keyLive", st)
	}
	win := r.dedup.window()
	got, err := decodeWindow(win)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.keys, want) {
		t.Fatalf("window has %d keys (first %v), want %d (first %v)", len(got.keys), got.keys[0], len(want), want[0])
	}
	if wantHz := []horizon{{ClientID: "c:n1", Evicted: 100}}; !reflect.DeepEqual(got.horizons, wantHz) {
		t.Fatalf("window horizons %v, want %v", got.horizons, wantHz)
	}
}

func TestEngineStopUnblocksCallers(t *testing.T) {
	c := newCluster(t, 2)
	def := GroupDef{ID: 16, Name: "stop", Style: Active}
	c.host(def, "n1")
	proxy := c.engines["n2"].Proxy(GroupRef{ID: 16}, WithTimeout(30*time.Second))
	c.fabric.CrashNode("n1") // no one will answer
	done := make(chan error, 1)
	go func() {
		_, err := proxy.Invoke("add", cdr.Long(1))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	c.engines["n2"].Stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrEngineStopped) {
			t.Fatalf("got %v, want ErrEngineStopped", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("caller not unblocked by Stop")
	}
}

func TestHostReplicaErrors(t *testing.T) {
	c := newCluster(t, 1)
	def := GroupDef{ID: 17, Name: "dup-host", Style: Active}
	c.host(def, "n1")
	err := c.engines["n1"].HostReplica(def, &account{}, true)
	if !errors.Is(err, ErrAlreadyHosted) {
		t.Fatalf("got %v, want ErrAlreadyHosted", err)
	}
}

func TestCallTimeout(t *testing.T) {
	c := newCluster(t, 2)
	// Group 99 is hosted nowhere: the call must time out.
	proxy := c.engines["n1"].Proxy(GroupRef{ID: 99}, WithTimeout(80*time.Millisecond), WithRetryInterval(30*time.Millisecond))
	_, err := proxy.Invoke("add", cdr.Long(1))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("got %v, want ErrCallTimeout", err)
	}
}

func TestStyleStrings(t *testing.T) {
	for s, want := range map[Style]string{
		Active: "ACTIVE", WarmPassive: "WARM_PASSIVE", ColdPassive: "COLD_PASSIVE",
		Stateless: "STATELESS", ActiveWithVoting: "ACTIVE_WITH_VOTING",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Style(99).String() == "" {
		t.Error("unknown style")
	}
	if !Active.IsActive() || Active.IsPassive() || !WarmPassive.IsPassive() {
		t.Error("style predicates")
	}
}
