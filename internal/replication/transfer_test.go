package replication

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
	"repro/internal/wal"
)

// slowAccount is an account whose snapshots take delay nanoseconds.
type slowAccount struct {
	account
	delay atomic.Int64
	snaps atomic.Int64 // snapshots begun
}

func (s *slowAccount) GetState() ([]byte, error) {
	s.snaps.Add(1)
	time.Sleep(time.Duration(s.delay.Load()))
	return s.account.GetState()
}

// checkpointsBy returns each node's Stats.Checkpoints.
func (c *cluster) checkpointsBy(nodes ...string) map[string]uint64 {
	out := make(map[string]uint64, len(nodes))
	for _, n := range nodes {
		out[n] = c.engines[n].Stats().Checkpoints
	}
	return out
}

// waitSynced waits until node's replica of gid is out of state transfer.
func (c *cluster) waitSynced(gid uint64, node string) {
	c.t.Helper()
	waitFor(c.t, 5*time.Second, node+" synced", func() bool {
		st, ok := c.engines[node].GroupStatus(gid)
		return ok && !st.Syncing
	})
}

// coldJoin hosts a COLD_PASSIVE group on n1, whose snapshots take 300 ms,
// and n3, makes five add(10) calls from n4 and hosts a fresh joiner on n2.
func coldJoin(t *testing.T, gid uint64) (*cluster, *slowAccount, *Proxy) {
	c := newCluster(t, 4)
	def := GroupDef{ID: gid, Name: "cold-join", Style: ColdPassive, CheckpointEvery: 1000}
	slow := &slowAccount{}
	slow.delay.Store(int64(300 * time.Millisecond))
	for node, s := range map[string]orb.Servant{"n1": slow, "n3": &account{}} {
		if err := c.engines[node].HostReplica(def, s, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(def.ID, []string{"n1", "n3"})
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID})
	for i := 0; i < 5; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.engines["n2"].HostReplica(def, &account{}, false); err != nil {
		t.Fatal(err)
	}
	return c, slow, proxy
}

// crashN1ThenGet crashes n1 and reads the balance through the proxy.
func (c *cluster) crashN1ThenGet(proxy *Proxy) int64 {
	c.t.Helper()
	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()
	out, err := proxy.Invoke("get")
	if err != nil {
		c.t.Fatalf("post-failover get: %v", err)
	}
	return out[0].AsLongLong()
}

// A fresh COLD_PASSIVE joiner never takes the lagging servant state of the
// backup beside it: it adopts the primary's slow snapshot, or, when the
// primary crashes before that is out, the backup's log. When the primary
// crashes, the joiner fails over from its own log to every acknowledged
// write.
func TestColdJoinerSyncsFromPrimary(t *testing.T) {
	c, _, proxy := coldJoin(t, 80)
	if _, err := proxy.Invoke("add", cdr.Long(10)); err != nil {
		t.Fatal(err)
	}
	if got := c.crashN1ThenGet(proxy); got != 60 {
		t.Fatalf("after failover the balance is %d, want the acknowledged 60", got)
	}
}

// When the primary crashes before its snapshot for a COLD_PASSIVE joiner
// is out, the backup answers the joiner's next request, and it answers
// from its log (replayLog), not from its servant, which holds only the
// initial state: no acknowledged write is lost.
func TestColdBackupAnswersFromLog(t *testing.T) {
	c, slow, proxy := coldJoin(t, 79)
	waitFor(t, 5*time.Second, "n1 snapshotting for the joiner", func() bool {
		return slow.snaps.Load() > 0
	})
	if got := c.crashN1ThenGet(proxy); got != 50 {
		t.Fatalf("after failover the balance is %d, want the acknowledged 50", got)
	}
	if c.engines["n3"].Stats().Replays == 0 {
		t.Error("the backup answered without replaying its log")
	}
}

// A member that missed a ring lineage without noticing (its own view never
// changed) is repaired by the one answer the others' view sets off: n1 and
// n2 see n3 leave, order two operations without it and see it come back.
// n1, the first member that did not ask, answers; n3 adopts through gap
// repair.
func TestMissedLineageRepaired(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 78, Name: "lineage", Style: Active}
	all := []string{"n1", "n2", "n3"}
	c.host(def, all...)
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID})
	for i := 0; i < 3; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(10)); err != nil {
			t.Fatal(err)
		}
	}
	c.fence(def.ID, "n1", all)
	before := c.checkpointsBy(all...)

	st, _ := c.engines["n1"].GroupStatus(def.ID)
	for _, n := range []string{"n1", "n2"} {
		r := c.engines[n].replicaFor(def.ID)
		r.q.Push(task{m: &taskView{members: []string{"n1", "n2"}}})
		for k := uint64(1); k <= 2; k++ {
			r.q.Push(task{msgID: st.LastExec + k, m: &msgInvocation{
				GroupID: def.ID, Key: opKey{ClientID: "c:lineage", OpSeq: k}, Operation: "add",
				Args: orb.EncodeRequestBody([]cdr.Value{cdr.Long(5)}),
			}})
		}
		r.q.Push(task{m: &taskView{members: all}})
	}
	waitFor(t, 5*time.Second, "n3 repaired", func() bool {
		bal, _ := c.servants["n3"][def.ID].snapshot()
		return bal == 40
	})
	after := c.checkpointsBy(all...)
	for _, n := range all {
		want := uint64(0)
		if n == "n1" {
			want = 1
		}
		if got := after[n] - before[n]; got != want {
			t.Errorf("%s sent %d checkpoints, want %d", n, got, want)
		}
	}
}

// A joiner whose servant refuses every snapshot does not ask again at once:
// it waits for the next view or snapshot, so the join costs one checkpoint
// however long the refusal lasts.
func TestRefusedAdoptionAsksNoMore(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 77, Name: "refused", Style: Active}
	c.host(def, "n1", "n2")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID})
	for i := 0; i < 4; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(25)); err != nil {
			t.Fatal(err)
		}
	}
	members := []string{"n1", "n2", "n3"}
	before := c.checkpointsBy(members...)
	if err := c.engines["n3"].HostReplica(def, &refusing{}, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "n3 refused a snapshot", func() bool {
		r := c.engines["n3"].replicaFor(def.ID)
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.members) == 3
	})
	for i := 0; i < 5; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	after := c.checkpointsBy(members...)
	var total uint64
	for _, n := range members {
		total += after[n] - before[n]
	}
	if total != 1 {
		t.Fatalf("the refused join cost %d checkpoints, want 1", total)
	}
	if st, _ := c.engines["n3"].GroupStatus(def.ID); !st.Syncing {
		t.Fatal("a joiner that refused every snapshot left state transfer")
	}
}

// A join costs exactly one checkpoint under every stateful style, taken by
// the first member of the view that did not ask (n1), even when that
// member's snapshot is slow; periodic checkpoints are out of reach, and
// the joiner ends up with the group's state.
func TestJoinOneCheckpoint(t *testing.T) {
	members := []string{"n1", "n2", "n3"}
	for i, style := range []Style{Active, WarmPassive, ColdPassive, LeaderFollower} {
		t.Run(style.String(), func(t *testing.T) {
			c := newCluster(t, 4)
			def := GroupDef{ID: uint64(81 + i), Name: "join-one", Style: style, CheckpointEvery: 1000}
			slow := &slowAccount{}
			for node, s := range map[string]orb.Servant{"n1": slow, "n2": &account{}} {
				if err := c.engines[node].HostReplica(def, s, true); err != nil {
					t.Fatal(err)
				}
			}
			c.waitMembers(def.ID, []string{"n1", "n2"})
			proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID})
			for k := 0; k < 4; k++ {
				if _, err := proxy.Invoke("add", cdr.Long(25)); err != nil {
					t.Fatal(err)
				}
			}
			before := c.checkpointsBy(members...)
			slow.delay.Store(int64(200 * time.Millisecond))

			late := &account{}
			c.servants["n3"][def.ID] = late
			if err := c.engines["n3"].HostReplica(def, late, false); err != nil {
				t.Fatal(err)
			}
			c.waitSynced(def.ID, "n3")
			// Two fences from n1: everything the join set off is handled.
			c.fence(def.ID, "n1", members)
			c.fence(def.ID, "n1", members)

			after := c.checkpointsBy(members...)
			var total uint64
			for _, n := range members {
				total += after[n] - before[n]
			}
			if total != 1 || after["n1"]-before["n1"] != 1 {
				t.Fatalf("the join cost %d checkpoints (before %v, after %v), want one from n1", total, before, after)
			}
			if bal, _ := late.snapshot(); bal != 100 {
				t.Fatalf("joiner balance %d, want 100", bal)
			}
		})
	}
}

// onStateReq answers through one member: the first of the view that has
// not asked, once per set of askers, and a warm backup with a gap asks for
// state instead of answering.
func TestStateRequestOneResponder(t *testing.T) {
	c := newCluster(t, 3)
	eng := c.engines["n2"]
	def := GroupDef{ID: 87, Name: "responder", Style: WarmPassive}
	def.fill()
	req := func(r *replica, from string) {
		r.onStateReq(&msgStateReq{GroupID: def.ID, From: from})
	}
	newMember := func() *replica {
		r := newReplica(eng, def, &ledger{}, false, &wal.MemLog{})
		r.onView(taskView{members: []string{"n1", "n2", "n3"}})
		return r
	}

	r := newMember()
	base := eng.Stats().Checkpoints
	req(r, "n3") // n1 answers
	if got := eng.Stats().Checkpoints; got != base {
		t.Fatalf("n2 answered while n1 had not asked: %d checkpoints", got-base)
	}
	req(r, "n1") // n2 is now the first member that has not asked
	req(r, "n3") // a repeated request from the same askers
	if got := eng.Stats().Checkpoints; got != base+1 {
		t.Fatalf("n2 sent %d checkpoints, want one", got-base)
	}
	r.onView(taskView{members: []string{"n1", "n2", "n3"}}) // a view starts a new set
	req(r, "n1")
	if got := eng.Stats().Checkpoints; got != base+2 {
		t.Fatalf("n2 sent %d checkpoints after a new view, want two", got-base)
	}

	gapped := newMember()
	gapped.gap = true
	base = eng.Stats().Checkpoints
	req(gapped, "n1")
	if got := eng.Stats().Checkpoints; got != base {
		t.Fatalf("a gapped backup answered: %d checkpoints", got-base)
	}
	if st := gapped.status(); !st.Syncing {
		t.Fatal("a gapped backup asked to answer did not ask for state itself")
	}
}
