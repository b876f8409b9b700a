package replication

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/drstore"
	"repro/internal/fault"
	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/totem"
	"repro/internal/wal"
)

// addInvocation is an ordered "add" invocation for direct injection into a
// replica's executor queue.
func addInvocation(gid uint64, k opKey, amount int32) *msgInvocation {
	return &msgInvocation{
		GroupID: gid, Key: k, Operation: "add",
		Args: orb.EncodeRequestBody([]cdr.Value{cdr.Long(amount)}),
	}
}

// A client engine restarted on the same node must not reuse its
// predecessor's operation keys: the group would answer the new
// incarnation's operations from the old one's duplicate-suppression
// records without running them.
func TestRestartedClientKeysDoNotCollide(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 40, Name: "restart", Style: Active}
	c.host(def, "n1", "n2", "n3")
	for i := 0; i < 3; i++ {
		if _, err := c.engines["n4"].Proxy(GroupRef{ID: 40}).Invoke("add", cdr.Long(1)); err != nil {
			t.Fatal(err)
		}
	}
	c.engines["n4"].Stop()
	fresh, err := NewEngine(Config{Node: "n4", Rings: []*totem.Ring{c.rings["n4"]}, CallTimeout: 2 * time.Second, RetryInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Start()
	c.engines["n4"] = fresh
	out, err := fresh.Proxy(GroupRef{ID: 40}).Invoke("add", cdr.Long(100))
	if err != nil {
		t.Fatalf("restarted client's add: %v", err)
	}
	if got := out[0].AsLongLong(); got != 103 {
		t.Fatalf("restarted client's add(100) returned %d, want 103 (answered from the previous incarnation's record)", got)
	}
	waitFor(t, 5*time.Second, "every replica at 103", func() bool {
		for _, n := range []string{"n1", "n2", "n3"} {
			if bal, _ := c.servants[n][40].snapshot(); bal != 103 {
				return false
			}
		}
		return true
	})
}

// A retry whose record the count cap evicted — dedupRetain newer
// operations from other clients arrived first, none of them retiring
// anything — must not execute a second time.
func TestRetryPastRecordCapIsRefused(t *testing.T) {
	c := newCluster(t, 1)
	def := GroupDef{ID: 41, Name: "overflow", Style: Active}
	c.host(def, "n1")
	eng := c.engines["n1"]
	r := eng.replicaFor(41)
	st, _ := eng.GroupStatus(41)
	id := st.LastExec + 1
	before := eng.Stats().Executions

	victim := opKey{ClientID: "c:victim", OpSeq: 1}
	r.q.Push(task{msgID: id, m: addInvocation(41, victim, 1)})
	others := dedupRetain + 1
	for i := 0; i < others; i++ {
		k := opKey{ClientID: fmt.Sprintf("c:other%d", i%4), OpSeq: uint64(i/4 + 1)}
		r.q.Push(task{msgID: id + 1 + uint64(i), m: addInvocation(41, k, 0)})
	}
	// The retry, then a fresh operation that marks when it has been seen.
	r.q.Push(task{msgID: id + 1 + uint64(others), m: addInvocation(41, victim, 1)})
	r.q.Push(task{msgID: id + 2 + uint64(others), m: addInvocation(41, opKey{ClientID: "c:marker", OpSeq: 1}, 0)})
	waitFor(t, 10*time.Second, "marker executed", func() bool {
		_, ops := c.servants["n1"][41].snapshot()
		return ops >= int64(others)+2
	})
	time.Sleep(20 * time.Millisecond)
	if bal, ops := c.servants["n1"][41].snapshot(); bal != 1 || ops != int64(others)+2 {
		t.Fatalf("state (balance %d, ops %d), want (1, %d): the evicted operation ran again", bal, ops, others+2)
	}
	if got := eng.Stats().Executions - before; got != uint64(others)+2 {
		t.Fatalf("%d executions, want %d", got, others+2)
	}
}

// The refusal is a detected fault: the waiting client gets a TIMEOUT
// system exception, the notifier a report, and the engine a count.
func TestEvictedRetryIsReported(t *testing.T) {
	notifier := &fault.Notifier{}
	c := newCluster(t, 1, func(cfg *Config) { cfg.Notifier = notifier })
	def := GroupDef{ID: 42, Name: "overflow", Style: Active}
	c.host(def, "n1")
	eng := c.engines["n1"]
	r := eng.replicaFor(42)
	reports, cancel := notifier.Subscribe(func(rep fault.Report) bool { return rep.Kind == fault.RetentionOverflow })
	defer cancel()

	victim := opKey{ClientID: "c:victim", OpSeq: 1}
	r.mu.Lock()
	r.dedup.record(victim).executedLocal = true
	for i := 0; i < dedupRetain; i++ {
		r.dedup.record(opKey{ClientID: "c:other", OpSeq: uint64(i + 1)})
	}
	r.mu.Unlock()

	pc, err := eng.registerCall(victim, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.q.Push(task{msgID: 1 << 20, m: addInvocation(42, victim, 1)})
	select {
	case rep := <-pc.ch:
		_, err := wireToOutcome(rep.Status, rep.Body)
		var sys giop.SystemException
		if !errors.As(err, &sys) || sys.RepoID != giop.ExcTimeout || sys.Completed != giop.CompletedMaybe {
			t.Fatalf("refusal reply: %v, want a TIMEOUT system exception, completion maybe", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to the refused retry")
	}
	select {
	case rep := <-reports:
		if rep.GroupID != 42 || rep.Member != "c:victim" {
			t.Errorf("report %+v, want group 42, member c:victim", rep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no retention-overflow report")
	}
	if s := eng.Stats(); s.DedupOverflows != 1 || s.Executions != 0 {
		t.Fatalf("overflows %d, executions %d; want 1 and 0", s.DedupOverflows, s.Executions)
	}
}

// A group promoted from the DR store keeps the source domain's eviction
// marks: the checkpoint window ships with its horizons, so a retry whose
// record the cap evicted is refused on the standby as it would have been at
// the source, not executed a second time.
func TestPromotedReplicaRefusesEvictedRetry(t *testing.T) {
	store := drstore.NewMemStore()
	src := newCluster(t, 1, func(cfg *Config) { cfg.DR = store })
	// A checkpoint every other operation, so one ships after the eviction.
	def := GroupDef{ID: 44, Name: "overflow", Style: Active, CheckpointEvery: 2}
	src.host(def, "n1")
	r := src.engines["n1"].replicaFor(44)
	st, _ := src.engines["n1"].GroupStatus(44)
	id := st.LastExec + 1

	victim := opKey{ClientID: "c:victim", OpSeq: 1}
	r.q.Push(task{msgID: id, m: addInvocation(44, victim, 1)})
	others := dedupRetain + 1
	for i := 0; i < others; i++ {
		k := opKey{ClientID: fmt.Sprintf("c:other%d", i%4), OpSeq: uint64(i/4 + 1)}
		r.q.Push(task{msgID: id + 1 + uint64(i), m: addInvocation(44, k, 0)})
	}
	last := id + uint64(others)
	var snap drstore.Snapshot
	waitFor(t, 10*time.Second, "a checkpoint of the last operation shipped", func() bool {
		snap, _, _ = store.Snapshot(44)
		return snap.Checkpoint != nil && snap.Checkpoint.UpToMsgID == last
	})
	if keyStateAt(src.engines["n1"], 44, victim) != keyEvicted {
		t.Fatal("the victim's record was not evicted at the source")
	}

	// Promote the way core.Standby does: install the shipped checkpoint,
	// replay the updates after it, host with the window and the replayed
	// invocations.
	standby := &account{}
	if err := standby.SetState(snap.Checkpoint.State); err != nil {
		t.Fatal(err)
	}
	var replayed []wal.Record
	for _, rec := range snap.Updates {
		if isInv, applied := ApplyRecord(def, standby, rec); isInv && applied {
			replayed = append(replayed, rec)
		}
	}
	state, _ := standby.GetState()
	dst := newCluster(t, 1)
	eng := dst.engines["n1"]
	if err := eng.HostRecoveredReplica(def, standby, state, snap.Checkpoint.Covered, replayed); err != nil {
		t.Fatal(err)
	}
	dst.waitMembers(44, []string{"n1"})
	balance, ops := standby.snapshot()

	pc, err := eng.registerCall(victim, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.replicaFor(44).q.Push(task{msgID: 1 << 20, m: addInvocation(44, victim, 1)})
	select {
	case rep := <-pc.ch:
		_, err := wireToOutcome(rep.Status, rep.Body)
		var sys giop.SystemException
		if !errors.As(err, &sys) || sys.RepoID != giop.ExcTimeout {
			t.Fatalf("retry on the promoted replica: %v, want a TIMEOUT system exception", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to the retry on the promoted replica")
	}
	if b, o := standby.snapshot(); b != balance || o != ops {
		t.Fatalf("promoted state (balance %d, ops %d) after the retry, want (%d, %d): the evicted operation ran again", b, o, balance, ops)
	}
}

// recordsOf counts a replica's live records of one client.
func recordsOf(e *Engine, gid uint64, client string) int {
	r := e.replicaFor(gid)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k := range r.dedup.recs {
		if k.ClientID == client {
			n++
		}
	}
	return n
}

// keyStateAt reads what a replica's table says about k.
func keyStateAt(e *Engine, gid uint64, k opKey) keyState {
	r := e.replicaFor(gid)
	r.mu.Lock()
	defer r.mu.Unlock()
	_, st := r.dedup.lookup(k)
	return st
}

// A closed-loop client's records retire as it goes: each replica holds at
// most the newest one or two, not a 4096-deep history. The 10k-operation
// run uses a one-node ring, where a call costs microseconds; the
// three-replica run checks that every replica retires alike.
func TestClosedLoopClientRecordsRetire(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		hosts []string
		ops   int
	}{
		{"one replica, 10k ops", 1, []string{"n1"}, 10000},
		{"three replicas", 4, []string{"n1", "n2", "n3"}, 300},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.nodes)
			gid := uint64(43 + 100*i)
			c.host(GroupDef{ID: gid, Name: "loop", Style: Active}, tc.hosts...)
			client := c.engines[c.nodes[tc.nodes-1]]
			proxy := client.Proxy(GroupRef{ID: gid})
			for op := 0; op < tc.ops; op++ {
				if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
					t.Fatalf("add %d: %v", op, err)
				}
			}
			waitFor(t, 5*time.Second, "every replica at the last op", func() bool {
				for _, n := range tc.hosts {
					if bal, _ := c.servants[n][gid].snapshot(); bal != int64(tc.ops) {
						return false
					}
				}
				return true
			})
			for _, n := range tc.hosts {
				if got := recordsOf(c.engines[n], gid, client.clientID); got > 2 {
					t.Errorf("%s holds %d of the client's records, want ≤ 2", n, got)
				}
				if s := c.engines[n].Stats(); s.DedupRetired < uint64(tc.ops-2) || s.DedupRecords > 2 {
					t.Errorf("%s: %d records retired, %d live; want ≥ %d and ≤ 2", n, s.DedupRetired, s.DedupRecords, tc.ops-2)
				}
			}
		})
	}
}

// An ACTIVE replica's duplicate reply delivered after the carrier that
// retired its key must not re-create the record.
func TestLateDuplicateReplyLeavesNoRecord(t *testing.T) {
	c := newCluster(t, 3)
	def := GroupDef{ID: 44, Name: "late", Style: Active}
	c.host(def, "n1", "n2")
	client := c.engines["n3"]
	proxy := client.Proxy(GroupRef{ID: 44})
	for i := 0; i < 2; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
			t.Fatal(err)
		}
	}
	first := opKey{ClientID: client.clientID, OpSeq: 1}
	waitFor(t, 5*time.Second, "first key retired", func() bool {
		return keyStateAt(c.engines["n1"], 44, first) == keyRetired
	})
	r := c.engines["n1"].replicaFor(44)
	r.markAnswered(&msgReply{GroupID: 44, Key: first, Status: replyOK, Node: "n2"})
	if st := keyStateAt(c.engines["n1"], 44, first); st != keyRetired {
		t.Fatalf("after a late reply the key reads as state %d, want keyRetired", st)
	}
	if got := recordsOf(c.engines["n1"], 44, client.clientID); got != 1 {
		t.Fatalf("n1 holds %d of the client's records, want only the newest", got)
	}
}

// A cold-passive backup never executed the operations its log holds, so a
// failover after their records retired must still replay them: the
// balance survives the primary's crash.
func TestColdFailoverReplaysRetiredOperations(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 45, Name: "cold", Style: ColdPassive, CheckpointEvery: 1000}
	c.host(def, "n1", "n2", "n3")
	proxy := c.engines["n4"].Proxy(GroupRef{ID: 45})
	var want int64
	for i := 1; i <= 8; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(int32(i))); err != nil {
			t.Fatal(err)
		}
		want += int64(i)
	}
	waitFor(t, 5*time.Second, "backup retired the finished operations", func() bool {
		return c.engines["n2"].Stats().DedupRetired >= 7
	})

	c.fabric.CrashNode("n1")
	c.engines["n1"].Stop()
	c.rings["n1"].Stop()

	out, err := proxy.Invoke("get")
	if err != nil {
		t.Fatalf("post-failover get: %v", err)
	}
	if got := out[0].AsLongLong(); got != want {
		t.Fatalf("balance after cold failover %d, want %d", got, want)
	}
}

// A direct-lane submit is unordered: a copy of a finished operation that
// reaches the leader after the carrier retired its key must be dropped,
// not executed again.
func TestLFLateDirectSubmitOfRetiredKey(t *testing.T) {
	c := newCluster(t, 4)
	c.host(lfDef(46), "n1", "n2", "n3")
	client := c.engines["n4"]
	proxy := client.Proxy(GroupRef{ID: 46}, WithLFFastPath("get"))
	for i := 0; i < 2; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
			t.Fatal(err)
		}
	}
	first := opKey{ClientID: client.clientID, OpSeq: 1}
	waitFor(t, 5*time.Second, "first key retired at the leader", func() bool {
		return keyStateAt(c.engines["n1"], 46, first) == keyRetired
	})
	payload, err := encodeWire(&msgLfSubmit{
		GroupID: 46, Key: first, Operation: "add",
		Args: orb.EncodeRequestBody([]cdr.Value{cdr.Long(1)}), From: "n4",
	})
	if err != nil {
		t.Fatal(err)
	}
	c.engines["n1"].onDirect("n4", invGroupName(46), payload)
	out, err := proxy.Invoke("add", cdr.Long(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].AsLongLong(); got != 3 {
		t.Fatalf("third add returned %d, want 3: the late submit ran again", got)
	}
}

// A joiner adopting a checkpoint inherits the sender's horizons, and so
// holds none of the records they retired.
func TestJoinerInheritsHorizons(t *testing.T) {
	c := newCluster(t, 3)
	def := GroupDef{ID: 47, Name: "join", Style: Active}
	c.host(def, "n1", "n2")
	client := c.engines["n3"]
	proxy := client.Proxy(GroupRef{ID: 47})
	for i := 0; i < 5; i++ {
		if _, err := proxy.Invoke("add", cdr.Long(1)); err != nil {
			t.Fatal(err)
		}
	}
	late := &account{}
	c.servants["n3"][47] = late
	if err := c.engines["n3"].HostReplica(def, late, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "joiner synced", func() bool {
		st, ok := c.engines["n3"].GroupStatus(47)
		bal, _ := late.snapshot()
		return ok && !st.Syncing && bal == 5
	})
	horizonAt := func(node string) (retired uint64) {
		r := c.engines[node].replicaFor(47)
		r.mu.Lock()
		defer r.mu.Unlock()
		if tr := r.dedup.clients[client.clientID]; tr != nil {
			retired = tr.retired
		}
		return retired
	}
	if got, want := horizonAt("n3"), horizonAt("n1"); got != want || want != 4 {
		t.Fatalf("joiner's horizon %d, sender's %d; want both 4", got, want)
	}
	if st := keyStateAt(c.engines["n3"], 47, opKey{ClientID: client.clientID, OpSeq: 2}); st != keyRetired {
		t.Fatalf("a retired key reads as state %d at the joiner, want keyRetired", st)
	}
}

// The low-water mark never passes an open operation and reaches the last
// issued one once every call has returned, with callers opening and
// closing concurrently.
func TestOpenOpsLowWaterMark(t *testing.T) {
	o := newOpenOps()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq := o.open()
				if mark := o.done(); mark >= seq {
					t.Errorf("mark %d passed the open operation %d", mark, seq)
				}
				o.close(seq)
			}
		}()
	}
	wg.Wait()
	if got := o.done(); got != workers*perWorker {
		t.Fatalf("mark %d after every call returned, want %d", got, workers*perWorker)
	}

	// More open at once than the ring's first 64 slots, closed newest
	// first: the mark holds until the oldest closes.
	base := o.done()
	seqs := make([]uint64, 300)
	for i := range seqs {
		seqs[i] = o.open()
	}
	for i := len(seqs) - 1; i > 0; i-- {
		o.close(seqs[i])
		if got := o.done(); got != base {
			t.Fatalf("mark %d with operation %d still open, want %d", got, seqs[0], base)
		}
	}
	o.close(seqs[0])
	if got, want := o.done(), base+uint64(len(seqs)); got != want {
		t.Fatalf("mark %d after the oldest closed, want %d", got, want)
	}
}
