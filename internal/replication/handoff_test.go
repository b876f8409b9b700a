package replication

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/totem"
)

// pop after close hands out every task queued before the close, in order,
// then reports false — even with stop already closed.
func TestTaskQueuePopAfterCloseDrainsThenFails(t *testing.T) {
	q := newTaskQueue()
	stop := make(chan struct{})
	inv := &msgInvocation{GroupID: 1}
	rep := &msgReply{GroupID: 1}
	q.Push(task{msgID: 1, m: inv})
	q.Push(task{msgID: 2, m: rep})
	q.Push(task{m: &taskView{members: []string{"n1"}, epoch: 3}})
	q.Close()
	close(stop)
	q.Push(task{msgID: 4, m: inv}) // dropped: the queue is closed
	for i, want := range []task{{msgID: 1, m: inv}, {msgID: 2, m: rep}} {
		got, ok := q.pop(stop)
		if !ok || got != want {
			t.Fatalf("pop %d = %+v, %v; want %+v, true", i, got, ok, want)
		}
	}
	got, ok := q.pop(stop)
	if v, isView := got.m.(*taskView); !ok || !isView || v.epoch != 3 {
		t.Fatalf("pop 2 = %+v, %v; want the view", got, ok)
	}
	if got, ok := q.pop(stop); ok {
		t.Fatalf("pop on a drained closed queue = %+v, true", got)
	}
}

// pop parks on an empty open queue until a push, or until stop closes.
func TestTaskQueuePopWakesOnPushAndStop(t *testing.T) {
	q := newTaskQueue()
	stop := make(chan struct{})
	got := make(chan bool, 2)
	go func() {
		_, ok := q.pop(stop)
		got <- ok
		_, ok = q.pop(stop)
		got <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(task{m: taskLfUnblock{}})
	for i, want := range []bool{true, false} {
		if i == 1 {
			close(stop)
		}
		select {
		case ok := <-got:
			if ok != want {
				t.Fatalf("pop %d reported %v, want %v", i, ok, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pop %d never returned", i)
		}
	}
}

// goroutineFrames counts the goroutines whose stacks contain frame.
func goroutineFrames(frame string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), frame)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Engine.Stop leaves its rings running and delivering: the engine is their
// consumer, not their owner. A delivery the ring hands to the stopped
// engine — ordered or direct, message or view — is dropped: it reaches no
// replica, no pending call and no fault subscriber.
func TestEngineStopWhileRingRuns(t *testing.T) {
	faults := &fault.Notifier{}
	c := newCluster(t, 1, func(cfg *Config) { cfg.Notifier = faults })
	c.host(GroupDef{ID: 21, Name: "stop", Style: Active}, "n1")
	eng, ring := c.engines["n1"], c.rings["n1"]
	if _, err := eng.Proxy(GroupRef{ID: 21}).Invoke("add", cdr.Long(1)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		eng.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Engine.Stop did not return while the ring runs")
	}

	before := ring.Stats().Delivered
	if err := ring.JoinGroup("probe"); err != nil {
		t.Fatal(err)
	}
	if err := ring.Multicast("probe", []byte("after-stop")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the ring delivering after Engine.Stop", func() bool {
		return ring.Stats().Delivered >= before+2
	})

	reports, cancel := faults.Subscribe(nil)
	defer cancel()
	stats := eng.Stats()
	reply, _ := encodeReply(&msgReply{GroupID: 21, Key: opKey{ClientID: "late", OpSeq: 1}, Node: "n1"})
	deliver := eng.deliverer(0)
	deliver(totem.Delivery{Deliver: totem.Deliver{MsgID: 1 << 50, Group: invGroupName(21) + "/r", Payload: reply}})
	deliver(totem.Delivery{Event: totem.ViewChange{Members: []string{"n9"}}})
	eng.onDirect("n1", invGroupName(21)+"/r", reply)
	if got := eng.Stats(); got != stats {
		t.Fatalf("late deliveries changed the stopped engine's stats:\n before %+v\n after  %+v", stats, got)
	}
	select {
	case r := <-reports:
		t.Fatalf("stopped engine reported %v", r)
	default:
	}
}

// A node runs one goroutine per ring, its protocol loop, between the
// network and the executors: the loop routes deliveries itself.
func TestNodeRunsOneLoopPerRing(t *testing.T) {
	const loop = "totem.(*Ring).run("
	before := goroutineFrames(loop)
	fabric := netsim.NewFabric(netsim.Config{})
	fabric.AddNode("n1")
	rings, err := totem.NewRingPool(fabric, totem.Config{
		Node: "n1", Universe: []string{"n1"}, Port: 4000,
		HeartbeatInterval: 4 * time.Millisecond,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer totem.StopPool(rings)
	eng, err := NewEngine(Config{Node: "n1", Rings: rings})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	if err := eng.HostReplica(GroupDef{ID: 22, Name: "loops", Style: Active}, &account{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Proxy(GroupRef{ID: 22}).Invoke("add", cdr.Long(1)); err != nil {
		t.Fatal(err)
	}
	if got := goroutineFrames(loop); got != before+len(rings) {
		t.Fatalf("%d protocol loops for %d rings", got-before, len(rings))
	}
	for _, gone := range []string{"runRing", "runDirect"} {
		if n := goroutineFrames(gone); n != 0 {
			t.Fatalf("%d goroutines in a %s frame", n, gone)
		}
	}
}

// hangServant blocks every dispatch until release closes, announcing each
// on entered first.
type hangServant struct {
	entered chan struct{}
	release chan struct{}
}

func (h *hangServant) RepoID() string { return "IDL:repro/Hang:1.0" }

func (h *hangServant) Dispatch(*orb.Invocation) ([]cdr.Value, error) {
	h.entered <- struct{}{}
	<-h.release
	return nil, nil
}

// The ring hands deliveries over on the goroutine that holds the token, so
// routing must never wait on an executor. With group A's servant stuck on
// every member for several token timeouts, group B on the same ring keeps
// completing calls, and no member's token times out into a re-formation.
func TestSlowServantDoesNotStallRing(t *testing.T) {
	c := newCluster(t, 3)
	hang := &hangServant{entered: make(chan struct{}, len(c.nodes)), release: make(chan struct{})}
	defer func() {
		select {
		case <-hang.release:
		default:
			close(hang.release)
		}
	}()
	slow := GroupDef{ID: 23, Name: "slow", Style: Active}
	for _, n := range c.nodes {
		if err := c.engines[n].HostReplica(slow, hang, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(slow.ID, c.nodes)
	c.host(GroupDef{ID: 24, Name: "fast", Style: Active}, c.nodes...)

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.engines["n1"].Proxy(GroupRef{ID: slow.ID}).Invoke("wait")
		slowDone <- err
	}()
	for range c.nodes {
		select {
		case <-hang.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the slow servant never started on every member")
		}
	}

	forms := map[string]uint64{}
	for n, r := range c.rings {
		forms[n] = r.Stats().Formations
	}
	// 12 heartbeats without a token visit re-form the ring; hold the slow
	// servants for five times that.
	const tokenTimeout = 12 * 4 * time.Millisecond
	fast := c.engines["n1"].Proxy(GroupRef{ID: 24})
	calls := 0
	for start := time.Now(); time.Since(start) < 5*tokenTimeout; calls++ {
		if _, err := fast.Invoke("add", cdr.Long(1)); err != nil {
			t.Fatalf("group B call %d while group A hangs: %v", calls, err)
		}
	}
	for n, r := range c.rings {
		if got := r.Stats().Formations; got != forms[n] {
			t.Fatalf("%s re-formed its ring %d times while a servant hung (%d calls done)", n, got-forms[n], calls)
		}
	}
	close(hang.release)
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatalf("the slow call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the slow call never completed after release")
	}
}

// A GroupView reaches the replica hosted under its invocation group now:
// after RemoveReplica and re-hosting the same group, the view goes to the
// live replica, not the removed one, and to no other group's.
func TestGroupViewReachesOnlyLiveReplica(t *testing.T) {
	c := newCluster(t, 1)
	def := GroupDef{ID: 25, Name: "rehost", Style: Active}
	c.host(def, "n1")
	c.host(GroupDef{ID: 26, Name: "other", Style: Active}, "n1")
	eng := c.engines["n1"]
	removed := eng.replicaFor(def.ID)
	eng.RemoveReplica(def.ID)
	c.host(def, "n1")
	live := eng.replicaFor(def.ID)
	if live == removed {
		t.Fatal("re-hosting reused the removed replica")
	}

	view := []string{"n1", "ghost"}
	rid, _ := c.rings["n1"].CurrentRing()
	eng.deliverer(0)(totem.Delivery{Event: totem.GroupView{Ring: rid, Group: invGroupName(def.ID), Members: view}})
	waitFor(t, 5*time.Second, "the live replica taking the view", func() bool {
		return equalStrings(live.status().Members, view)
	})
	if got := removed.status().Members; equalStrings(got, view) {
		t.Fatalf("the removed replica took the view: %v", got)
	}
	if st, _ := eng.GroupStatus(26); !equalStrings(st.Members, []string{"n1"}) {
		t.Fatalf("another group took the view: %v", st.Members)
	}
}
