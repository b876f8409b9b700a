package replication

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cdr"
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

// runRingLoops counts goroutines currently inside Engine.runRing.
func runRingLoops() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "replication.(*Engine).runRing(")
}

// Engine.Stop ends the engine's delivery loop while its ring keeps
// running: the loop parks on the ring's Ready or Stop, not on the stream
// closing. The ring stays usable, its stream now free for another consumer.
func TestEngineStopWhileRingRuns(t *testing.T) {
	before := runRingLoops()
	c := newCluster(t, 1)
	c.host(GroupDef{ID: 21, Name: "stop", Style: Active}, "n1")
	eng, ring := c.engines["n1"], c.rings["n1"]
	if _, err := eng.Proxy(GroupRef{ID: 21}).Invoke("add", cdr.Long(1)); err != nil {
		t.Fatal(err)
	}
	if got := runRingLoops(); got != before+1 {
		t.Fatalf("%d runRing loops with one engine running, want %d", got, before+1)
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
	if got := runRingLoops(); got != before {
		t.Fatalf("%d runRing loops after Stop, want %d (leaked loop)", got, before)
	}

	if err := ring.JoinGroup("probe"); err != nil {
		t.Fatal(err)
	}
	if err := ring.Multicast("probe", []byte("after-stop")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var batch []totem.Delivery
	for {
		var closed bool
		batch, closed = ring.Drain(batch)
		for _, d := range batch {
			if d.Event == nil && d.Group == "probe" {
				return
			}
		}
		if closed || time.Now().After(deadline) {
			t.Fatal("ring stopped delivering after Engine.Stop")
		}
		if len(batch) == 0 {
			select {
			case <-ring.Ready():
			case <-time.After(time.Until(deadline)):
			}
		}
	}
}
