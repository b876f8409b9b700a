package totem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// startSolo starts a one-node ring with deliver as its consumer's Deliver
// and waits until the ring is installed.
func startSolo(t *testing.T, deliver func(Delivery)) *Ring {
	t.Helper()
	fabric := netsim.NewFabric(netsim.Config{})
	fabric.AddNode("solo")
	r, err := NewRing(fabric, Config{
		Node: "solo", Universe: []string{"solo"}, Port: 4000,
		HeartbeatInterval: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start(Consumer{Deliver: deliver})
	t.Cleanup(r.Stop)
	waitFor(t, 5*time.Second, "solo ring installed", func() bool {
		_, m := r.CurrentRing()
		return len(m) == 1
	})
	return r
}

// recorder keeps every entry of an ordered stream, in order.
type recorder struct {
	mu      sync.Mutex
	entries []Delivery
}

func (rec *recorder) add(d Delivery) {
	rec.mu.Lock()
	rec.entries = append(rec.entries, d)
	rec.mu.Unlock()
}

func (rec *recorder) snapshot() []Delivery {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]Delivery(nil), rec.entries...)
}

// The consumer sees views and deliveries in the protocol's one order: the
// ring's view, then the join's group view, then the messages in sequence
// order, each handed over before Stats counts the next.
func TestStreamMixesViewsAndDeliveriesInOrder(t *testing.T) {
	rec := &recorder{}
	r := startSolo(t, rec.add)
	if err := r.JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	const msgs = 3
	for i := 0; i < msgs; i++ {
		if err := r.Multicast("g", []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "deliveries", func() bool { return r.Stats().Delivered >= 1+msgs })

	view, group, first := -1, -1, -1
	var payloads [][]byte
	lastSeq := uint64(0)
	entries := rec.snapshot()
	for i, d := range entries {
		switch v := d.Event.(type) {
		case ViewChange:
			if view < 0 {
				view = i
			}
		case GroupView:
			if v.Group == "g" && group < 0 {
				group = i
			}
		case nil:
			if first < 0 {
				first = i
			}
			if d.Seq <= lastSeq {
				t.Fatalf("delivery seq %d after %d", d.Seq, lastSeq)
			}
			lastSeq = d.Seq
			payloads = append(payloads, d.Payload)
		}
	}
	if view < 0 || group < 0 || first < 0 {
		t.Fatalf("stream of %d lacks a ViewChange, GroupView or Deliver (indexes %d, %d, %d)", len(entries), view, group, first)
	}
	if !(view < group && group < first) {
		t.Fatalf("stream order: ViewChange at %d, GroupView at %d, first Deliver at %d", view, group, first)
	}
	if len(payloads) != msgs {
		t.Fatalf("stream holds %d deliveries, want %d", len(payloads), msgs)
	}
	for i, p := range payloads {
		if !bytes.Equal(p, []byte(fmt.Sprint(i))) {
			t.Fatalf("delivery %d carries %q", i, p)
		}
	}
}

// Stop waits for the protocol loop, so once it returns the consumer is
// never called again.
func TestStreamEndsAtStop(t *testing.T) {
	rec := &recorder{}
	r := startSolo(t, rec.add)
	if err := r.JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := r.Multicast("g", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	r.Stop()
	n := len(rec.snapshot())
	if err := r.Multicast("g", []byte("late")); err != ErrStopped {
		t.Fatalf("Multicast after Stop: %v, want ErrStopped", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := len(rec.snapshot()); got != n {
		t.Fatalf("consumer called %d more times after Stop returned", got-n)
	}
}

// A direct packet reaches the addressee's Consumer.Direct through its
// protocol loop; one addressed to this node is handed over before
// SendDirect returns.
func TestDirectReachesConsumer(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{})
	nodes := []string{"n1", "n2"}
	type got struct{ from, group, payload string }
	ch := map[string]chan got{}
	for _, n := range nodes {
		fabric.AddNode(n)
		ch[n] = make(chan got, 4)
	}
	rings := map[string]*Ring{}
	for _, n := range nodes {
		r, err := NewRing(fabric, testConfig(n, nodes))
		if err != nil {
			t.Fatal(err)
		}
		out := ch[n]
		r.Start(Consumer{Direct: func(from, group string, payload []byte) {
			out <- got{from, group, string(payload)}
		}})
		t.Cleanup(r.Stop)
		rings[n] = r
	}
	if err := rings["n1"].SendDirect("n1", "g", []byte("self")); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-ch["n1"]:
		if g != (got{"n1", "g", "self"}) {
			t.Fatalf("loopback direct = %+v", g)
		}
	default:
		t.Fatal("loopback direct not handed over before SendDirect returned")
	}
	if err := rings["n1"].SendDirect("n2", "g", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-ch["n2"]:
		if g != (got{"n1", "g", "hi"}) {
			t.Fatalf("direct at n2 = %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("direct packet never reached n2's consumer")
	}
}
