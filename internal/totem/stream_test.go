package totem

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
)

// startSolo starts a one-node ring with no consumer on its stream and
// waits until the ring is installed.
func startSolo(t *testing.T) *Ring {
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
	r.Start()
	t.Cleanup(r.Stop)
	waitFor(t, 5*time.Second, "solo ring installed", func() bool {
		_, m := r.CurrentRing()
		return len(m) == 1
	})
	return r
}

// multicastAndWait multicasts n payloads to group and waits until the ring
// has delivered want messages in all (membership control included).
func multicastAndWait(t *testing.T, r *Ring, group string, n int, want uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Multicast(group, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "deliveries", func() bool { return r.Stats().Delivered >= want })
}

// One drained batch that mixes a ViewChange, a GroupView and message
// deliveries keeps the protocol's order: the view, then the join's group
// view, then the messages in sequence order.
func TestStreamBatchMixesViewsAndDeliveriesInOrder(t *testing.T) {
	r := startSolo(t)
	if err := r.JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	const msgs = 3
	multicastAndWait(t, r, "g", msgs, 1+msgs) // the join, then the messages

	batch, closed := r.Drain(nil)
	if closed {
		t.Fatal("running ring's stream reported closed")
	}
	view, group, first := -1, -1, -1
	var payloads [][]byte
	lastSeq := uint64(0)
	for i, d := range batch {
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
		t.Fatalf("batch of %d lacks a ViewChange, GroupView or Deliver (indexes %d, %d, %d)", len(batch), view, group, first)
	}
	if !(view < group && group < first) {
		t.Fatalf("batch order: ViewChange at %d, GroupView at %d, first Deliver at %d", view, group, first)
	}
	if len(payloads) != msgs {
		t.Fatalf("batch holds %d deliveries, want %d", len(payloads), msgs)
	}
	for i, p := range payloads {
		if !bytes.Equal(p, []byte(fmt.Sprint(i))) {
			t.Fatalf("delivery %d carries %q", i, p)
		}
	}
}

// The queue high-water mark in Stats stays low while the consumer keeps
// up, and rises to the backlog once it stops draining.
func TestQueueHighWaterRisesWhenConsumerStalls(t *testing.T) {
	r := startSolo(t)
	if err := r.JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	multicastAndWait(t, r, "g", 1, 2)
	batch, _ := r.Drain(nil)
	low := r.Stats().QueueHighWater
	if low != uint64(len(batch)) {
		t.Fatalf("high-water %d after draining a batch of %d", low, len(batch))
	}

	const backlog = 50
	multicastAndWait(t, r, "g", backlog, 2+backlog)
	batch, _ = r.Drain(batch)
	if len(batch) != backlog {
		t.Fatalf("stalled consumer drained %d entries, want %d", len(batch), backlog)
	}
	if got := r.Stats().QueueHighWater; got != backlog || got <= low {
		t.Fatalf("high-water %d after a stalled backlog of %d (was %d)", got, backlog, low)
	}
	if got := AggregateStats([]*Ring{r}).QueueHighWater; got != backlog {
		t.Fatalf("aggregate high-water %d, want %d", got, backlog)
	}
}

// A consumer parked on Ready wakes when the ring delivers and when the
// ring stops; the stop closes the stream after what was still queued.
func TestStreamReadyWakesOnDeliveryAndStop(t *testing.T) {
	r := startSolo(t)
	if err := r.JoinGroup("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "join delivered", func() bool { return r.Stats().Delivered >= 1 })
	r.Drain(nil) // the formation view and the join

	woke := make(chan struct{})
	result := make(chan int, 1) // deliveries seen before the stream closed
	go func() {
		delivered := 0
		var b []Delivery
		for {
			var closed bool
			b, closed = r.Drain(b)
			for _, d := range b {
				if d.Event == nil {
					delivered++
					if delivered == 1 {
						close(woke)
					}
				}
			}
			if closed {
				result <- delivered
				return
			}
			if len(b) == 0 {
				<-r.Ready()
			}
		}
	}()
	if err := r.Multicast("g", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woke for a delivery")
	}
	r.Stop()
	select {
	case n := <-result:
		if n != 1 {
			t.Fatalf("consumer saw %d deliveries before close, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woke for Stop")
	}
}
