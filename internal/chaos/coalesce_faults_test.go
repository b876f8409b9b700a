package chaos

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replication"
	"repro/internal/totem"
)

// TestBatchFrameDrop drops entire coalesced dataBatch frames on the wire —
// every message in the frame vanishes at once — and verifies per-seq
// retransmission recovers them: all members converge and deliver
// identically, and no acked operation is lost or doubled.
func TestBatchFrameDrop(t *testing.T) {
	h := New(t, Options{Style: replication.Active, Seed: 11})
	var dropped atomic.Int64
	h.Fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		if totem.Classify(payload) == totem.ClassDataBatch && dropped.Load() < 8 {
			dropped.Add(1)
			return true
		}
		return false
	})
	h.drive(6)
	h.Fabric.SetDropFilter(nil)
	h.drive(3)
	if dropped.Load() == 0 {
		t.Fatal("no dataBatch frames observed on the wire; coalescing inactive?")
	}
	h.CheckAll()
	h.CheckGoroutines()
}

// TestTokenHolderCrash kills the token at its holder: a drop filter eats
// the next token the victim sends (so the token dies in its hands), then
// the victim crash-stops. The survivors must reform the ring, recover every
// ordered-but-undelivered message, and keep serving; the victim then
// rejoins and converges.
func TestTokenHolderCrash(t *testing.T) {
	h := New(t, Options{Style: replication.Active, Seed: 12})
	victim := h.Nodes[1]
	holding := make(chan struct{})
	var fired atomic.Bool
	h.Fabric.SetDropFilter(func(from, to string, port uint16, payload []byte) bool {
		if from == victim && totem.Classify(payload) == totem.ClassToken {
			if fired.CompareAndSwap(false, true) {
				close(holding)
			}
			return true // the victim holds the token; it never leaves
		}
		return false
	})
	h.Invoke(1)
	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never held the token")
	}
	h.Crash(victim)
	h.Fabric.SetDropFilter(nil)
	h.WaitMembers(h.LiveReplicas())
	h.drive(4)
	h.Restart(victim)
	h.WaitMembers(h.Nodes)
	h.drive(3)
	h.CheckAll()
	h.CheckGoroutines()
}
