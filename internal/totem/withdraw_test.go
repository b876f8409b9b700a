package totem

import (
	"fmt"
	"testing"
	"time"
)

// queued returns the payloads waiting in r's send queue, in order.
func queued(r *Ring) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.sendQ))
	for i, om := range r.sendQ {
		out[i] = om.group + ":" + string(om.payload)
	}
	return out
}

func mustMulticastOnce(t *testing.T, r *Ring, group, payload string, keyLen int) {
	t.Helper()
	if err := r.MulticastOnce(group, []byte(payload), keyLen); err != nil {
		t.Fatal(err)
	}
}

// TestWithdrawOnAnotherSendersDelivery queues withdrawable and plain
// messages at n2 and delivers messages from other senders and from n2
// itself: only a keyed entry whose group and key bytes match another
// sender's delivered message leaves the queue.
func TestWithdrawOnAnotherSendersDelivery(t *testing.T) {
	r, _ := bareRing(t)
	mustMulticastOnce(t, r, "g", "KEY1/from-n2", 4) // matched by n1's KEY1 in g
	mustMulticastOnce(t, r, "g", "KEY2/from-n2", 4) // other key
	mustMulticastOnce(t, r, "h", "KEY1/from-n2", 4) // other group
	mustMulticastOnce(t, r, "g", "KEY1/plain", 0)   // unkeyed
	mustMulticastOnce(t, r, "g", "KEY3/from-n2", 4) // matched only by n2's own KEY3

	deliver := []*dataBatch{
		retransmission(r.ring, 1, "g", "n2", "KEY3/own"),
		retransmission(r.ring, 2, "g", "n3", "KEY"), // shorter than the key
		retransmission(r.ring, 3, "g", "n3", "KEY4/other"),
		retransmission(r.ring, 4, "g", "n1", "KEY1/from-n1"),
	}
	for _, d := range deliver {
		r.handleDataBatch(d)
	}
	if r.delivered != uint64(len(deliver)) {
		t.Fatalf("delivered %d, want %d", r.delivered, len(deliver))
	}
	want := []string{"g:KEY2/from-n2", "h:KEY1/from-n2", "g:KEY1/plain", "g:KEY3/from-n2"}
	if got := queued(r); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("queue after deliveries = %q, want %q", got, want)
	}
	if w := r.Stats().Withdrawn; w != 1 {
		t.Fatalf("Stats.Withdrawn = %d, want 1", w)
	}
	if k := r.keyed.Load(); k != 3 {
		t.Fatalf("keyed count %d, want 3", k)
	}

	// The token takes what is left; the keyed count follows it out.
	r.handleToken(&token{Ring: r.ring, Round: 1, Seq: r.delivered, Aru: r.delivered}, time.Now())
	if got := queued(r); len(got) != 0 {
		t.Fatalf("queue after a token visit = %q, want empty", got)
	}
	if k := r.keyed.Load(); k != 0 {
		t.Fatalf("keyed count %d after the token took every entry, want 0", k)
	}
	if s := r.Stats().Sent; s != 4 {
		t.Fatalf("Stats.Sent = %d, want 4", s)
	}
}

// TestWithdrawDuringEVSRecovery delivers the matching message from the old
// ring's recovery set while a new ring installs: recovery deliveries
// withdraw like steady-state ones.
func TestWithdrawDuringEVSRecovery(t *testing.T) {
	r, _ := bareRing(t)
	mustMulticastOnce(t, r, "g", "KEY1/from-n2", 4)
	mustMulticastOnce(t, r, "g", "KEY2/from-n2", 4)
	r.handleInstall(&install{
		Ring:    RingID{Epoch: r.ring.Epoch + 1, Coord: "n1"},
		Members: []string{"n1", "n2", "n3"},
		Recovery: []recoverySet{{OldRing: r.ring, Msgs: []storedMsg{
			{Seq: 1, Group: "g", Sender: "n3", Payload: []byte("KEY1/from-n3")},
		}}},
	}, time.Now())
	if got, want := queued(r), []string{"g:KEY2/from-n2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("queue after recovery = %q, want %q", got, want)
	}
	if w := r.Stats().Withdrawn; w != 1 {
		t.Fatalf("Stats.Withdrawn = %d, want 1", w)
	}
}

// TestWithdrawReleasesBlockedMulticast fills the send queue to its bound:
// a withdrawal shrinks it, which must wake a Multicast blocked on
// backpressure.
func TestWithdrawReleasesBlockedMulticast(t *testing.T) {
	r, _ := bareRing(t)
	mustMulticastOnce(t, r, "g", "KEY1/from-n2", 4)
	for i := 1; i < maxSendQueue; i++ {
		mustMulticastOnce(t, r, "g", "filler", 0)
	}
	done := make(chan error, 1)
	go func() { done <- r.Multicast("g", []byte("blocked")) }()
	select {
	case err := <-done:
		t.Fatalf("Multicast on a full queue returned (%v) instead of blocking", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.handleDataBatch(retransmission(r.ring, 1, "g", "n1", "KEY1/from-n1"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a withdrawal shrank the full queue but the blocked Multicast stayed blocked")
	}
	if w := r.Stats().Withdrawn; w != 1 {
		t.Fatalf("Stats.Withdrawn = %d, want 1", w)
	}
}
