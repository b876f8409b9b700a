package totem

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestDataBatchRoundTrip exercises the coalesced-frame codec: many
// sub-messages with mixed groups and sizes (including empty payloads) must
// survive an encode/decode cycle bit for bit.
func TestDataBatchRoundTrip(t *testing.T) {
	in := &dataBatch{
		Ring:     RingID{Epoch: 3, Coord: "n2"},
		Sender:   "n2",
		FirstSeq: 41,
		Groups:   []string{"g", "og/7", "", "g", "big"},
		Payloads: [][]byte{
			[]byte("alpha"),
			[]byte{0, 1, 2, 3, 255},
			nil,
			[]byte("delta"),
			bytes.Repeat([]byte{0xAB}, 8192),
		},
	}
	got, err := decodePacketIn(mustEncodePacket(t, in), false, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	out, ok := got.(*dataBatch)
	if !ok {
		t.Fatalf("decoded %T, want *dataBatch", got)
	}
	if out.Ring != in.Ring || out.Sender != in.Sender || out.FirstSeq != in.FirstSeq {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if len(out.Groups) != len(in.Groups) || len(out.Payloads) != len(in.Payloads) {
		t.Fatalf("count mismatch: %d/%d groups, %d/%d payloads",
			len(out.Groups), len(in.Groups), len(out.Payloads), len(in.Payloads))
	}
	for i := range in.Groups {
		if out.Groups[i] != in.Groups[i] {
			t.Errorf("group %d: %q vs %q", i, out.Groups[i], in.Groups[i])
		}
		if !bytes.Equal(out.Payloads[i], in.Payloads[i]) {
			t.Errorf("payload %d mismatch (%d vs %d bytes)", i, len(out.Payloads[i]), len(in.Payloads[i]))
		}
	}
}

// burstAndVerify fires bursts from every node without pacing (so sendQ
// batches build up and coalesced frames are emitted), waits for total
// delivery everywhere, and checks the per-node sequences are identical.
func burstAndVerify(t *testing.T, c *cluster, perNode int) {
	t.Helper()
	for _, n := range c.nodes {
		n := n
		go func() {
			for i := 0; i < perNode; i++ {
				c.rings[n].Multicast("g", []byte(fmt.Sprintf("%s-%d", n, i)))
			}
		}()
	}
	total := perNode * len(c.nodes)
	waitFor(t, 10*time.Second, "all deliveries", func() bool {
		for _, n := range c.nodes {
			if c.collect[n].deliverCount() < total {
				return false
			}
		}
		return true
	})
	ref := c.collect[c.nodes[0]].deliverSnapshot()[:total]
	for _, n := range c.nodes[1:] {
		got := c.collect[n].deliverSnapshot()[:total]
		for i := range ref {
			if got[i].MsgID != ref[i].MsgID || got[i].Seq != ref[i].Seq ||
				!bytes.Equal(got[i].Payload, ref[i].Payload) {
				t.Fatalf("%s diverges at %d: %+v vs %+v", n, i, got[i], ref[i])
			}
		}
	}
	// Every burst message must arrive exactly once per node, in strictly
	// increasing MsgID order. Raw seq contiguity is deliberately NOT
	// asserted: a loss-heavy run can reform the ring mid-burst, and the
	// group re-announcement control traffic on the new ring consumes
	// sequence numbers between app deliveries.
	for _, n := range c.nodes {
		ds := c.collect[n].deliverSnapshot()
		for i := 1; i < len(ds); i++ {
			if ds[i].MsgID <= ds[i-1].MsgID {
				t.Fatalf("%s: MsgID not increasing at %d: %d then %d", n, i, ds[i-1].MsgID, ds[i].MsgID)
			}
		}
		seen := make(map[string]int, len(ds))
		for _, d := range ds {
			seen[string(d.Payload)]++
		}
		for _, from := range c.nodes {
			for i := 0; i < perNode; i++ {
				key := fmt.Sprintf("%s-%d", from, i)
				if seen[key] != 1 {
					t.Fatalf("%s: delivered %q %d times", n, key, seen[key])
				}
			}
		}
	}
}

// TestCoalescedDeliveryOrder checks that bursty traffic — which the sender
// packs into multi-message frames — still delivers in one identical total
// order with contiguous sequence numbers at every node, and that coalesced
// frames were actually used.
func TestCoalescedDeliveryOrder(t *testing.T) {
	c := newCluster(t, netsim.Config{Latency: 50 * time.Microsecond}, 3)
	for _, n := range c.nodes {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)
	burstAndVerify(t, c, 80)

	var batches uint64
	for _, n := range c.nodes {
		batches += c.rings[n].Stats().Batches
	}
	if batches == 0 {
		t.Fatal("no coalesced frames emitted; bursts should batch")
	}
}

// TestCoalescedRetransmission drops a significant fraction of datagrams —
// including whole coalesced frames — and checks that every sub-message is
// recovered. Retransmissions are served per sequence number as single data
// packets from the message log, so losing one frame must never lose the
// batch.
func TestCoalescedRetransmission(t *testing.T) {
	c := newCluster(t, netsim.Config{Loss: 0.15, Seed: 7}, 3)
	for _, n := range c.nodes {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	c.startAll()
	c.waitStableRing(5*time.Second, c.nodes)
	burstAndVerify(t, c, 40)
}

// TestSingletonFastPath checks the ring-of-one shortcut: messages
// multicast on a singleton ring self-deliver in order without waiting for
// the heartbeat's keepalive visit, so a tight request/reply loop stays live.
func TestSingletonFastPath(t *testing.T) {
	c := newCluster(t, netsim.Config{}, 1)
	if err := c.rings["n1"].JoinGroup("solo"); err != nil {
		t.Fatal(err)
	}
	c.startAll()
	c.waitStableRing(3*time.Second, c.nodes)

	const rounds = 100
	for i := 0; i < rounds; i++ {
		if err := c.rings["n1"].Multicast("solo", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		waitFor(t, 2*time.Second, fmt.Sprintf("delivery %d", want), func() bool {
			return c.collect["n1"].deliverCount() >= want
		})
	}
	ds := c.collect["n1"].deliverSnapshot()
	for i := 0; i < rounds; i++ {
		if string(ds[i].Payload) != fmt.Sprintf("m%d", i) {
			t.Fatalf("delivery %d = %q", i, ds[i].Payload)
		}
	}
}
