package totem

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// oneMessageFrame is a data frame of one 256-byte message: a
// retransmission, or a token visit that had one message to send.
func oneMessageFrame() *dataBatch {
	return &dataBatch{
		Ring:     RingID{Epoch: 3, Coord: "n1"},
		Sender:   "n2",
		FirstSeq: 42,
		Groups:   []string{"og/7"},
		Payloads: [][]byte{make([]byte, 256)},
	}
}

// BenchmarkPR2EncodeData measures marshalling a one-message data frame —
// the per-message cost the coalesced frame amortizes.
func BenchmarkPR2EncodeData(b *testing.B) {
	d := oneMessageFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := mustEncodePacket(b, d)
		if len(raw) == 0 {
			b.Fatal("empty packet")
		}
	}
}

// BenchmarkPR2PacketRoundTrip measures encode+decode (copying) of a
// one-message data frame.
func BenchmarkPR2PacketRoundTrip(b *testing.B) {
	d := oneMessageFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodePacketIn(mustEncodePacket(b, d), false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeOwnedAllocBudget pins the receive-path allocation win that
// PR 7's owned-frame decode bought: once the receive path hands decodePacketIn
// a buffer it owns, a 16-message coalesced batch must decode with the
// sub-message payloads and group names aliasing that buffer — a handful
// of fixed allocations (packet struct, slice headers, decoder) rather
// than one copy per sub-message. A regression that re-introduces
// per-payload copies roughly doubles the count and fails here.
func TestDecodeOwnedAllocBudget(t *testing.T) {
	const batch = 16
	db := &dataBatch{
		Ring:     RingID{Epoch: 3, Coord: "n1"},
		Sender:   "n2",
		FirstSeq: 42,
	}
	for i := 0; i < batch; i++ {
		db.Groups = append(db.Groups, "og/7")
		db.Payloads = append(db.Payloads, make([]byte, 256))
	}
	raw := mustEncodePacket(t, db)

	owned := testing.AllocsPerRun(200, func() {
		if _, err := decodePacketIn(raw, true, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Fixed costs only: packet struct, decoder, interned-group slice
	// header, payload slice-of-slices header. 8 leaves slack for
	// compiler-version drift without admitting per-message copies
	// (which would add ≥2·batch = 32).
	if owned > 8 {
		t.Fatalf("owned decodePacketIn of a %d-message batch: %.0f allocs/op, want ≤ 8", batch, owned)
	}

	// The copying decode (shared-buffer contract) is the upper bound the
	// owned path must stay well under.
	copying := testing.AllocsPerRun(200, func() {
		if _, err := decodePacketIn(raw, false, nil); err != nil {
			t.Fatal(err)
		}
	})
	if owned >= copying {
		t.Fatalf("owned decode (%.0f allocs) not cheaper than copying decode (%.0f)", owned, copying)
	}
}

// BenchmarkPR2MulticastBurst drives a 3-node ring with bursts of 16
// queued messages and waits for local delivery of each burst. Coalescing
// packs each burst into far fewer fabric datagrams, so this tracks the
// token-visit amortization directly.
func BenchmarkPR2MulticastBurst(b *testing.B) {
	const burst = 16
	fabric := netsim.NewFabric(netsim.Config{})
	nodes := []string{"a", "b", "c"}
	for _, n := range nodes {
		fabric.AddNode(n)
	}
	deliver := make(chan struct{}, 4096)
	var rings []*Ring
	for i, n := range nodes {
		r, err := NewRing(fabric, Config{
			Node: n, Universe: nodes, Port: 4000,
			HeartbeatInterval: 3 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		var c Consumer
		if i == 0 {
			c.Deliver = signalMessages(deliver)
		}
		r.Start(c)
		rings = append(rings, r)
	}
	b.Cleanup(func() {
		for _, r := range rings {
			r.Stop()
		}
	})
	sender := rings[0]
	if err := sender.JoinGroup("g"); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, m := sender.CurrentRing(); len(m) == 3 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("ring never formed")
		}
		time.Sleep(time.Millisecond)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := sender.Multicast("g", payload); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < burst; j++ {
			<-deliver
		}
	}
}

// BenchmarkPR2SingletonMulticast measures a ring of one: with the
// fast path it should self-deliver without waiting out token pacing.
func BenchmarkPR2SingletonMulticast(b *testing.B) {
	fabric := netsim.NewFabric(netsim.Config{})
	fabric.AddNode("solo")
	r, err := NewRing(fabric, Config{
		Node: "solo", Universe: []string{"solo"}, Port: 4000,
		HeartbeatInterval: 3 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	deliver := make(chan struct{}, 1024)
	r.Start(Consumer{Deliver: signalMessages(deliver)})
	b.Cleanup(r.Stop)
	if err := r.JoinGroup("g"); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, m := r.CurrentRing(); len(m) == 1 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("ring never formed")
		}
		time.Sleep(time.Millisecond)
	}
	// Drain the join-control delivery if promiscuity ever surfaces it.
	for len(deliver) > 0 {
		<-deliver
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Multicast("g", payload); err != nil {
			b.Fatal(err)
		}
		<-deliver
	}
}

// signalMessages returns a Consumer.Deliver that sends on ch for every
// message delivery; ch's buffer must hold every delivery not yet received.
func signalMessages(ch chan<- struct{}) func(Delivery) {
	return func(d Delivery) {
		if d.Event == nil {
			ch <- struct{}{}
		}
	}
}
