package totem

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// bareRing returns node n2's endpoint of the operational ring {n1,n2,n3}
// (coordinator n1) on a fresh fabric, with its protocol loop not started:
// the test drives the receive path itself. Nothing is bound at n1 or n3,
// so whatever n2 sends is dropped unless the test opens their ports.
func bareRing(t testing.TB) (*Ring, *netsim.Fabric) {
	t.Helper()
	return bareRingOf(t, "n2", []string{"n1", "n2", "n3"})
}

// bareRingOf returns node's endpoint of the operational ring of nodes
// (coordinator nodes[0]), its protocol loop not started.
func bareRingOf(t testing.TB, node string, nodes []string) (*Ring, *netsim.Fabric) {
	t.Helper()
	f := netsim.NewFabric(netsim.Config{})
	for _, n := range nodes {
		f.AddNode(n)
	}
	r, err := NewRing(f, testConfig(node, nodes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	r.ring = RingID{Epoch: 3, Coord: nodes[0]}
	r.members = nodes
	r.state = stOperational
	r.lastToken = time.Now()
	return r, f
}

// TestIdleSingletonParks drives a singleton ring's token through its wake
// channel by hand: with no work it must park within the pacing rule's
// quiet rounds instead of rotating forever, and queued work must resume it.
func TestIdleSingletonParks(t *testing.T) {
	r, _ := bareRingOf(t, "n1", []string{"n1"})
	// wakes runs the loop's wake case until no self-token is due.
	wakes := func(what string) {
		t.Helper()
		for i := 0; r.selfToken; i++ {
			if i > 2*parkRounds+2 {
				t.Fatalf("%s: the singleton's token still rotating after %d visits", what, i)
			}
			select {
			case <-r.wakeCh:
			default:
				t.Fatalf("%s: self-token due but no wake signalled", what)
			}
			r.handleWake(time.Now())
		}
	}
	r.handleToken(&token{Ring: r.ring}, time.Now())
	wakes("idle ring")
	if !r.pace.parked {
		t.Fatal("idle singleton did not park")
	}
	if err := r.Multicast("g", []byte("work")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.wakeCh:
	default:
		t.Fatal("Multicast did not signal the wake channel")
	}
	r.handleWake(time.Now())
	if r.delivered != 1 {
		t.Fatalf("delivered %d after the wake, want 1", r.delivered)
	}
	wakes("after work")
	if !r.pace.parked {
		t.Fatal("singleton did not park again once the work was done")
	}
}

func testBatch(firstSeq uint64, n int) *dataBatch {
	b := &dataBatch{Ring: RingID{Epoch: 3, Coord: "n1"}, Sender: "n1", FirstSeq: firstSeq}
	for i := 0; i < n; i++ {
		b.Groups = append(b.Groups, "og/7")
		b.Payloads = append(b.Payloads, bytes.Repeat([]byte{byte(i)}, 256))
	}
	return b
}

// TestReceiveBatchAllocs pins the data-frame receive path: a 16-message
// coalesced frame costs one allocation, the owned copy its payloads alias.
// The frame decodes into the ring's reused storage and every sub-message is
// stored by value.
func TestReceiveBatchAllocs(t *testing.T) {
	const batch, runs = 16, 200
	r, _ := bareRing(t)
	frames := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
	for i := range frames {
		frames[i] = mustEncodePacket(t, testBatch(uint64(i*batch+1), batch))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r.receive(transport.Datagram{From: "n1", Payload: frames[next]})
		next++
		for seq := range r.store { // the token's aru would prune these
			delete(r.store, seq)
		}
	})
	if r.delivered != uint64(len(frames)*batch) {
		t.Fatalf("delivered %d messages, want %d", r.delivered, len(frames)*batch)
	}
	if allocs > 1 {
		t.Fatalf("receiving a %d-message frame: %.0f allocs, want ≤ 1", batch, allocs)
	}
}

// TestDecodeOwnedAllocBudget pins the owned-frame decode: once the receive
// path hands decodePacketIn a buffer it owns, a 16-message coalesced batch
// must decode with the sub-message payloads and group names aliasing that
// buffer — a handful of fixed allocations (packet struct, slice headers,
// decoder) rather than one copy per sub-message. A regression that re-introduces
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

// openPeers binds the ring's port on each of the named peers, so what the
// ring sends them is copied into the fabric's lanes instead of dropped.
func openPeers(t testing.TB, r *Ring, f *netsim.Fabric, peers ...string) []*netsim.DGram {
	t.Helper()
	out := make([]*netsim.DGram, 0, len(peers))
	for _, p := range peers {
		d, err := f.OpenPort(p, r.cfg.Port)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		out = append(out, d)
	}
	return out
}

// drain takes every datagram queued at the ports, returning their pooled
// buffers to the fabric, and counts them by packet type.
func drain(ports []*netsim.DGram, got map[pktType]int) {
	for _, p := range ports {
		for _, c := range []transport.Class{transport.ClassControl, transport.ClassData} {
			for {
				dg, ok := p.TryRecv(c)
				if !ok {
					break
				}
				got[pktType(firstOctet(dg.Payload))]++
			}
		}
	}
}

// TestTokenHopAllocs pins the token path: decoding a token into the ring's
// storage, handling it, retaining it, encoding it into the ring's encoder
// and sending it to the successor, whose lane the test drains, allocates
// nothing. Under -race only the hops are checked: allocation counts there
// are not the program's.
func TestTokenHopAllocs(t *testing.T) {
	const runs = 200
	r, f := bareRing(t)
	peers := openPeers(t, r, f, "n3")
	got := make(map[pktType]int)
	toks := make([][]byte, runs+1)
	for i := range toks {
		toks[i] = mustEncodePacket(t, &token{
			Ring: r.ring, Round: uint64(i + 1), Aru: 0, LastAru: 0,
			Rtr: []uint64{7, 9, 11}, // requests n2 cannot serve: carried on
		})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r.receive(transport.Datagram{From: "n1", Payload: toks[next]})
		next++
		drain(peers, got)
	})
	if r.lastRound != uint64(len(toks)) || r.retained == nil || len(r.retained.Rtr) != 3 {
		t.Fatalf("tokens not handled: lastRound %d, retained %+v", r.lastRound, r.retained)
	}
	if got[pktToken] != len(toks) {
		t.Fatalf("n3 received %d tokens, want %d", got[pktToken], len(toks))
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("one token hop: %.0f allocs, want 0", allocs)
	}
}

// TestResendIsOneMessageFrame serves a token's retransmission request for
// a message another member sent: the message goes to both peers as a data
// frame of one message that still names its original sender, and a token
// carrying the request is forwarded without it.
func TestResendIsOneMessageFrame(t *testing.T) {
	r, f := bareRing(t)
	peers := openPeers(t, r, f, "n1", "n3")
	r.handleDataBatch(retransmission(r.ring, 1, "g", "n3", "lost-at-n1"))
	r.receive(transport.Datagram{From: "n1", Payload: mustEncodePacket(t, &token{
		Ring: r.ring, Round: 1, Seq: 1, Aru: 0, LastAru: 0, Rtr: []uint64{1},
	})})
	want := retransmission(r.ring, 1, "g", "n3", "lost-at-n1")
	for i, p := range peers {
		dg, ok := p.TryRecv(transport.ClassData)
		if !ok {
			t.Fatalf("peer %d received no resend", i)
		}
		got, err := decodePacketIn(dg.Payload, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("peer %d received %+v, want %+v", i, got, want)
		}
	}
	if fwd := r.retained; fwd == nil || len(fwd.Rtr) != 0 {
		t.Fatalf("forwarded token %+v still requests the resent message", fwd)
	}
	if n := r.Stats().Retransmit; n != 1 {
		t.Fatalf("Stats.Retransmit = %d, want 1", n)
	}
}

// TestTickAllocs pins the heartbeat path on an operational 3-node ring: a
// tick that gossips a heartbeat to both peers (their lanes drained by the
// test) and the peers' heartbeats received through the fabric into the
// ring's hot storage allocate nothing. The live set, the heartbeat and its
// encoding all live in ring-owned storage. Under -race only the heartbeats
// are checked, as in TestTokenHopAllocs.
func TestTickAllocs(t *testing.T) {
	const runs = 200
	r, f := bareRing(t)
	peers := openPeers(t, r, f, "n1", "n3")
	hellos := make([][]byte, len(peers))
	for i, p := range []string{"n1", "n3"} {
		hellos[i] = mustEncodePacket(t, &hello{From: p, MaxEpoch: r.ring.Epoch})
	}
	got := make(map[pktType]int)
	beat := func() {
		for i, p := range peers {
			if err := p.SendClass("n2", r.cfg.Port, hellos[i], transport.ClassControl); err != nil {
				t.Fatal(err)
			}
		}
		r.serve()
		now := time.Now()
		r.lastToken = now
		r.tick(now)
		drain(peers, got)
	}
	beat() // first sight of each peer starts its suspicion machine
	allocs := testing.AllocsPerRun(runs, beat)
	if r.state != stOperational || len(r.peerFD) != 2 {
		t.Fatalf("ring left operation: state %d, %d peers heard", r.state, len(r.peerFD))
	}
	if want := 2 * (runs + 2); got[pktHello] != want {
		t.Fatalf("peers received %d heartbeats, want %d", got[pktHello], want)
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("one heartbeat tick and two received heartbeats: %.0f allocs, want 0", allocs)
	}
}

// TestTokenAfterQueuedDataRequestsNoRetransmission pins the receive order:
// a data frame queued on the data lane ahead of a token is handled before
// the token, though the token's lane is served first. Otherwise the token
// would leave asking the ring to resend messages already here.
func TestTokenAfterQueuedDataRequestsNoRetransmission(t *testing.T) {
	r, f := bareRing(t)
	n1, err := f.OpenPort("n1", r.cfg.Port)
	if err != nil {
		t.Fatal(err)
	}
	n3, err := f.OpenPort("n3", r.cfg.Port)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	if err := n1.SendClass("n2", r.cfg.Port, mustEncodePacket(t, testBatch(1, batch)), transport.ClassData); err != nil {
		t.Fatal(err)
	}
	tok := &token{Ring: r.ring, Round: 1, Seq: batch, Aru: batch}
	if err := n1.SendClass("n2", r.cfg.Port, mustEncodePacket(t, tok), transport.ClassControl); err != nil {
		t.Fatal(err)
	}
	if r.serve() {
		t.Fatal("serve stopped at its bound with two datagrams queued")
	}
	if r.delivered != batch {
		t.Fatalf("delivered %d, want %d", r.delivered, batch)
	}
	dg, ok := n3.TryRecv(transport.ClassControl)
	if !ok {
		t.Fatal("n2 did not forward the token to n3")
	}
	pkt, err := decodePacketIn(dg.Payload, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fwd := pkt.(*token); len(fwd.Rtr) != 0 {
		t.Fatalf("forwarded token requests %v for messages n2 already had", fwd.Rtr)
	}
}

// everyPacketKind returns one encodable packet of every kind.
func everyPacketKind() []any {
	rid := RingID{Epoch: 4, Coord: "n1"}
	return []any{
		&hello{From: "n2", MaxEpoch: 9},
		&propose{Ring: rid, Members: []string{"n1", "n2", "n3"}},
		&accept{
			Ring: rid, From: "n2", OldRing: RingID{Epoch: 3, Coord: "n1"}, Delivered: 17,
			Stored: []storedMsg{{Seq: 18, Group: "g", Sender: "n1", Payload: []byte{1}}},
			Groups: []string{"g"},
		},
		&install{
			Ring: rid, Members: []string{"n1", "n2"},
			Recovery: []recoverySet{{OldRing: RingID{Epoch: 3, Coord: "n1"},
				Msgs: []storedMsg{{Seq: 18, Group: "g", Sender: "n1", Payload: []byte{1, 2}}}}},
			Subs: []groupSub{{Node: "n1", Group: "g"}},
		},
		&token{Ring: rid, Round: 7, Seq: 100, Aru: 90, LastAru: 80, Rtr: []uint64{91, 95}},
		&token{Ring: rid, Round: 8, Seq: 100, Aru: 100, LastAru: 90},
		retransmission(rid, 101, "g", "n1", "p"),
		testBatch(102, 3),
		&dataBatch{Ring: rid, Sender: "n1", FirstSeq: 200},
		&nudge{Ring: rid, From: "n3"},
		&direct{From: "n3", Group: "g", Payload: []byte("d")},
	}
}

// retransmission is the frame that resends one logged message.
func retransmission(rid RingID, seq uint64, group, sender, payload string) *dataBatch {
	return &dataBatch{Ring: rid, Sender: sender, FirstSeq: seq, Groups: []string{group}, Payloads: [][]byte{[]byte(payload)}}
}

// dirtyScratch returns hot decode storage that last held a larger batch,
// a token with a long retransmission list and another node's heartbeat, so
// a decode that fails to reset a field shows as a mismatch.
func dirtyScratch() *hotPackets {
	h := &hotPackets{}
	h.batch = *testBatch(9000, 64)
	h.tok = token{Ring: RingID{Epoch: 99, Coord: "zz"}, Round: 5, Seq: 6, Aru: 7, LastAru: 8}
	for i := 0; i < 64; i++ {
		h.tok.Rtr = append(h.tok.Rtr, uint64(i))
	}
	h.hb = hello{From: "zz", MaxEpoch: 99}
	return h
}

// FuzzDecodePacket runs the totem wire decoder over arbitrary datagrams.
// The copying decode, the owned (aliasing) decode and the ring's reuse
// decode into dirty scratch storage — in both modes — must agree field for
// field on every input, error or not, and none may panic.
func FuzzDecodePacket(f *testing.F) {
	for _, p := range everyPacketKind() {
		f.Add(mustEncodePacket(f, p))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ref, refErr := decodePacketIn(b, false, nil)
		decoders := []struct {
			name   string
			decode func() (any, error)
		}{
			{"owned", func() (any, error) { return decodePacketIn(bytes.Clone(b), true, nil) }},
			{"hot", func() (any, error) { return decodePacketIn(b, false, dirtyScratch()) }},
			{"hot owned", func() (any, error) { return decodePacketIn(bytes.Clone(b), true, dirtyScratch()) }},
		}
		for _, d := range decoders {
			got, err := d.decode()
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s decode error %v, copying decode error %v", d.name, err, refErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(normalized(got), normalized(ref)) {
				t.Fatalf("%s decode disagrees:\n got %+v\nwant %+v", d.name, got, ref)
			}
		}
	})
}

// normalized returns a deep copy of a decoded packet with every empty
// slice set to nil: decoders may leave either, and the difference is not a
// field value.
func normalized(p any) any {
	v := reflect.New(reflect.TypeOf(p).Elem())
	v.Elem().Set(normalize(reflect.ValueOf(p).Elem()))
	return v.Interface()
}

func normalize(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return reflect.Zero(v.Type())
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(normalize(v.Index(i)))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(normalize(v.Field(i)))
		}
		return out
	}
	return v
}
