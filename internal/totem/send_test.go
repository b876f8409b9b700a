package totem

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/transport"
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestSendBatchAllocs pins the send path: Multicast into a queue a token
// visit has already drained allocates nothing, and so does a visit that
// takes 16 queued messages and sends them as a data frame to both peers,
// whose lanes the test drains, and the token on to the successor. The
// queue's storage alternates between two buffers, every frame is built in
// ring-owned slices and encoded into the ring's encoder, and the fabric
// copies each datagram into a buffer the receiver's lane recycles. The
// slack above 0 is the message store's map, which rehashes now and then
// as sent messages come and go (a few times in 200 visits).
func TestSendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	const batch, warm, runs = 16, 4, 200
	r, f := bareRing(t)
	peers := openPeers(t, r, f, "n1", "n3")
	got := make(map[pktType]int)
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 256)
	}
	// Token i arrives from the coordinator n1 after n2's previous visit
	// sent messages up to (i-1)*batch: nothing is missing, and the aru
	// lets n2 prune what it sent.
	toks := make([][]byte, warm+runs)
	for i := range toks {
		seq := uint64(i * batch)
		toks[i] = mustEncodePacket(t, &token{Ring: r.ring, Round: uint64(i + 1), Seq: seq, Aru: seq, LastAru: seq})
	}
	visit := func(i int) (queued, visited uint64) {
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, p := range payloads {
			if err := r.Multicast("og/7", p); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		r.receive(transport.Datagram{From: "n1", Payload: toks[i]})
		runtime.ReadMemStats(&m2)
		drain(peers, got)
		return m1.Mallocs - m0.Mallocs, m2.Mallocs - m1.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < warm; i++ {
		visit(i)
	}
	var queued, visited uint64
	for i := warm; i < warm+runs; i++ {
		q, v := visit(i)
		queued += q
		visited += v
	}
	if want := uint64((warm + runs) * batch); r.delivered != want {
		t.Fatalf("sent and delivered %d messages, want %d", r.delivered, want)
	}
	if got[pktDataBatch] != 2*(warm+runs) || got[pktToken] != warm+runs {
		t.Fatalf("peers received %d data frames and %d tokens, want %d and %d",
			got[pktDataBatch], got[pktToken], 2*(warm+runs), warm+runs)
	}
	if queued != 0 {
		t.Errorf("queueing %d messages into a drained queue: %.2f allocs, want 0", batch, float64(queued)/runs)
	}
	if per := float64(visited) / runs; per > 0.1 {
		t.Errorf("a token visit sending %d messages: %.2f allocs, want 0", batch, per)
	}
}
