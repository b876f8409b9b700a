// Package conformance is the executable contract of the transport seam:
// one test suite run against every backend, so the properties the totem
// layer depends on — delivery with sender identity, Ready wake-ups,
// per-lane FIFO order, close-unblocks-recv, the per-lane payload lifetime,
// a Send that keeps nothing of its caller's buffer, an allocation-free
// steady state, port rebinding, large datagrams, concurrent senders — are
// pinned by tests instead of by whichever backend happened to come first.
//
// Each backend's own test package calls Run with a factory that builds a
// fresh deployment for the requested node names. The factory returns a
// transport.Transport able to open ports for any of those nodes: the
// netsim fabric does this natively; the udp backend's test wraps one
// single-node Transport per name (see internal/transport/udp tests).
package conformance

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// Factory builds a fresh backend deployment covering the given node
// names. Cleanup is registered on t.
type Factory func(t *testing.T, nodes []string) transport.Transport

// Run executes the full conformance suite against one backend.
func Run(t *testing.T, newBackend Factory) {
	t.Run("Delivery", func(t *testing.T) { testDelivery(t, newBackend) })
	t.Run("Local", func(t *testing.T) { testLocal(t, newBackend) })
	t.Run("PortReuse", func(t *testing.T) { testPortReuse(t, newBackend) })
	t.Run("CloseUnblocksRecv", func(t *testing.T) { testCloseUnblocksRecv(t, newBackend) })
	t.Run("Ready", func(t *testing.T) { testReady(t, newBackend) })
	t.Run("LaneOrder", func(t *testing.T) { testLaneOrder(t, newBackend) })
	t.Run("PayloadLifetime", func(t *testing.T) { testPayloadLifetime(t, newBackend) })
	t.Run("SendDoesNotRetain", func(t *testing.T) { testSendDoesNotRetain(t, newBackend) })
	t.Run("SteadyStateAllocs", func(t *testing.T) { testSteadyStateAllocs(t, newBackend) })
	t.Run("LargeDatagram", func(t *testing.T) { testLargeDatagram(t, newBackend) })
	t.Run("ConcurrentSend", func(t *testing.T) { testConcurrentSend(t, newBackend) })
	t.Run("PriorityLane", func(t *testing.T) { testPriorityLane(t, newBackend) })
	t.Run("BurstAbsorption", func(t *testing.T) { testBurstAbsorption(t, newBackend) })
}

const recvWait = 5 * time.Second

// recvOne runs transport.Recv on its own goroutine with a deadline,
// copying the payload so assertions outlive the next Recv.
func recvOne(t *testing.T, p transport.Port) transport.Datagram {
	t.Helper()
	type res struct {
		dg  transport.Datagram
		err error
	}
	ch := make(chan res, 1)
	go func() {
		dg, err := transport.Recv(p)
		dg.Payload = append([]byte(nil), dg.Payload...)
		ch <- res{dg, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Recv: %v", r.err)
		}
		return r.dg
	case <-time.After(recvWait):
		t.Fatalf("Recv: no datagram within %v", recvWait)
		return transport.Datagram{}
	}
}

func open(t *testing.T, tp transport.Transport, node string, port uint16) transport.Port {
	t.Helper()
	p, err := tp.Open(node, port)
	if err != nil {
		t.Fatalf("Open(%s,%d): %v", node, port, err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func testDelivery(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 100)
	pb := open(t, tp, "b", 100)
	payload := []byte("hello from a")
	if err := pa.Send("b", 100, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	dg := recvOne(t, pb)
	if dg.From != "a" {
		t.Fatalf("From = %q, want %q", dg.From, "a")
	}
	if !bytes.Equal(dg.Payload, payload) {
		t.Fatalf("Payload = %q, want %q", dg.Payload, payload)
	}
	// The seam's port spaces are per destination port, not per connection:
	// b replies to a different logical port of a.
	pa2 := open(t, tp, "a", 101)
	if err := pb.Send("a", 101, []byte("reply")); err != nil {
		t.Fatalf("Send reply: %v", err)
	}
	if dg := recvOne(t, pa2); dg.From != "b" || string(dg.Payload) != "reply" {
		t.Fatalf("reply = %q from %q", dg.Payload, dg.From)
	}
}

// The suite keeps every logical port below 512 so single-machine backends
// can lay real per-node port ranges side by side (the udp test separates
// peer bases by 512).
func testLocal(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a"})
	p := open(t, tp, "a", 321)
	node, port := p.Local()
	if node != "a" || port != 321 {
		t.Fatalf("Local() = %q,%d, want a,321", node, port)
	}
}

func testPortReuse(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	p, err := tp.Open("a", 200)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Double-bind of a live port must fail.
	if dup, err := tp.Open("a", 200); err == nil {
		dup.Close()
		t.Fatalf("second Open of a live port succeeded")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After Close the port is rebindable and functional again.
	p2 := open(t, tp, "a", 200)
	pb := open(t, tp, "b", 200)
	if err := pb.Send("a", 200, []byte("again")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if dg := recvOne(t, p2); string(dg.Payload) != "again" {
		t.Fatalf("rebound port got %q", dg.Payload)
	}
}

func testCloseUnblocksRecv(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a"})
	p, err := tp.Open("a", 300)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := transport.Recv(p)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Recv block
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatalf("Recv returned nil error after Close")
		}
	case <-time.After(recvWait):
		t.Fatalf("Recv still blocked %v after Close", recvWait)
	}
	// Recv after Close also errors (no hang, no zero-value success).
	if _, err := transport.Recv(p); err == nil {
		t.Fatalf("Recv on closed port returned nil error")
	}
	if p.Err() == nil {
		t.Fatalf("Err() is nil after Close")
	}
}

// waitReady reports whether p's Ready fires within the suite's deadline.
func waitReady(p transport.Port) bool {
	select {
	case <-p.Ready():
		return true
	case <-time.After(recvWait):
		return false
	}
}

// tryRecvWithin polls one lane, waiting on Ready between polls, until a
// datagram is due or the deadline passes.
func tryRecvWithin(t *testing.T, p transport.Port, class transport.Class) transport.Datagram {
	t.Helper()
	deadline := time.Now().Add(recvWait)
	for {
		if dg, ok := p.TryRecv(class); ok {
			return dg
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			t.Fatalf("TryRecv(%d): nothing due within %v", class, recvWait)
		}
		select {
		case <-p.Ready():
		case <-time.After(wait):
		}
	}
}

// testReady pins the wake-up half of the non-blocking contract: an idle,
// drained port reports nothing, a datagram landing on it fires Ready, and
// Close fires Ready for a consumer parked on it. Err is nil until Close.
func testReady(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 350)
	pb, err := tp.Open("b", 350)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, c := range []transport.Class{transport.ClassControl, transport.ClassData} {
		if _, ok := pb.TryRecv(c); ok {
			t.Fatalf("TryRecv(%d) on an idle port returned a datagram", c)
		}
	}
	if pb.Err() != nil {
		t.Fatalf("Err() = %v on an open port", pb.Err())
	}
	// Drop a wake-up left over from opening, if any: what follows must be
	// caused by the send.
	select {
	case <-pb.Ready():
	default:
	}
	if err := pa.Send("b", 350, []byte("wake")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !waitReady(pb) {
		t.Fatalf("Ready did not fire for a datagram on an idle port")
	}
	if dg := tryRecvWithin(t, pb, transport.ClassData); string(dg.Payload) != "wake" || dg.From != "a" {
		t.Fatalf("got %q from %q, want \"wake\" from a", dg.Payload, dg.From)
	}
	if _, ok := pb.TryRecv(transport.ClassData); ok {
		t.Fatalf("TryRecv returned a second datagram after one send")
	}

	fired := make(chan bool, 1)
	go func() { fired <- waitReady(pb) }()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	if err := pb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !<-fired {
		t.Fatalf("Close did not fire Ready")
	}
	if pb.Err() == nil {
		t.Fatalf("Err() is nil after Close")
	}
	if _, ok := pb.TryRecv(transport.ClassData); ok {
		t.Fatalf("TryRecv on a closed, drained port returned a datagram")
	}
}

// testLaneOrder pins per-lane FIFO order: datagrams sent interleaved on
// the two classes come out of each lane in send order, whichever lane the
// consumer polls first. A backend without a control lane delivers all of
// them, in order, on the data lane.
func testLaneOrder(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 360)
	pb := open(t, tp, "b", 360)
	const n = 32
	var wantCtl, wantData []string
	for i := 0; i < n; i++ {
		class := transport.ClassData
		if i%3 == 0 {
			class = transport.ClassControl
		}
		msg := fmt.Sprintf("m%d", i)
		if err := transport.SendClass(pa, "b", 360, []byte(msg), class); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if class == transport.ClassControl {
			wantCtl = append(wantCtl, msg)
		} else {
			wantData = append(wantData, msg)
		}
	}
	if _, hasLane := pa.(transport.ClassSender); !hasLane {
		wantData = nil
		for i := 0; i < n; i++ {
			wantData = append(wantData, fmt.Sprintf("m%d", i))
		}
		wantCtl = nil
	}
	// Data first: polling the data lane must not disturb the control lane.
	for i, want := range wantData {
		if got := string(tryRecvWithin(t, pb, transport.ClassData).Payload); got != want {
			t.Fatalf("data lane datagram %d = %q, want %q", i, got, want)
		}
	}
	for i, want := range wantCtl {
		if got := string(tryRecvWithin(t, pb, transport.ClassControl).Payload); got != want {
			t.Fatalf("control lane datagram %d = %q, want %q", i, got, want)
		}
	}
}

// testPayloadLifetime pins the per-lane payload contract the totem loop
// relies on: it takes a token off the control lane and drains the data
// lane before decoding the token, so a control payload must survive any
// number of data-lane receives (and fresh arrivals reusing receive
// buffers) until the next control-lane TryRecv.
func testPayloadLifetime(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 370)
	pb := open(t, tp, "b", 370)
	if _, hasLane := pa.(transport.ClassSender); !hasLane {
		t.Skip("backend has no control lane")
	}
	ctl := bytes.Repeat([]byte("control-payload/"), 8)
	if err := transport.SendClass(pa, "b", 370, ctl, transport.ClassControl); err != nil {
		t.Fatalf("control send: %v", err)
	}
	held := tryRecvWithin(t, pb, transport.ClassControl)
	for round := 0; round < 4; round++ {
		for i := 0; i < 16; i++ {
			msg := bytes.Repeat([]byte{byte('a' + i)}, len(ctl))
			if err := pa.Send("b", 370, msg); err != nil {
				t.Fatalf("data send: %v", err)
			}
		}
		for i := 0; i < 16; i++ {
			dg := tryRecvWithin(t, pb, transport.ClassData)
			if want := bytes.Repeat([]byte{byte('a' + i)}, len(ctl)); !bytes.Equal(dg.Payload, want) {
				t.Fatalf("data datagram %d corrupted: %q", i, dg.Payload)
			}
		}
		if !bytes.Equal(held.Payload, ctl) {
			t.Fatalf("control payload overwritten by data-lane receives: %q", held.Payload)
		}
	}
}

// lanes returns the classes p's backend keeps apart: both when it has a
// control lane, otherwise only the data lane everything is queued on.
func lanes(p transport.Port) []transport.Class {
	if _, ok := p.(transport.ClassSender); ok {
		return []transport.Class{transport.ClassData, transport.ClassControl}
	}
	return []transport.Class{transport.ClassData}
}

// testSendDoesNotRetain pins Send's ownership rule: the caller may reuse
// its buffer as soon as Send returns. The sender rewrites one buffer for
// each datagram and overwrites it once more after the last send; every
// datagram, still queued at the receiver meanwhile, must arrive as it was
// when it was sent.
func testSendDoesNotRetain(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 380)
	pb := open(t, tp, "b", 380)
	const n = 8
	buf := make([]byte, 200)
	for _, class := range lanes(pa) {
		for i := 0; i < n; i++ {
			copy(buf, bytes.Repeat([]byte{byte('a' + i)}, len(buf)))
			if err := transport.SendClass(pa, "b", 380, buf, class); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		copy(buf, bytes.Repeat([]byte{'X'}, len(buf)))
		for i := 0; i < n; i++ {
			dg := tryRecvWithin(t, pb, class)
			if want := bytes.Repeat([]byte{byte('a' + i)}, len(buf)); !bytes.Equal(dg.Payload, want) {
				t.Fatalf("lane %d datagram %d = %q, want %q: Send kept the caller's buffer", class, i, dg.Payload[:8], want[:8])
			}
		}
	}
}

// testSteadyStateAllocs pins the allocation-free datagram path: once warm,
// a Send and the TryRecv that takes it allocate nothing on either lane —
// the backend recycles its copy's buffer at the lane's next TryRecv.
func testSteadyStateAllocs(t *testing.T, newBackend Factory) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 390)
	pb := open(t, tp, "b", 390)
	// A lost datagram would block Recv for good: closing the port ends it.
	watchdog := time.AfterFunc(4*recvWait, func() { pb.Close() })
	defer watchdog.Stop()
	payload := bytes.Repeat([]byte{7}, 256)
	for _, class := range lanes(pa) {
		var err error
		got := 0
		allocs := testing.AllocsPerRun(200, func() {
			if err != nil {
				return
			}
			if err = transport.SendClass(pa, "b", 390, payload, class); err != nil {
				return
			}
			var dg transport.Datagram
			if dg, err = transport.Recv(pb); err == nil && bytes.Equal(dg.Payload, payload) {
				got++
			}
		})
		if err != nil {
			t.Fatalf("lane %d round trip: %v", class, err)
		}
		if got != 201 { // AllocsPerRun adds one warm-up call
			t.Fatalf("lane %d: %d of 201 datagrams arrived intact", class, got)
		}
		if allocs != 0 {
			t.Errorf("lane %d: a Send and its TryRecv allocate %.0f times, want 0", class, allocs)
		}
	}
}

func testLargeDatagram(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 400)
	pb := open(t, tp, "b", 400)
	// The totem coalescer packs frames up to 60KiB of payload;
	// every backend must carry one intact.
	payload := make([]byte, 60<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := pa.Send("b", 400, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	dg := recvOne(t, pb)
	if !bytes.Equal(dg.Payload, payload) {
		t.Fatalf("large payload corrupted: got %d bytes", len(dg.Payload))
	}
}

// testPriorityLane pins the control-plane lane contract: a ClassControl
// datagram sent after a pile of data must not wait behind it. Backends
// without a lane (plain Send fallback) still deliver everything, so the
// test first checks delivery, then — only when the backend implements
// transport.ClassSender — asserts the control datagram overtakes the bulk
// of the queued data.
func testPriorityLane(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 510)
	pb := open(t, tp, "b", 510)

	const backlog = 64
	for i := 0; i < backlog; i++ {
		if err := transport.SendClass(pa, "b", 510, []byte(fmt.Sprintf("data-%d", i)), transport.ClassData); err != nil {
			t.Fatalf("data send %d: %v", i, err)
		}
	}
	if err := transport.SendClass(pa, "b", 510, []byte("ctl"), transport.ClassControl); err != nil {
		t.Fatalf("control send: %v", err)
	}
	// Give an async backend (udp's reader goroutine) time to stage the
	// backlog before the first Recv; netsim queues are synchronous.
	time.Sleep(200 * time.Millisecond)

	_, hasLane := pa.(transport.ClassSender)
	ctlPos := -1
	for i := 0; i < backlog+1; i++ {
		dg := recvOne(t, pb)
		if string(dg.Payload) == "ctl" {
			ctlPos = i
			break
		}
	}
	if ctlPos < 0 {
		t.Fatalf("control datagram never delivered")
	}
	if hasLane && ctlPos > backlog/8 {
		t.Fatalf("control datagram delivered at position %d behind %d queued data (no priority)", ctlPos, backlog)
	}
}

// testBurstAbsorption pins the burst capacity a protocol without
// retransmission (the fixed-sequencer baseline) depends on: a few
// thousand small datagrams sent before the receiver ever calls Recv must
// all arrive. This is the kernel-socket-buffer capacity the UDP backend's
// in-process lanes must preserve — a count-bounded lane sheds exactly
// this workload.
func testBurstAbsorption(t *testing.T, newBackend Factory) {
	tp := newBackend(t, []string{"a", "b"})
	pa := open(t, tp, "a", 509)
	pb := open(t, tp, "b", 509)

	const burst = 3000
	payload := []byte("burst-payload-0123456789abcdef-0123456789abcdef-0123456789")
	for i := 0; i < burst; i++ {
		if err := pa.Send("b", 509, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < burst; i++ {
		dg := recvOne(t, pb)
		if len(dg.Payload) != len(payload) {
			t.Fatalf("datagram %d: got %d bytes, want %d", i, len(dg.Payload), len(payload))
		}
	}
}

func testConcurrentSend(t *testing.T, newBackend Factory) {
	const senders = 8
	const perSender = 64
	nodes := []string{"rx"}
	for i := 0; i < senders; i++ {
		nodes = append(nodes, fmt.Sprintf("s%d", i))
	}
	tp := newBackend(t, nodes)
	rx := open(t, tp, "rx", 500)

	// Drain concurrently with the sends so no backend-side queue or kernel
	// socket buffer has to hold the full volume.
	type got struct {
		from    string
		payload []byte
	}
	recvd := make(chan got, senders*perSender)
	go func() {
		for {
			dg, err := transport.Recv(rx)
			if err != nil {
				close(recvd)
				return
			}
			recvd <- got{dg.From, append([]byte(nil), dg.Payload...)}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		name := fmt.Sprintf("s%d", s)
		p := open(t, tp, name, 500)
		wg.Add(1)
		go func(s int, p transport.Port) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				msg := []byte(fmt.Sprintf("s%d/%d|payload-%d", s, i, s*perSender+i))
				if err := p.Send("rx", 500, msg); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s, p)
	}
	wg.Wait()

	// Both shipped backends are loss-free in this setting (netsim with no
	// injected loss; loopback UDP with a live reader and bounded volume),
	// so every datagram must arrive intact — corruption or cross-sender
	// interleaving inside one payload would show up here.
	seen := make(map[string]bool)
	deadline := time.After(recvWait)
	for len(seen) < senders*perSender {
		select {
		case g, ok := <-recvd:
			if !ok {
				t.Fatalf("receiver closed early")
			}
			var s, i int
			var rest string
			if _, err := fmt.Sscanf(string(g.payload), "s%d/%d|%s", &s, &i, &rest); err != nil {
				t.Fatalf("corrupt payload %q", g.payload)
			}
			if want := fmt.Sprintf("s%d", s); g.from != want {
				t.Fatalf("payload %q arrived from %q", g.payload, g.from)
			}
			if rest != fmt.Sprintf("payload-%d", s*perSender+i) {
				t.Fatalf("payload %q body mismatch", g.payload)
			}
			seen[string(g.payload)] = true
		case <-deadline:
			t.Fatalf("received %d/%d datagrams within %v", len(seen), senders*perSender, recvWait)
		}
	}
	rx.Close()
}

// raceEnabled is set in -race builds (race.go).
var raceEnabled bool
