package netsim

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func newTestFabric(t *testing.T, cfg Config, nodes ...string) *Fabric {
	t.Helper()
	f := NewFabric(cfg)
	for _, n := range nodes {
		f.AddNode(n)
	}
	return f
}

func TestStreamRoundTrip(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	l, err := f.Listen("b", 9000)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := c.Write(bytes.ToUpper(buf)); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()

	c, err := f.Dial("a", "b", 9000)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("got %q", buf)
	}
	wg.Wait()
}

func TestStreamLatency(t *testing.T) {
	const lat = 20 * time.Millisecond
	f := newTestFabric(t, Config{Latency: lat}, "a", "b")
	l, _ := f.Listen("b", 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("x"))
	}()
	c, err := f.Dial("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < lat {
		t.Errorf("read completed in %v, want >= %v", got, lat)
	}
}

func TestDialErrors(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	if _, err := f.Dial("a", "b", 5); err != ErrNoListener {
		t.Errorf("no listener: got %v", err)
	}
	if _, err := f.Dial("nope", "b", 5); err == nil {
		t.Error("unknown source: want error")
	}
	f.CrashNode("b")
	if _, err := f.Dial("a", "b", 5); err != ErrNodeDown {
		t.Errorf("crashed dest: got %v", err)
	}
	f.RestartNode("b")
	f.Partition([]string{"a"}, []string{"b"})
	if _, err := f.Dial("a", "b", 5); err != ErrUnreachable {
		t.Errorf("partitioned dest: got %v", err)
	}
	f.Heal()
	if !f.Reachable("a", "b") {
		t.Error("heal did not restore reachability")
	}
}

func TestPortInUse(t *testing.T) {
	f := newTestFabric(t, Config{}, "a")
	if _, err := f.Listen("a", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("a", 7); err != ErrPortInUse {
		t.Errorf("got %v, want ErrPortInUse", err)
	}
	if _, err := f.OpenPort("a", 7); err != nil {
		t.Errorf("datagram port namespace must be separate: %v", err)
	}
	if _, err := f.OpenPort("a", 7); err != ErrPortInUse {
		t.Errorf("got %v, want ErrPortInUse", err)
	}
}

func TestPartitionBreaksEstablishedStream(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	l, _ := f.Listen("b", 1)
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := f.Dial("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted

	f.Partition([]string{"a"}, []string{"b"})

	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write across partition must fail")
	}
	buf := make([]byte, 1)
	if _, err := srv.Read(buf); err == nil {
		t.Error("read on severed conn must fail")
	}
}

func TestCrashBreaksStreamAndListener(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	l, _ := f.Listen("b", 1)
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	c, err := f.Dial("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	f.CrashNode("b")
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write to crashed node must fail")
	}
	if f.NodeUp("b") {
		t.Error("NodeUp after crash")
	}
	f.RestartNode("b")
	if !f.NodeUp("b") {
		t.Error("NodeUp false after restart")
	}
	// After restart the old listener is gone; rebinding must work.
	if _, err := f.Listen("b", 1); err != nil {
		t.Errorf("rebind after restart: %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	l, _ := f.Listen("b", 1)
	go l.Accept()
	c, err := f.Dial("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("got %v, want timeout", err)
	}
	// Clearing the deadline re-enables reads.
	c.SetReadDeadline(time.Time{})
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	l, _ := f.Listen("b", 1)
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, _ := f.Dial("a", "b", 1)
	srv := <-accepted
	c.Write([]byte("bye"))
	c.Close()
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
}

func TestDatagramDelivery(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	pa, err := f.OpenPort("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := f.OpenPort("b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Send("b", 100, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	dg, err := transport.Recv(pb)
	if err != nil {
		t.Fatal(err)
	}
	if dg.From != "a" || string(dg.Payload) != "ping" {
		t.Fatalf("got %+v", dg)
	}
}

// TestReadyFiresWhenDelayedDatagramFallsDue pins the waker: a datagram
// still in flight (latency not yet elapsed) is not receivable, and the
// consumer that polled it early is woken through Ready once it is due,
// without any further traffic.
func TestReadyFiresWhenDelayedDatagramFallsDue(t *testing.T) {
	const latency = 20 * time.Millisecond
	f := newTestFabric(t, Config{Latency: latency}, "a", "b")
	pa, _ := f.OpenPort("a", 1)
	pb, _ := f.OpenPort("b", 1)
	sent := time.Now()
	if err := pa.SendClass("b", 1, []byte("late"), transport.ClassControl); err != nil {
		t.Fatal(err)
	}
	<-pb.Ready() // the arrival on an empty lane
	if _, ok := pb.TryRecv(transport.ClassControl); ok {
		t.Fatal("datagram receivable before its latency elapsed")
	}
	select {
	case <-pb.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("Ready never fired for the due datagram")
	}
	dg, ok := pb.TryRecv(transport.ClassControl)
	if !ok || string(dg.Payload) != "late" {
		t.Fatalf("TryRecv after the wake-up = %q, %v", dg.Payload, ok)
	}
	if waited := time.Since(sent); waited < latency {
		t.Fatalf("delivered after %v, before the %v latency", waited, latency)
	}
}

func TestDatagramLossIsTotalAtFullLoss(t *testing.T) {
	f := newTestFabric(t, Config{Loss: 1.0}, "a", "b")
	pa, _ := f.OpenPort("a", 1)
	pb, _ := f.OpenPort("b", 1)
	for i := 0; i < 50; i++ {
		pa.Send("b", 1, []byte("x"))
	}
	done := make(chan struct{})
	go func() {
		transport.Recv(pb)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("datagram delivered despite 100% loss")
	case <-time.After(30 * time.Millisecond):
	}
	pb.Close()
	<-done
}

func TestDatagramPartitionDrops(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	pa, _ := f.OpenPort("a", 1)
	pb, _ := f.OpenPort("b", 1)
	f.Partition([]string{"a"}, []string{"b"})
	pa.Send("b", 1, []byte("lost"))
	f.Heal()
	pa.Send("b", 1, []byte("kept"))
	dg, err := transport.Recv(pb)
	if err != nil {
		t.Fatal(err)
	}
	if string(dg.Payload) != "kept" {
		t.Fatalf("got %q, want the post-heal datagram", dg.Payload)
	}
}

func TestDatagramToClosedOrMissingPortIsDropped(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	pa, _ := f.OpenPort("a", 1)
	if err := pa.Send("b", 99, []byte("x")); err != nil {
		t.Fatalf("send to missing port must be silent: %v", err)
	}
	if err := pa.Send("zzz", 1, []byte("x")); err != nil {
		t.Fatalf("send to unknown node must be silent: %v", err)
	}
}

func TestSendAfterLocalCrashFails(t *testing.T) {
	f := newTestFabric(t, Config{}, "a", "b")
	pa, _ := f.OpenPort("a", 1)
	f.CrashNode("a")
	if err := pa.Send("b", 1, []byte("x")); err == nil {
		t.Error("send from crashed node must error")
	}
}

func TestDeterministicLoss(t *testing.T) {
	run := func(seed int64) []bool {
		f := NewFabric(Config{Loss: 0.5, Seed: seed})
		f.AddNode("a")
		f.AddNode("b")
		pa, _ := f.OpenPort("a", 1)
		pb, _ := f.OpenPort("b", 1)
		var got []bool
		for i := 0; i < 40; i++ {
			pa.Send("b", 1, []byte{byte(i)})
		}
		deadline := time.After(200 * time.Millisecond)
		received := map[byte]bool{}
	loop:
		for {
			ch := make(chan Datagram, 1)
			go func() {
				dg, err := transport.Recv(pb)
				if err == nil {
					ch <- dg
				}
			}()
			select {
			case dg := <-ch:
				received[dg.Payload[0]] = true
			case <-deadline:
				pb.Close()
				break loop
			}
		}
		for i := 0; i < 40; i++ {
			got = append(got, received[byte(i)])
		}
		return got
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss pattern differs at %d despite same seed", i)
		}
	}
}

func TestNodesSorted(t *testing.T) {
	f := newTestFabric(t, Config{}, "zeta", "alpha", "mid")
	got := f.Nodes()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v", got)
		}
	}
	f.AddNode("alpha") // duplicate add is a no-op
	if len(f.Nodes()) != 3 {
		t.Error("duplicate AddNode changed node set")
	}
}

func TestAddrRendering(t *testing.T) {
	a := Addr{Node: "n1", Port: 42}
	if a.String() != "n1:42" || a.Network() != "sim" {
		t.Fatalf("Addr = %s/%s", a.String(), a.Network())
	}
}

func TestListenErrors(t *testing.T) {
	f := newTestFabric(t, Config{}, "a")
	if _, err := f.Listen("missing", 1); err == nil {
		t.Error("unknown node: want error")
	}
	f.CrashNode("a")
	if _, err := f.Listen("a", 1); err != ErrNodeDown {
		t.Errorf("crashed node: got %v", err)
	}
	if _, err := f.OpenPort("a", 1); err != ErrNodeDown {
		t.Errorf("crashed node port: got %v", err)
	}
}
