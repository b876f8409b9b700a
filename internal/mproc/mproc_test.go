package mproc

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/transport/udp"
)

const tallyType = "IDL:repro/Tally:1.0"

// tally is a replicated servant whose "put" adds its first argument to a
// running sum and echoes its second, an octet sequence, back.
type tally struct {
	mu  sync.Mutex
	sum int64
	n   int64
}

func (s *tally) RepoID() string { return tallyType }

func (s *tally) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inv.Operation != "put" {
		return nil, &orb.UserException{Name: "IDL:repro/BadOp:1.0"}
	}
	s.sum += int64(inv.Args[0].AsLong())
	s.n++
	return []cdr.Value{cdr.LongLong(s.sum), cdr.OctetSeq(inv.Args[1].AsOctetSeq())}, nil
}

func (s *tally) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(s.sum)
	e.WriteLongLong(s.n)
	return append([]byte(nil), e.Bytes()...), nil
}

func (s *tally) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	sum, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	n, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.sum, s.n = sum, n
	s.mu.Unlock()
	return nil
}

func (s *tally) snapshot() (sum, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum, s.n
}

// TestThreeNodesOverLoopbackUDP starts a three-node deployment in one
// process, each node a StartNode stack with its ring on its own loopback
// UDP sockets, and completes 100 replicated invocations of an ACTIVE group
// hosted on all three through one node's engine. Every token, frame and
// heartbeat crosses real sockets from a ring encoder reused send to send,
// and the arguments vary in size, so a sender that reused a buffer the
// transport still held would show as a corrupted echo or a diverged
// replica.
func TestThreeNodesOverLoopbackUDP(t *testing.T) {
	const basePort, calls = 4000, 100
	names := []string{"n1", "n2", "n3"}
	starts, err := udp.PickBases(len(names), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Universe:      names,
		Peers:         make(map[string]udp.Peer, len(names)),
		Shards:        1,
		BasePort:      basePort,
		Heartbeat:     5 * time.Millisecond,
		CallTimeout:   10 * time.Second,
		RetryInterval: time.Second,
		Groups:        []GroupSpec{{ID: 1, Name: "tally", TypeID: tallyType, Hosts: names}},
	}
	for i, n := range names {
		cfg.Peers[n] = udp.Peer{Host: "127.0.0.1", Base: starts[i] - basePort}
	}
	servants := make(map[string]*tally, len(names))
	nodes := make([]*Node, 0, len(names))
	for _, name := range names {
		s := &tally{}
		servants[name] = s
		c := cfg
		c.Node = name
		n, err := StartNode(c, map[string]func() orb.Servant{tallyType: func() orb.Servant { return s }})
		if err != nil {
			t.Fatalf("StartNode(%s): %v", name, err)
		}
		t.Cleanup(n.Stop)
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.WaitReady(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	proxy := nodes[0].Engine.Proxy(replication.GroupRef{ID: 1})
	var want int64
	for i := 1; i <= calls; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i*97%3000)
		out, err := proxy.Invoke("put", cdr.Long(int32(i)), cdr.OctetSeq(payload))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want += int64(i)
		if got := out[0].AsLongLong(); got != want {
			t.Fatalf("call %d: sum %d, want %d", i, got, want)
		}
		if echo := out[1].AsOctetSeq(); !bytes.Equal(echo, payload) {
			t.Fatalf("call %d: echoed %d bytes differ from the %d sent", i, len(echo), len(payload))
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, name := range names {
		for {
			sum, n := servants[name].snapshot()
			if sum == want && n == calls {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s: sum %d after %d calls, want %d after %d", name, sum, n, want, calls)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
