package totem

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

func newSeqCluster(t *testing.T, n int) (map[string]*Sequencer, map[string]*[]Deliver, *sync.Mutex) {
	t.Helper()
	fabric := netsim.NewFabric(netsim.Config{})
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("s%d", i+1))
	}
	for _, m := range members {
		fabric.AddNode(m)
	}
	seqs := make(map[string]*Sequencer)
	logs := make(map[string]*[]Deliver)
	var mu sync.Mutex
	for _, m := range members {
		log := &[]Deliver{}
		logs[m] = log
		s, err := NewSequencer(fabric, m, members, 5000, func(d Delivery) {
			mu.Lock()
			*log = append(*log, d.Deliver)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		seqs[m] = s
	}
	t.Cleanup(func() {
		for _, s := range seqs {
			s.Stop()
		}
	})
	return seqs, logs, &mu
}

func TestSequencerTotalOrder(t *testing.T) {
	seqs, logs, mu := newSeqCluster(t, 3)
	const perNode = 30
	for name, s := range seqs {
		name, s := name, s
		go func() {
			for i := 0; i < perNode; i++ {
				s.Multicast("g", []byte(fmt.Sprintf("%s-%d", name, i)))
			}
		}()
	}
	total := perNode * len(seqs)
	waitFor(t, 5*time.Second, "sequencer deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, log := range logs {
			if len(*log) < total {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	ref := (*logs["s1"])[:total]
	for name, log := range logs {
		got := (*log)[:total]
		for i := range ref {
			if string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s diverges at %d", name, i)
			}
			if i > 0 && got[i].Seq != got[i-1].Seq+1 {
				t.Fatalf("%s: non-contiguous seq at %d", name, i)
			}
		}
	}
}

func TestSequencerStop(t *testing.T) {
	seqs, _, _ := newSeqCluster(t, 2)
	s := seqs["s1"]
	s.Stop()
	if err := s.Multicast("g", nil); err != ErrStopped {
		t.Errorf("Multicast after stop: %v", err)
	}
	s.Stop() // idempotent
}

func TestSequencerNeedsMembers(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{})
	if _, err := NewSequencer(fabric, "x", nil, 1, nil); err == nil {
		t.Error("want error for empty member list")
	}
}

func TestSeqPktRoundTrip(t *testing.T) {
	m := seqData{seq: 9, group: "g", sender: "s1", payload: []byte("p")}
	for _, stamped := range []bool{true, false} {
		gotStamped, got, err := decodeSeqPkt(encodeSeqPkt(stamped, m))
		if err != nil || gotStamped != stamped {
			t.Fatalf("stamped=%v: %v %v", stamped, gotStamped, err)
		}
		if got.seq != m.seq || got.group != m.group || got.sender != m.sender || string(got.payload) != "p" {
			t.Fatalf("got %+v", got)
		}
	}
	if _, _, err := decodeSeqPkt([]byte{'X'}); err == nil {
		t.Error("bad type must error")
	}
}
