package chaos

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/totem"
)

// The fd storm episode reproduces a provisioning storm's false-eviction
// risk in miniature: four ring members under a sustained multicast storm,
// one of which is repeatedly slowed (all its datagrams delayed, both
// directions) but never actually dies. A fixed silence timeout would
// read the first long pause as a death and reform the ring without
// the node — a false eviction, paid again on re-admission. The
// phi-accrual detector must instead suspect the node, hold it through the
// confirm grace, and retract when its heartbeats resume: zero evictions,
// with the suspect/recover lifecycle visible on the fault notifier and no
// report lost to subscriber overflow.

// fdStormPort keeps this episode's rings off the harness's ringPort.
const fdStormPort = 4400

type fdStormResult struct {
	evictions int    // full views on healthy nodes that excluded the slow node
	suspects  int64  // EventSuspect reports naming the slow node
	recovers  int64  // EventRecover reports naming the slow node
	dropped   uint64 // notifier reports lost to subscriber overflow
}

// fdStormRun drives the episode and reports what the healthy members
// observed. Timing: heartbeat 4ms, floor window 24ms, confirm grace 90ms.
// The slow-node pulses delay the victim's traffic for 30ms (primes the
// estimator with one flap), then 3×55ms — more than twice the 24ms floor
// window, yet comfortably short of the dead point (suspect at roughly
// the window, plus the 90ms dwell).
func fdStormRun(t *testing.T) fdStormResult {
	t.Helper()
	nodes := []string{"a", "b", "c", "d"}
	const victim = "d" // sorts last, so a healthy node always coordinates

	fabric := netsim.NewFabric(netsim.Config{
		Latency: 50 * time.Microsecond,
		Jitter:  100 * time.Microsecond,
		Seed:    23,
	})
	for _, n := range nodes {
		fabric.AddNode(n)
	}

	notifier := &fault.Notifier{}
	var suspects, recovers atomic.Int64
	repCh, cancelSub := notifier.Subscribe(nil)
	repDone := make(chan struct{})
	go func() {
		defer close(repDone)
		for r := range repCh {
			if r.Node != victim {
				continue
			}
			switch r.Event {
			case fault.EventSuspect:
				suspects.Add(1)
			case fault.EventRecover:
				recovers.Add(1)
			}
		}
	}()

	var evictions atomic.Int64
	rings := make([]*totem.Ring, 0, len(nodes))
	var evWG sync.WaitGroup
	for _, n := range nodes {
		ring, err := totem.NewRing(fabric, totem.Config{
			Node:              n,
			Universe:          nodes,
			Port:              fdStormPort,
			HeartbeatInterval: 4 * time.Millisecond,
			MaxFailTimeout:    96 * time.Millisecond,
			ConfirmGrace:      90 * time.Millisecond,
			StrictInvariants:  true,
			Faults:            notifier,
		})
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, ring)
		evWG.Add(1)
		// Drain every ring's events; on the healthy nodes, count views
		// that exclude the victim after a full view was installed (the
		// startup views grow toward full membership and must not count).
		healthy := n != victim
		sawFull := false
		go consumeViews(ring, func(vc totem.ViewChange) {
			hasVictim := false
			for _, m := range vc.Members {
				if m == victim {
					hasVictim = true
				}
			}
			switch {
			case len(vc.Members) == len(nodes) && hasVictim:
				sawFull = true
			case healthy && sawFull && !hasVictim:
				evictions.Add(1)
			}
		}, evWG.Done)
		ring.Start()
	}
	defer func() {
		for _, r := range rings {
			r.Stop()
		}
		evWG.Wait()
		cancelSub()
		<-repDone
	}()

	waitFullViews(t, rings, len(nodes))

	// Saturate the data plane for the whole episode: two producers
	// multicasting as fast as backpressure admits. The control-plane
	// priority lane is what keeps the heartbeats and tokens from queueing
	// behind this backlog.
	for _, r := range rings {
		if err := r.JoinGroup("storm"); err != nil {
			t.Fatal(err)
		}
	}
	stopStorm := make(chan struct{})
	var stormWG sync.WaitGroup
	payload := make([]byte, 256)
	for _, r := range rings[:2] {
		stormWG.Add(1)
		go func(r *totem.Ring) {
			defer stormWG.Done()
			for {
				select {
				case <-stopStorm:
					return
				default:
				}
				if err := r.Multicast("storm", payload); err != nil {
					return
				}
			}
		}(r)
	}

	for _, d := range []time.Duration{
		30 * time.Millisecond,
		55 * time.Millisecond,
		55 * time.Millisecond,
		55 * time.Millisecond,
	} {
		fabric.SetNodeDelay(victim, d)
		time.Sleep(d)
		fabric.SetNodeDelay(victim, 0)
		time.Sleep(150 * time.Millisecond) // recover, re-observe, re-widen
	}

	// Whatever the detector did, the ring must converge back to full
	// membership once the slow node's traffic flows normally again.
	waitFullViews(t, rings, len(nodes))
	close(stopStorm)
	stormWG.Wait()

	return fdStormResult{
		evictions: int(evictions.Load()),
		suspects:  suspects.Load(),
		recovers:  recovers.Load(),
		dropped:   notifier.Dropped(),
	}
}

// waitFullViews blocks until every ring reports a view with n members.
func waitFullViews(t *testing.T, rings []*totem.Ring, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, r := range rings {
			if _, members := r.CurrentRing(); len(members) != n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, r := range rings {
				_, m := r.CurrentRing()
				t.Logf("%s: view %v", r.Node(), m)
			}
			t.Fatal("rings never converged to the full view")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The adaptive detector must hold a slowed-but-alive member through every
// pulse: suspicions raised and retracted, no view ever excluding it, and
// no fault report lost.
func TestFDStormAdaptiveHoldsSlowNode(t *testing.T) {
	res := fdStormRun(t)
	if res.evictions != 0 {
		t.Fatalf("adaptive detector evicted the slow-but-alive node %d time(s)", res.evictions)
	}
	if res.suspects == 0 {
		t.Fatal("no suspicion was ever raised for the slow node — the pulses did not bite")
	}
	if res.recovers == 0 {
		t.Fatal("suspicions raised but never retracted for the slow node")
	}
	if res.dropped != 0 {
		t.Fatalf("notifier dropped %d fault reports (subscriber overflow)", res.dropped)
	}
}

// consumeViews hands every ViewChange of s to fn, in order, and calls done
// once s stops.
func consumeViews(s *totem.Ring, fn func(totem.ViewChange), done func()) {
	defer done()
	var batch []totem.Delivery
	for {
		var closed bool
		batch, closed = s.Drain(batch)
		for i := range batch {
			if vc, ok := batch[i].Event.(totem.ViewChange); ok {
				fn(vc)
			}
		}
		if closed {
			return
		}
		if len(batch) == 0 {
			<-s.Ready()
		}
	}
}
