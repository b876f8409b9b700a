package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/totem"
)

// T1Totem microbenchmarks the group communication substrate: ordered
// multicast latency (send to self-delivery) and throughput across ring
// sizes, with the classic fixed-sequencer protocol as the ablation
// baseline. Expected shape: ring latency grows with ring size (the token
// must reach the sender before it may transmit); the sequencer has lower
// small-scale latency but a central bottleneck and no fault tolerance.
func T1Totem(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "Ordered multicast microbenchmark: token ring vs fixed sequencer",
		Columns: []string{"protocol", "nodes", "payload(B)", "latency mean(us)", "msgs/s (burst)"},
		Notes: []string{
			"latency = multicast to self-delivery at the sender",
			"throughput = burst of messages timed to last delivery at one node",
		},
	}
	for _, nodes := range []int{2, 3, 5} {
		for _, size := range []int{64, 1024} {
			lat, thr, err := ringTrial(nodes, size, scale)
			if err != nil {
				return nil, fmt.Errorf("T1 ring %d/%d: %w", nodes, size, err)
			}
			t.Rows = append(t.Rows, []string{
				"totem-ring", fmt.Sprint(nodes), fmt.Sprint(size),
				usStr(lat.mean), fmt.Sprintf("%.0f", thr),
			})
		}
	}
	for _, nodes := range []int{2, 3, 5} {
		for _, size := range []int{64, 1024} {
			lat, thr, err := sequencerTrial(nodes, size, scale)
			if err != nil {
				return nil, fmt.Errorf("T1 seq %d/%d: %w", nodes, size, err)
			}
			t.Rows = append(t.Rows, []string{
				"sequencer", fmt.Sprint(nodes), fmt.Sprint(size),
				usStr(lat.mean), fmt.Sprintf("%.0f", thr),
			})
		}
	}
	return t, nil
}

func ringTrial(nodes, size int, scale Scale) (summary, float64, error) {
	names := make([]string, 0, nodes)
	for i := 1; i <= nodes; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}
	tp, err := benchTransport(names)
	if err != nil {
		return summary{}, 0, err
	}
	var delivered atomic.Int64
	rings := make([]*totem.Ring, 0, nodes)
	defer func() {
		for _, r := range rings {
			r.Stop()
		}
	}()
	for _, n := range names {
		r, err := totem.NewRing(tp, totem.Config{
			Node:              n,
			Universe:          names,
			Port:              4000,
			HeartbeatInterval: heartbeat,
		})
		if err != nil {
			return summary{}, 0, err
		}
		var c totem.Consumer
		if len(rings) == 0 { // the sender
			c.Deliver = countMessages(&delivered)
		}
		r.Start(c)
		rings = append(rings, r)
	}
	sender := rings[0]
	if err := sender.JoinGroup("bench"); err != nil {
		return summary{}, 0, err
	}
	// Wait for a stable full ring.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, members := sender.CurrentRing(); len(members) == nodes {
			break
		}
		if time.Now().After(deadline) {
			return summary{}, 0, fmt.Errorf("ring never formed")
		}
		time.Sleep(time.Millisecond)
	}

	payload := payloadOf(size)
	lat, err := measure(scale, func() error {
		base := delivered.Load()
		if err := sender.Multicast("bench", payload); err != nil {
			return err
		}
		return waitDelivered(&delivered, base+1, 10*time.Second)
	})
	if err != nil {
		return summary{}, 0, err
	}

	// Throughput: burst, then count deliveries.
	burst := scale.Invocations * 4
	base := delivered.Load()
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := sender.Multicast("bench", payload); err != nil {
			return summary{}, 0, err
		}
	}
	if err := waitDelivered(&delivered, base+int64(burst), 60*time.Second); err != nil {
		return summary{}, 0, fmt.Errorf("burst: %w", err)
	}
	thr := float64(burst) / time.Since(start).Seconds()
	return lat, thr, nil
}

func sequencerTrial(nodes, size int, scale Scale) (summary, float64, error) {
	names := make([]string, 0, nodes)
	for i := 1; i <= nodes; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	tp, err := benchTransport(names)
	if err != nil {
		return summary{}, 0, err
	}
	var delivered atomic.Int64
	seqs := make([]*totem.Sequencer, 0, nodes)
	defer func() {
		for _, s := range seqs {
			s.Stop()
		}
	}()
	for i, n := range names {
		// Measure at a non-sequencer node (worst case: two hops).
		var deliver func(totem.Delivery)
		if i == len(names)-1 {
			deliver = countMessages(&delivered)
		}
		s, err := totem.NewSequencer(tp, n, names, 5000, deliver)
		if err != nil {
			return summary{}, 0, err
		}
		seqs = append(seqs, s)
	}
	sender := seqs[len(seqs)-1]

	payload := payloadOf(size)
	lat, err := measure(scale, func() error {
		base := delivered.Load()
		if err := sender.Multicast("bench", payload); err != nil {
			return err
		}
		return waitDelivered(&delivered, base+1, 10*time.Second)
	})
	if err != nil {
		return summary{}, 0, err
	}

	burst := scale.Invocations * 4
	base := delivered.Load()
	start := time.Now()
	for i := 0; i < burst; i++ {
		if err := sender.Multicast("bench", payload); err != nil {
			return summary{}, 0, err
		}
	}
	if err := waitDelivered(&delivered, base+int64(burst), 60*time.Second); err != nil {
		return summary{}, 0, fmt.Errorf("burst: %w", err)
	}
	thr := float64(burst) / time.Since(start).Seconds()
	return lat, thr, nil
}

// waitDelivered polls the delivery counter until it reaches target.
func waitDelivered(counter *atomic.Int64, target int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if counter.Load() >= target {
			return nil
		}
		time.Sleep(20 * time.Microsecond)
	}
	return fmt.Errorf("delivery timeout (%d/%d)", counter.Load(), target)
}

// countMessages returns a consumer that counts message deliveries into n.
func countMessages(n *atomic.Int64) func(totem.Delivery) {
	return func(d totem.Delivery) {
		if d.Event == nil {
			n.Add(1)
		}
	}
}
