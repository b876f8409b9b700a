package bench

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/orb"
	"repro/internal/replication"
)

// The LF experiment measures what the LEADER_FOLLOWER style buys over the
// totally-ordered baseline: leased local reads that never enter totem, and
// direct-lane writes whose ack cost is one order delivery instead of the
// full invoke/reply exchange. ACTIVE writes (and LF writes, whose ack gate
// rides the order stream) pay the token's wake-up on an idle ring, while
// the leased read stays at RPC cost. A final cell crashes the leader
// mid-stream and reports the write blackout until the senior follower
// answers again.

// lfResult is the latency cell's measurements.
type lfResult struct {
	activeW summary // ACTIVE style write ("echo"), ordered path
	lfW     summary // LF write, direct lane (ack = own order delivery)
	lfRead  summary // LF read under the lease, no totem entry
}

// lfReadP50Bound is the full-scale acceptance bound on the leased read's
// median at replication degree 3.
const lfReadP50Bound = 100.0 // µs

// LFLatency runs the leader-follower latency experiment (ByID "lf").
func LFLatency(scale Scale) (*Table, error) {
	t, _, err := LFLatencyRecords(scale)
	return t, err
}

// LFLatencyRecords runs the sweep and returns snapshot records
// (read p50/p99, write p50 vs ACTIVE, failover blackout) for the
// regression pipeline.
func LFLatencyRecords(scale Scale) (*Table, []Record, error) {
	res, err := lfRunCell(scale)
	if err != nil {
		return nil, nil, fmt.Errorf("lf: %w", err)
	}

	blackout, err := lfFailoverBlackout()
	if err != nil {
		return nil, nil, fmt.Errorf("lf: failover: %w", err)
	}

	writeRatio := res.lfW.p50 / res.activeW.p50
	tab := &Table{
		ID:    "LF",
		Title: "leader-follower: leased local reads vs ordered-path latency on an idle ring (degree 3)",
		Columns: []string{"active write p50/p99(us)", "lf write p50/p99(us)",
			"lf read p50/p99(us)"},
		Rows: [][]string{{
			usStr(res.activeW.p50) + "/" + usStr(res.activeW.p99),
			usStr(res.lfW.p50) + "/" + usStr(res.lfW.p99),
			usStr(res.lfRead.p50) + "/" + usStr(res.lfRead.p99),
		}},
	}
	tab.Notes = append(tab.Notes,
		"writes enter the ordered stream (ACTIVE per-op total order; LF ack gate = the leader's own order delivery), so both pay the parked token's wake-up",
		"the leased read is served from replica-local state without entering totem",
		fmt.Sprintf("lf write p50 / active write p50 = %.2fx", writeRatio),
		fmt.Sprintf("leader-crash write blackout (crash to first answered write at the successor) = %.1fms", float64(blackout)/1e6),
	)

	if scale.Invocations >= FullScale.Invocations {
		if res.lfRead.p50 > lfReadP50Bound {
			return tab, nil, fmt.Errorf("lf: leased read p50 %.1fus exceeds %.0fus bound",
				res.lfRead.p50, lfReadP50Bound)
		}
	}

	recs := []Record{
		{
			Name:    "lf/read",
			Iters:   int64(scale.Invocations),
			NsPerOp: res.lfRead.p50 * 1e3,
			Extra: map[string]float64{
				"read_p50_us": res.lfRead.p50,
				"read_p99_us": res.lfRead.p99,
			},
		},
		{
			Name:    "lf/write",
			Iters:   int64(scale.Invocations),
			NsPerOp: res.lfW.p50 * 1e3,
			Extra: map[string]float64{
				"write_p50_us":  res.lfW.p50,
				"write_p99_us":  res.lfW.p99,
				"active_p50_us": res.activeW.p50,
				"vs_active":     writeRatio,
			},
		},
		{
			Name:    "lf/failover",
			Iters:   1,
			NsPerOp: float64(blackout.Nanoseconds()),
			Extra:   map[string]float64{"blackout_ms": float64(blackout) / 1e6},
		},
	}
	return tab, recs, nil
}

// lfBuildDomain is a 3-worker domain with an ACTIVE echo group and an LF
// echo group with "size" leased.
func lfBuildDomain() (*core.Domain, *replication.Proxy, *replication.Proxy, uint64, error) {
	names := []string{"n1", "n2", "n3", "client"}
	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netConfig(),
		Heartbeat:     heartbeat,
		CallTimeout:   20 * time.Second,
		RetryInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ok := false
	defer func() {
		if !ok {
			d.Stop()
		}
	}()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return nil, nil, nil, 0, err
	}
	if err := d.RegisterFactory(EchoType, func() orb.Servant { return NewEchoServant() }, "n1", "n2", "n3"); err != nil {
		return nil, nil, nil, 0, err
	}

	gidA, err := createEcho(d, replication.Active, 3)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	pA, err := d.Proxy("client", gidA)
	if err != nil {
		return nil, nil, nil, 0, err
	}

	_, gidL, err := d.Create("lf-echo", EchoType, &ftcorba.Properties{
		ReplicationStyle:      replication.LeaderFollower,
		InitialNumberReplicas: 3,
		MembershipStyle:       ftcorba.MembershipApplication,
		ReadOnlyOps:           []string{"size"},
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := d.WaitGroupReady(gidL, 3, 10*time.Second); err != nil {
		return nil, nil, nil, 0, err
	}
	// Domain.Proxy turns the recorded ReadOnlyOps into the LF fast path.
	pL, err := d.Proxy("client", gidL)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ok = true
	return d, pA, pL, gidL, nil
}

// lfRunCell measures the latency cell: ACTIVE write, LF write, leased read.
func lfRunCell(scale Scale) (*lfResult, error) {
	d, pA, pL, _, err := lfBuildDomain()
	if err != nil {
		return nil, err
	}
	defer d.Stop()

	payload := cdr.OctetSeq(payloadOf(1024))
	res := &lfResult{}
	if res.activeW, err = measure(scale, func() error {
		_, err := pA.Invoke("echo", payload)
		return err
	}); err != nil {
		return nil, fmt.Errorf("active write: %w", err)
	}
	if res.lfW, err = measure(scale, func() error {
		_, err := pL.Invoke("echo", payload)
		return err
	}); err != nil {
		return nil, fmt.Errorf("lf write: %w", err)
	}
	// The writes above double as lease warmup: grants renew at ~Dur/3, so
	// by now every replica holds a live lease and reads stay local.
	if res.lfRead, err = measure(scale, func() error {
		_, err := pL.Invoke("size")
		return err
	}); err != nil {
		return nil, fmt.Errorf("lf read: %w", err)
	}
	return res, nil
}

// lfFailoverBlackout crashes the LF leader under a write stream and
// reports how long writes stay unanswered: crash to the first write the
// senior follower (now leader) acks. The successor fences writes for
// the 150 ms lease plus its 20 ms guard past takeover, so the blackout
// includes the lease drain by design.
func lfFailoverBlackout() (time.Duration, error) {
	d, _, pL, gidL, err := lfBuildDomain()
	if err != nil {
		return 0, err
	}
	defer d.Stop()

	arg := cdr.OctetSeq(payloadOf(64))
	for i := 0; i < 20; i++ {
		if _, err := pL.Invoke("echo", arg); err != nil {
			return 0, fmt.Errorf("warmup write %d: %w", i, err)
		}
	}

	members, err := d.RM.Members(gidL)
	if err != nil {
		return 0, err
	}
	leader := members[0]
	crashAt := time.Now()
	d.CrashNode(leader)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		// Errors during the transition are the client's failover; keep
		// driving until the successor answers.
		if _, err := pL.Invoke("echo", arg); err == nil {
			return time.Since(crashAt), nil
		}
	}
	return 0, fmt.Errorf("lf group never recovered after crashing leader %s", leader)
}
