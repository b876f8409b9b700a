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

// Full-scale acceptance bounds at replication degree 3, rounded down. The
// read p99 is 151.1 µs (its value when the bound was set) plus 150 %:
// local RPC moves it by multiples, and reads that lose the lease and fall
// back onto the ordered path jump ~10x. The blackout is 212.0 ms plus
// 100 %: it is dominated by the successor's lease fence (150 ms lease +
// 20 ms guard), so a doubling means the handover itself stalled.
const (
	lfReadP50Bound  = 100.0 // µs
	lfReadP99Bound  = 377.7 // µs
	lfBlackoutBound = 423.9 // ms
)

// LFLatency runs the leader-follower latency experiment (ByID "lf").
func LFLatency(scale Scale) (*Table, error) {
	res, err := lfRunCell(scale)
	if err != nil {
		return nil, fmt.Errorf("lf: %w", err)
	}

	blackout, err := lfFailoverBlackout()
	if err != nil {
		return nil, fmt.Errorf("lf: failover: %w", err)
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

	if scale.Invocations < FullScale.Invocations {
		return tab, nil
	}
	return tab, checkBounds("lf",
		bound{metric: "leased read p50", got: res.lfRead.p50, limit: lfReadP50Bound, unit: "µs"},
		bound{metric: "leased read p99", got: res.lfRead.p99, limit: lfReadP99Bound, unit: "µs"},
		bound{metric: "leader-crash blackout", got: float64(blackout) / 1e6, limit: lfBlackoutBound, unit: "ms"},
	)
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
