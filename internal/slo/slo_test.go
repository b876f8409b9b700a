package slo

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/replication"
)

// TestSLOCalmRun drives a small calm workload end to end: every arrival
// completes, no invariant trips, and the bookkeeping is self-consistent.
func TestSLOCalmRun(t *testing.T) {
	res, err := Run(Config{
		Seed:     11,
		Groups:   6,
		Clients:  20000,
		Workers:  64,
		Rate:     300,
		Duration: 2 * time.Second,
		Styles:   []replication.Style{replication.Active, replication.WarmPassive},
		Progress: t.Logf,
	})
	if err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors in a calm run", res.Errors)
	}
	if res.Acked != int64(res.Arrivals) {
		t.Fatalf("acked %d of %d arrivals", res.Acked, res.Arrivals)
	}
	if got := res.All.Count(); got != uint64(res.Arrivals) {
		t.Fatalf("histogram holds %d samples, want %d", got, res.Arrivals)
	}
	// With no chaos, every arrival is calm and the calm histogram is the
	// whole distribution.
	if res.Calm.Count() != res.All.Count() {
		t.Fatalf("calm %d != all %d without chaos", res.Calm.Count(), res.All.Count())
	}
	var styled uint64
	for _, h := range res.ByStyle {
		styled += h.Count()
	}
	if styled != res.All.Count() {
		t.Fatalf("style split %d != all %d", styled, res.All.Count())
	}
	if res.Goodput <= 0 || res.ActiveClients == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.All.Quantile(0.999) > 5*time.Second {
		t.Fatalf("calm p999 %v is absurd", res.All.Quantile(0.999))
	}
}

// TestSLOHarnessDeterministic: the same seed and chaos plan must reproduce
// the identical arrival schedule and the identical fault schedule, and both
// runs must finish invariant-clean. (Latencies differ — wall-clock noise is
// real — but everything the harness *injects* replays bit-identically.)
func TestSLOHarnessDeterministic(t *testing.T) {
	cfg := Config{
		Seed:     43,
		Groups:   6,
		Replicas: 3,
		Clients:  20000,
		Workers:  64,
		Rate:     250,
		Duration: 4 * time.Second,
		Chaos: &ChaosPlan{
			Kinds:    []chaos.EpisodeKind{chaos.EpCrashRestart, chaos.EpTokenDrop, chaos.EpDelaySpike},
			Episodes: 2,
		},
		Progress: t.Logf,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1 invariants: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2 invariants: %v", err)
	}
	if a.ScheduleHash != b.ScheduleHash || a.Arrivals != b.Arrivals {
		t.Fatalf("arrival schedules diverged: %x/%d vs %x/%d",
			a.ScheduleHash, a.Arrivals, b.ScheduleHash, b.Arrivals)
	}
	if !reflect.DeepEqual(a.ChaosSchedule, b.ChaosSchedule) {
		t.Fatalf("chaos schedules diverged:\n%s\nvs\n%s",
			a.ChaosSchedule.Describe(), b.ChaosSchedule.Describe())
	}
	if len(a.ChaosSchedule.Episodes) != 2 {
		t.Fatalf("want 2 episodes, got %d", len(a.ChaosSchedule.Episodes))
	}
	// The fault windows must have caught traffic on both runs: arrivals
	// intended inside an episode window land in the per-kind histograms.
	for _, res := range []*Result{a, b} {
		var faulted uint64
		for _, h := range res.ByKind {
			faulted += h.Count()
		}
		if faulted == 0 {
			t.Fatal("no arrivals classified into fault windows")
		}
		if res.Calm.Count()+faulted != res.All.Count() {
			t.Fatalf("window classification leaks samples: calm %d + faulted %d != all %d",
				res.Calm.Count(), faulted, res.All.Count())
		}
	}
}

// TestSLOCoordinatedOmission is the harness's reason to exist: stall the
// server mid-run and check that the open-loop percentiles (measured from
// intended arrival times) absorb the queueing that the closed-loop view
// (measured from actual invocation start) silently omits.
func TestSLOCoordinatedOmission(t *testing.T) {
	const stall = 1500 * time.Millisecond
	gate := &StallGate{}
	res, err := Run(Config{
		Seed:     5,
		Groups:   1,
		Clients:  5000,
		Workers:  8, // a small pool: most stalled-window arrivals queue behind it
		Rate:     400,
		Duration: 5 * time.Second,
		Stall:    gate,
		OnStart: func() {
			// Stall the servants from 1s into the run until 1s+stall.
			time.AfterFunc(time.Second, func() {
				gate.StallUntil(time.Now().Add(stall))
			})
		},
		Progress: t.Logf,
	})
	if err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	open := res.All.Quantile(0.99)
	closed := res.Service.Quantile(0.99)
	t.Logf("open-loop p99 %v, closed-loop p99 %v (stall %v)", open, closed, stall)
	// ~600 arrivals are due during the stall but only 8 workers block inside
	// invocations, so the closed-loop p99 barely sees it while the open-loop
	// p99 must reflect a large fraction of the stall.
	if open < stall/3 {
		t.Fatalf("open-loop p99 %v does not reflect the %v stall", open, stall)
	}
	if closed >= open/2 {
		t.Fatalf("closed-loop p99 %v too close to open-loop %v: the delta is the point", closed, open)
	}
}

// TestSLOWALBounded drives an SLO-shaped cold-passive load heavy enough
// that each group logs many checkpoint periods' worth of operations, then
// relies on checkInvariants' WAL-bound assertion (via Run) and re-verifies
// the bound directly: compaction must hold every member's live log at one
// checkpoint plus at most ~two periods of updates no matter how many ops
// were driven.
func TestSLOWALBounded(t *testing.T) {
	res, err := Run(Config{
		Seed:     17,
		Groups:   4,
		Clients:  8000,
		Workers:  64,
		Rate:     600,
		Duration: 2 * time.Second,
		Styles:   []replication.Style{replication.ColdPassive, replication.WarmPassive},
		Progress: t.Logf,
	})
	if err != nil {
		t.Fatalf("invariants (includes WAL bound): %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors in a calm run", res.Errors)
	}
	// Sanity: the run must actually have driven enough mutations per group
	// to exceed the bound many times over, or the invariant proves nothing.
	perGroup := float64(res.Acked) / float64(res.Groups)
	if perGroup < 4*walBound {
		t.Fatalf("only ~%.0f ops/group acked; need ≥ %d for the bound to bite", perGroup, 4*walBound)
	}
}

// TestSLOLeaderFollowerReadHeavy drives the LEADER_FOLLOWER style through
// the harness with an explicit 90% read mix: reads ride the leased local
// path, writes the direct leader path, and the exactly-once + WAL-bound
// invariants (checked inside Run) must still hold.
func TestSLOLeaderFollowerReadHeavy(t *testing.T) {
	res, err := Run(Config{
		Seed:      31,
		Groups:    6,
		Replicas:  3,
		Clients:   20000,
		Workers:   64,
		Rate:      400,
		Duration:  2 * time.Second,
		ReadShare: 0.9,
		Styles:    []replication.Style{replication.LeaderFollower},
		Progress:  t.Logf,
	})
	if err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors in a calm LF run", res.Errors)
	}
	if res.Acked != int64(res.Arrivals) {
		t.Fatalf("acked %d of %d arrivals", res.Acked, res.Arrivals)
	}
	st, ok := res.ByStyle["LEADER_FOLLOWER"]
	if !ok || st.Count() == 0 {
		t.Fatalf("no LEADER_FOLLOWER samples: %v", res.ByStyle)
	}
	// The 0.9 cut must actually skew the mix: mutations should be a small
	// minority of arrivals (binomially ~10%; assert < 20%).
	if res.Mutations*5 > int64(res.Arrivals) {
		t.Fatalf("read-heavy mix not applied: %d mutations of %d arrivals", res.Mutations, res.Arrivals)
	}
}
