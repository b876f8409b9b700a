package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/replication"
	"repro/internal/slo"
)

// The SLO experiment drives the open-loop workload harness (internal/slo)
// in two phases — a calm run and a run under a composed chaos schedule —
// and reports tail latency, goodput, and blackout time as percentiles.
// Unlike E1–E8, which measure one invocation at a time, this is the
// system-level view: thousands of groups, a large simulated client
// population, Poisson+burst arrivals, and coordinated-omission-corrected
// latency accounting.

// sloProfile sizes the two phases for a scale tier, with the bounds the
// tier checks on its own result (zero disables one).
type sloProfile struct {
	calm, chaotic slo.Config
	// calmP999Max bounds the calm phase's p999: a tail sanity check for
	// the seconds-long smoke tier.
	calmP999Max time.Duration
	// calmP99Max and chaosP99Max bound each phase's p99.
	calmP99Max, chaosP99Max time.Duration
	// minGoodput is the fraction of each phase's offered Rate that must be
	// acknowledged per second.
	minGoodput float64
}

// sloStyles cycles groups across the styles whose latency profiles the
// paper contrasts. Cold passive joined in PR 8: its per-op logging plus
// checkpoint-anchored compaction is now part of the recorded profile, and
// the harness's WAL-bound invariant runs against it at SLO volume.
var sloStyles = []replication.Style{replication.Active, replication.WarmPassive, replication.ColdPassive}

// sloChaosKinds is the composed episode mix: leader churn (crash-restart),
// protocol-state loss (token-drop), fabric-wide latency (delay-spike), and
// — on sharded runs — single-ring severance (shard-partition).
func sloChaosKinds(shards int) []chaos.EpisodeKind {
	kinds := []chaos.EpisodeKind{chaos.EpCrashRestart, chaos.EpTokenDrop, chaos.EpDelaySpike}
	if shards > 1 {
		kinds = append(kinds, chaos.EpShardPartition)
	}
	return kinds
}

// sloProfileFor maps the harness scale tiers onto run sizes. All rates sit
// well below the single-core saturation point measured in PR5 (~13.5k
// acked ops/s) so the percentiles measure the protocol, not a saturated
// host.
func sloProfileFor(scale Scale, seed int64) sloProfile {
	var p sloProfile
	switch {
	case scale.Invocations <= smokeSLOCutoff:
		// Smoke: seconds-long, exercised by `go test`.
		p.calm = slo.Config{
			Groups: 8, Clients: 4000, Workers: 96,
			Rate: 400, Duration: 2 * time.Second, Burst: 3,
		}
		p.chaotic = slo.Config{
			Groups: 6, Replicas: 3, Clients: 4000, Workers: 96,
			Rate: 300, Duration: 4 * time.Second,
			Chaos: &slo.ChaosPlan{Kinds: sloChaosKinds(1), Episodes: 2},
		}
		// Smoke reads a calm p999 of a few ms; 500 ms leaves two orders of
		// magnitude for a loaded host.
		p.calmP999Max = 500 * time.Millisecond
	case scale.Invocations < FullScale.Invocations:
		// Quick: the CI tier (ftbench -quick).
		p.calm = slo.Config{
			Groups: 48, Clients: 60000, Workers: 256,
			Rate: 1200, Duration: 6 * time.Second, Burst: 4,
			Heartbeat: 5 * time.Millisecond,
		}
		p.chaotic = slo.Config{
			Groups: 16, Replicas: 3, Shards: 2, Clients: 30000, Workers: 192,
			Rate: 700, Duration: 10 * time.Second,
			Heartbeat: 5 * time.Millisecond,
			Chaos:     &slo.ChaosPlan{Kinds: sloChaosKinds(2), Episodes: 4},
		}
	default:
		// Full: the recorded evaluation run. The calm phase is the
		// million-client simulation: ≥1k groups, a 10⁶ client population,
		// ~112k arrivals so >100k distinct clients invoke.
		// The wider heartbeats trade detection latency for fail-detector
		// precision: at thousand-group scale on a shared host, scheduling
		// gaps routinely exceed the tight smoke-tier windows and false
		// positives would dominate the measurement.
		p.calm = slo.Config{
			Groups: 1024, Clients: 1 << 20, Workers: 768, Shards: 4,
			Rate: 2800, Duration: 40 * time.Second, Burst: 4,
			Heartbeat: 25 * time.Millisecond,
		}
		p.chaotic = slo.Config{
			Groups: 64, Replicas: 3, Shards: 2, Clients: 200000, Workers: 512,
			Rate: 1500, Duration: 30 * time.Second,
			Heartbeat: 10 * time.Millisecond,
			Chaos:     &slo.ChaosPlan{Kinds: sloChaosKinds(2), Episodes: 6},
		}
		// Each phase's p99 when the bounds were set (calm 92.27 ms, chaos
		// 51.38 ms) plus 20 %, rounded down, and goodput within 20 % of the
		// offered rate.
		p.calmP99Max = 110700 * time.Microsecond
		p.chaosP99Max = 61600 * time.Microsecond
		p.minGoodput = 0.8
	}
	p.calm.Seed = seed
	p.calm.Styles = sloStyles
	p.chaotic.Seed = seed
	p.chaotic.Styles = sloStyles
	return p
}

// smokeSLOCutoff: scales at or below this invocation count (bench_test's
// smokeScale) get the seconds-long smoke profile.
const smokeSLOCutoff = 8

// SLOWorkload runs the SLO experiment (ByID "slo").
func SLOWorkload(scale Scale) (*Table, error) {
	return SLOWorkloadSeeded(scale, 1, nil)
}

// SLOWorkloadSeeded runs both phases with an explicit seed and fails on a
// result past the scale tier's bounds. progress, when non-nil, receives
// live status lines.
func SLOWorkloadSeeded(scale Scale, seed int64, progress func(string, ...any)) (*Table, error) {
	p := sloProfileFor(scale, seed)
	p.calm.Progress = progress
	p.chaotic.Progress = progress

	calm, err := slo.Run(p.calm)
	if err != nil {
		return nil, fmt.Errorf("slo calm phase: %w", err)
	}
	chaotic, err := slo.Run(p.chaotic)
	if err != nil {
		return nil, fmt.Errorf("slo chaos phase: %w", err)
	}

	tab := &Table{
		ID:    "SLO",
		Title: "open-loop workload: latency percentiles, goodput, and blackout under chaos",
		Columns: []string{"phase", "segment", "samples", "p50(ms)", "p99(ms)", "p999(ms)",
			"max(ms)", "goodput(op/s)", "errors", "blackout p99(ms)"},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
	addRow := func(phase, segment string, h *slo.Hist, goodput float64, errs int64, blackout *slo.Hist) {
		s := h.Snap()
		g, e, b := "-", "-", "-"
		if goodput >= 0 {
			g = fmt.Sprintf("%.0f", goodput)
		}
		if errs >= 0 {
			e = fmt.Sprintf("%d", errs)
		}
		if blackout != nil && blackout.Count() > 0 {
			b = ms(blackout.Quantile(0.99))
		}
		tab.Rows = append(tab.Rows, []string{
			phase, segment, fmt.Sprintf("%d", s.Count),
			ms(s.P50), ms(s.P99), ms(s.P999), ms(s.Max), g, e, b,
		})
	}

	addRow("calm", "all", calm.All, calm.Goodput, calm.Errors, nil)
	for _, style := range sloStyles {
		addRow("calm", style.String(), calm.ByStyle[style.String()], -1, -1, nil)
	}
	addRow("chaos", "all", chaotic.All, chaotic.Goodput, chaotic.Errors, mergedBlackout(chaotic, ""))
	addRow("chaos", "calm-windows", chaotic.Calm, -1, -1, nil)
	kinds := make([]string, 0, len(chaotic.ByKind))
	for k := range chaotic.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if chaotic.ByKind[k].Count() == 0 {
			continue // kind in the plan's mix but not drawn by this seed
		}
		addRow("chaos", k, chaotic.ByKind[k], -1, -1, chaotic.Blackout[k])
	}
	for _, style := range sloStyles {
		addRow("chaos", style.String(), chaotic.ByStyle[style.String()], -1, -1,
			mergedBlackout(chaotic, "/"+style.String()))
	}

	tab.Notes = append(tab.Notes,
		fmt.Sprintf("calm: %d arrivals from %d distinct clients (population %d) over %d groups, schedule %016x",
			calm.Arrivals, calm.ActiveClients, calm.Population, calm.Groups, calm.ScheduleHash),
		fmt.Sprintf("chaos: %d arrivals over %d groups, %d episodes: %s",
			chaotic.Arrivals, chaotic.Groups, len(chaotic.ChaosSchedule.Episodes),
			describeEpisodes(chaotic)),
		"latency is coordinated-omission corrected: measured from intended arrival, not send",
		"blackout p99 is over (episode, group) pairs: the longest per-group completion gap inside each episode window",
	)

	return tab, checkBounds("slo", p.bounds(calm, chaotic)...)
}

// bounds lists the profile's bounds that are set, against the two phases'
// results.
func (p sloProfile) bounds(calm, chaotic *slo.Result) []bound {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var bs []bound
	ceil := func(metric string, got, max time.Duration) {
		if max > 0 {
			bs = append(bs, bound{metric: metric, got: ms(got), limit: ms(max), unit: "ms"})
		}
	}
	ceil("calm p999", calm.All.Quantile(0.999), p.calmP999Max)
	ceil("calm p99", calm.All.Quantile(0.99), p.calmP99Max)
	ceil("chaos p99", chaotic.All.Quantile(0.99), p.chaosP99Max)
	if p.minGoodput > 0 {
		bs = append(bs,
			bound{metric: "calm goodput", got: calm.Goodput, limit: p.minGoodput * p.calm.Rate, unit: " op/s", floor: true},
			bound{metric: "chaos goodput", got: chaotic.Goodput, limit: p.minGoodput * p.chaotic.Rate, unit: " op/s", floor: true},
		)
	}
	return bs
}

// mergedBlackout folds the per-kind blackout histograms whose key carries
// the given suffix ("" = the plain per-kind entries) into one distribution.
func mergedBlackout(res *slo.Result, suffix string) *slo.Hist {
	out := slo.NewHist()
	for key, h := range res.Blackout {
		if suffix == "" && !strings.Contains(key, "/") {
			out.Merge(h)
		} else if suffix != "" && strings.HasSuffix(key, suffix) {
			out.Merge(h)
		}
	}
	return out
}

func describeEpisodes(res *slo.Result) string {
	parts := make([]string, 0, len(res.ChaosSchedule.Episodes))
	for _, ep := range res.ChaosSchedule.Episodes {
		parts = append(parts, fmt.Sprintf("%s@%s", ep.Kind, ep.Victim))
	}
	return strings.Join(parts, " ")
}
