// Command benchcmp diffs benchmark snapshots produced by cmd/benchjson and
// exits non-zero on a regression:
//
//	go run ./cmd/benchcmp -threshold 20 BENCH_pr2.json,BENCH_pr6_base.json BENCH_pr6.json
//
// The first argument is the baseline — a comma-separated list of snapshot
// files merged left-to-right (the first occurrence of a benchmark wins), so
// frozen baselines from different PRs compose without rewriting history.
// The second argument is the candidate.
//
// Gating is table-driven: the metric registry below declares every
// comparable quantity — where to read it from a record, which direction is
// better, how much drift is tolerated, and whether it gates everywhere or
// only on headline benchmarks. Adding a new gated metric (the SLO harness's
// p99_us, goodput_ops, …) is one registry row; no per-metric comparison
// code.
//
// Benchmarks or metrics present on only one side are listed but never gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
)

type record struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsPerOp  float64            `json:"ns_op"`
	BytesOp  *int64             `json:"bytes_op,omitempty"`
	AllocsOp *int64             `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// gate describes when a metric's drift fails the comparison.
type gate int

const (
	// gateAll gates on every benchmark carrying the metric.
	gateAll gate = iota
	// gateHeadline gates only on benchmarks matching the -headline regexp;
	// elsewhere the metric is reported as ungated host drift.
	gateHeadline
	// gateNever reports the metric but never fails on it.
	gateNever
)

// metric is one registry row: a named quantity extractable from a record
// plus its comparison policy.
type metric struct {
	name string
	// get extracts the value; ok=false when the record lacks the metric.
	get func(r record) (v float64, ok bool)
	// higherIsBetter flips the regression direction (goodput vs latency).
	higherIsBetter bool
	// threshold is the tolerated adverse drift in percent; zero means "use
	// the -threshold flag's default".
	threshold float64
	gate      gate
}

// extraMetric builds a registry row reading Extra[key] — the one-liner that
// makes new b.ReportMetric units comparable.
func extraMetric(key string, higherIsBetter bool, threshold float64, g gate) metric {
	return metric{
		name: key,
		get: func(r record) (float64, bool) {
			v, ok := r.Extra[key]
			return v, ok
		},
		higherIsBetter: higherIsBetter,
		threshold:      threshold,
		gate:           g,
	}
}

// registry declares every comparable metric. Order is display order.
//
//   - ns/op gates only on headline benchmarks: end-to-end protocol paths
//     reproduce within a few percent across runs, while CPU-bound
//     micro-loops drift more than 20% with the shared VM's day-to-day
//     performance and gate via their allocation counts instead.
//   - allocs/op is deterministic and host-independent: any growth past the
//     threshold is real, so it gates everywhere.
//   - The SLO harness metrics (cmd/ftbench -e slo): p50/p99 latency and
//     goodput gate; p999 and the blackout tail are reported but ungated —
//     on a single shared core their run-to-run variance is the tail being
//     measured.
var registry = []metric{
	{name: "ns/op", get: func(r record) (float64, bool) { return r.NsPerOp, r.NsPerOp > 0 }, gate: gateHeadline},
	{name: "allocs/op", get: func(r record) (float64, bool) {
		if r.AllocsOp == nil {
			return 0, false
		}
		return float64(*r.AllocsOp), true
	}, gate: gateAll},
	extraMetric("p50_us", false, 0, gateNever),
	extraMetric("p99_us", false, 0, gateAll),
	extraMetric("p999_us", false, 0, gateNever),
	extraMetric("goodput_ops", true, 0, gateAll),
	extraMetric("blackout_p99_ms", false, 0, gateNever),
	extraMetric("errors", false, 0, gateNever),
	// Disaster recovery (cmd/ftbench -e dr). rpo_ops and eo_violations are
	// correctness counters with a zero baseline: any nonzero candidate is
	// infinite adverse drift and fails. rto_ms is wall-clock promotion time
	// on a shared core — the wide threshold catches an order-of-magnitude
	// regression (a stall in the promote path) without tripping on
	// scheduler noise.
	extraMetric("rpo_ops", false, 0, gateAll),
	extraMetric("eo_violations", false, 0, gateAll),
	extraMetric("rto_ms", false, 400, gateAll),
	// Fail detection (cmd/ftbench -e fd). false_evictions is a correctness
	// counter with a zero baseline: one storm-evicted healthy node is an
	// infinite adverse drift and fails. detect_ms is wall-clock confirmed
	// detection latency (suspicion + confirm grace + reformation) on a
	// shared core — the wide threshold catches a stalled detector without
	// tripping on scheduler noise. The storm/calm ratio is informational:
	// both sides gate separately.
	extraMetric("false_evictions", false, 0, gateAll),
	extraMetric("detect_ms", false, 400, gateAll),
	extraMetric("detect_ratio", false, 0, gateNever),
	// Multi-process throughput (cmd/ftbench -e e2mp): cells are best-of-3
	// but still ride a single shared core, where scheduler phasing moves
	// whole cells ±25%; the wide threshold catches real collapses (a cell
	// halving) without tripping on host noise. The derived ratio is
	// informational — its numerator and denominator gate separately.
	extraMetric("ops_s", true, 40, gateAll),
	extraMetric("vs_baseline", true, 0, gateNever),
	// Leader-follower (cmd/ftbench -e lf). read_p99_us is the leased read's
	// tail — single-digit µs of local RPC, so host noise moves it by
	// multiples; the wide threshold still catches the failure it guards
	// against, reads losing the lease and falling back onto the ordered
	// path (a ~10x jump). blackout_ms is dominated by the successor's
	// deterministic lease fence (150 ms lease + 20 ms guard past takeover),
	// so a doubling means the handover itself stalled. The p50s, the write
	// percentiles, and the write/ACTIVE ratio are informational.
	extraMetric("read_p50_us", false, 0, gateNever),
	extraMetric("read_p99_us", false, 150, gateAll),
	extraMetric("write_p50_us", false, 0, gateNever),
	extraMetric("write_p99_us", false, 0, gateNever),
	extraMetric("active_p50_us", false, 0, gateNever),
	extraMetric("vs_active", false, 0, gateNever),
	extraMetric("blackout_ms", false, 100, gateAll),
}

// verdict is one (benchmark, metric) comparison.
type verdict struct {
	bench, metric string
	old, new      float64
	delta         float64 // adverse drift in percent (positive = worse)
	gated         bool
	fail          bool
}

// compare runs the registry over one benchmark present in both snapshots.
// defaultThreshold fills registry rows with no explicit threshold;
// headline scopes gateHeadline rows.
func compare(base, cand record, defaultThreshold float64, headline *regexp.Regexp) []verdict {
	var out []verdict
	for _, m := range registry {
		b, okB := m.get(base)
		c, okC := m.get(cand)
		if !okB || !okC {
			continue
		}
		v := verdict{bench: base.Name, metric: m.name, old: b, new: c}
		// Adverse drift: how far the candidate moved in the *worse*
		// direction, in percent of the baseline.
		switch {
		case b == 0 && c == 0:
			v.delta = 0
		case b == 0:
			v.delta = math.Inf(1)
			if m.higherIsBetter {
				v.delta = math.Inf(-1)
			}
		default:
			v.delta = (c - b) / math.Abs(b) * 100
		}
		if m.higherIsBetter {
			v.delta = -v.delta
		}
		thr := m.threshold
		if thr == 0 {
			thr = defaultThreshold
		}
		switch m.gate {
		case gateAll:
			v.gated = true
		case gateHeadline:
			v.gated = headline != nil && headline.MatchString(base.Name)
		}
		v.fail = v.gated && v.delta > thr
		out = append(out, v)
	}
	return out
}

// load reads one snapshot file into name→record plus file order.
func load(path string) (map[string]record, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]record, len(recs))
	order := make([]string, 0, len(recs))
	for _, r := range recs {
		if _, dup := m[r.Name]; !dup {
			order = append(order, r.Name)
		}
		m[r.Name] = r
	}
	return m, order, nil
}

// loadMerged reads a comma-separated list of snapshot files; earlier files
// win name collisions.
func loadMerged(paths string) (map[string]record, []string, error) {
	merged := make(map[string]record)
	var order []string
	for _, path := range strings.Split(paths, ",") {
		m, o, err := load(path)
		if err != nil {
			return nil, nil, err
		}
		for _, name := range o {
			if _, dup := merged[name]; dup {
				continue
			}
			merged[name] = m[name]
			order = append(order, name)
		}
	}
	return merged, order, nil
}

func main() {
	threshold := flag.Float64("threshold", 20, "default max adverse drift in percent before failing")
	// The serial-invocation bench is excluded from the default gate: its
	// latency rides token-rotation timing and swings ±25% run to run,
	// beyond any threshold that would still catch real regressions. The
	// pipelined and marshal benches are CPU-bound and stable.
	headline := flag.String("headline", "PR2(Pipelined|GIOPMarshal)",
		"regexp of benchmarks whose ns/op gates (allocs/op and SLO metrics always gate)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold pct] [-headline re] base.json[,base2.json...] candidate.json")
		os.Exit(2)
	}
	headlineRe, err := regexp.Compile(*headline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp: bad -headline:", err)
		os.Exit(2)
	}
	base, order, err := loadMerged(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cand, _, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	failed := false
	fmt.Printf("%-40s %-16s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "drift")
	for _, name := range order {
		b := base[name]
		c, ok := cand[name]
		if !ok {
			fmt.Printf("%-40s %-16s %14s %14s %9s\n", name, "-", "-", "missing", "-")
			continue
		}
		for _, v := range compare(b, c, *threshold, headlineRe) {
			mark := ""
			switch {
			case v.fail:
				mark = "  FAIL"
				failed = true
			case !v.gated && v.delta > *threshold:
				mark = "  (not gated)"
			}
			fmt.Printf("%-40s %-16s %14.1f %14.1f %+8.1f%%%s\n", name, v.metric, v.old, v.new, v.delta, mark)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchcmp: regression beyond %.0f%% against %s\n", *threshold, flag.Arg(0))
		os.Exit(1)
	}
}
