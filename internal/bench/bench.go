// Package bench is the experiment harness: it regenerates the paper-style
// evaluation tables (E1–E8 in DESIGN.md) plus the group-communication
// microbenchmark (T1). Each experiment builds a fresh FT domain on the
// simulated network, drives a workload, and reports a Table; cmd/ftbench
// prints them and EXPERIMENTS.md records the measured shapes.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/transport"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Scale selects run sizes: Quick for `go test -bench`, Full for ftbench.
type Scale struct {
	// Invocations per measured cell.
	Invocations int
	// Warmup invocations before measuring.
	Warmup int
}

// QuickScale keeps unit-test bench runs fast.
var QuickScale = Scale{Invocations: 60, Warmup: 10}

// FullScale is what cmd/ftbench uses.
var FullScale = Scale{Invocations: 400, Warmup: 50}

// netConfig is the simulated LAN used by all experiments. Link latency is
// zero: the host's sleep/timer resolution (~1ms on virtualized kernels)
// would otherwise dwarf the protocol costs being measured, and every
// sub-millisecond sleep rounds up to it. Measured latencies therefore
// reflect protocol + processing costs over an ideal wire (EXPERIMENTS.md
// discusses the implications).
func netConfig() netsim.Config {
	return netsim.Config{Seed: 7}
}

// heartbeat is the default Totem gossip interval for experiments.
const heartbeat = 3 * time.Millisecond

// TransportFactory, when non-nil, supplies the ring transport for every
// domain and ring set the experiments construct (cmd/ftbench sets it for
// `-transport udp`: a fresh loopback udp.Cluster per construction). Nil
// keeps the default: the deterministic netsim fabric. Experiments that
// inject network faults through the fabric (partitions, targeted drops)
// only make sense on the default transport; cmd/ftbench rejects the
// combination rather than silently measuring an un-faulted run.
var TransportFactory func(nodes []string) (transport.Transport, error)

// optionalTransport resolves the factory for core.Options.Transport (nil
// means core uses its own fabric).
func optionalTransport(nodes []string) (transport.Transport, error) {
	if TransportFactory == nil {
		return nil, nil
	}
	return TransportFactory(nodes)
}

// benchTransport resolves a standalone ring transport for experiments
// that build rings without a core.Domain (T1): the factory if set, else a
// fresh fabric with the nodes added.
func benchTransport(nodes []string) (transport.Transport, error) {
	if TransportFactory != nil {
		return TransportFactory(nodes)
	}
	fabric := netsim.NewFabric(netConfig())
	for _, n := range nodes {
		fabric.AddNode(n)
	}
	return fabric, nil
}

// bound is one acceptance bound an experiment checks on its own
// measurement: a ceiling, or a minimum when floor is set.
type bound struct {
	metric     string
	got, limit float64
	unit       string
	floor      bool
}

// checkBounds fails on the first measurement past its bound, naming the
// experiment and the metric; cmd/ftbench exits 1 on it.
func checkBounds(exp string, bs ...bound) error {
	for _, b := range bs {
		if b.floor && b.got < b.limit {
			return fmt.Errorf("%s: %s %.6g%s is below its %.6g%s bound", exp, b.metric, b.got, b.unit, b.limit, b.unit)
		}
		if !b.floor && b.got > b.limit {
			return fmt.Errorf("%s: %s %.6g%s exceeds its %.6g%s bound", exp, b.metric, b.got, b.unit, b.limit, b.unit)
		}
	}
	return nil
}

// --- Echo servant ------------------------------------------------------------

// EchoType is the echo servant's repository id.
const EchoType = "IDL:repro/Echo:1.0"

// EchoServant replies with its argument and retains it as state, so
// passive state transfer cost scales with payload size — the mechanism
// behind the active/passive trade-off the paper discusses.
type EchoServant struct {
	mu    sync.Mutex
	state []byte
}

// NewEchoServant returns a fresh echo servant.
func NewEchoServant() *EchoServant { return &EchoServant{} }

// RepoID returns the repository id.
func (s *EchoServant) RepoID() string { return EchoType }

// Dispatch implements echo (returns and retains the payload), fill
// (sets the state to n zero bytes), and size (returns the state length).
func (s *EchoServant) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch inv.Operation {
	case "echo":
		payload := inv.Args[0].AsOctetSeq()
		s.state = append(s.state[:0], payload...)
		return []cdr.Value{cdr.OctetSeq(payload)}, nil
	case "fill":
		s.state = make([]byte, inv.Args[0].AsULong())
		return nil, nil
	case "size":
		return []cdr.Value{cdr.ULong(uint32(len(s.state)))}, nil
	default:
		return nil, &orb.UserException{Name: "IDL:repro/BadOp:1.0"}
	}
}

// GetState snapshots the retained payload.
func (s *EchoServant) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.state...), nil
}

// SetState restores the retained payload.
func (s *EchoServant) SetState(b []byte) error {
	s.mu.Lock()
	s.state = append([]byte(nil), b...)
	s.mu.Unlock()
	return nil
}

// --- measurement helpers -----------------------------------------------------

// summary holds latency statistics in microseconds.
type summary struct {
	mean, p50, p99 float64
}

func summarize(samples []time.Duration) summary {
	if len(samples) == 0 {
		return summary{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, s := range sorted {
		total += s
	}
	pick := func(q float64) time.Duration {
		idx := int(q*float64(len(sorted)-1) + 0.5)
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) + float64(d.Nanoseconds()%1000)/1000 }
	return summary{
		mean: us(total / time.Duration(len(sorted))),
		p50:  us(pick(0.50)),
		p99:  us(pick(0.99)),
	}
}

func usStr(v float64) string { return fmt.Sprintf("%.1f", v) }

// measure times fn over scale.Invocations after scale.Warmup.
func measure(scale Scale, fn func() error) (summary, error) {
	for i := 0; i < scale.Warmup; i++ {
		if err := fn(); err != nil {
			return summary{}, err
		}
	}
	samples := make([]time.Duration, 0, scale.Invocations)
	for i := 0; i < scale.Invocations; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return summary{}, err
		}
		samples = append(samples, time.Since(start))
	}
	return summarize(samples), nil
}

// buildDomain creates a ready FT domain with n worker nodes plus one
// client node, echo factories everywhere.
func buildDomain(nodes int, orbPort uint16) (*core.Domain, error) {
	names := make([]string, 0, nodes+1)
	for i := 1; i <= nodes; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	names = append(names, "client")
	tp, err := optionalTransport(names)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netConfig(),
		Transport:     tp,
		Heartbeat:     heartbeat,
		ORBPort:       orbPort,
		CallTimeout:   20 * time.Second,
		RetryInterval: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		d.Stop()
		return nil, err
	}
	workers := names[:nodes]
	if err := d.RegisterFactory(EchoType, func() orb.Servant { return NewEchoServant() }, workers...); err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

// createEcho places an echo group with the given style and replica count.
func createEcho(d *core.Domain, style replication.Style, replicas int) (uint64, error) {
	_, gid, err := d.Create("echo", EchoType, &ftcorba.Properties{
		ReplicationStyle:      style,
		InitialNumberReplicas: replicas,
		MembershipStyle:       ftcorba.MembershipApplication, // experiments inject faults themselves
	})
	if err != nil {
		return 0, err
	}
	if err := d.WaitGroupReady(gid, replicas, 10*time.Second); err != nil {
		return 0, err
	}
	return gid, nil
}

func payloadOf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// ByID maps experiment ids to runners.
var ByID = map[string]func(Scale) (*Table, error){
	"e1":   E1LatencyByStyle,
	"e2":   E2ReplicationDegree,
	"e2p":  E2PrimeSharding,
	"e3":   E3Failover,
	"e4":   E4StateTransfer,
	"e5":   E5DuplicateSuppression,
	"e6":   E6CheckpointInterval,
	"e7":   E7PartitionRemerge,
	"e8":   E8Approaches,
	"t1":   T1Totem,
	"slo":  SLOWorkload,
	"e2mp": E2MPMultiProc,
	"dr":   DRRecovery,
	"fd":   FDDetection,
	"lf":   LFLatency,
}
