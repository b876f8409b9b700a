package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/drstore"
	"repro/internal/ftcorba"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/replication"
)

// The DR experiment measures the disaster-recovery tier end to end: a
// primary domain ships checkpoints and update segments into a drstore while
// serving load, every replica node fail-stops mid-load, and a warm standby
// domain promotes the shipped groups. Reported: RPO in operations (acked
// at kill minus recovered — must be zero: every style ships before the
// client ack), RTO in milliseconds (kill to first successful standby
// invocation), and exactly-once violations across the takeover (must be
// zero).

// drCounterType is the DR workload servant's repository id.
const drCounterType = "IDL:repro/DRCounter:1.0"

// drCheckpointEvery keeps checkpoint-anchored compaction active during the
// run (several periods per group elapse before the kill).
const drCheckpointEvery = 8

// drCounter is a checkpointable accumulator: recovered state is directly
// comparable against the client-side acked count.
type drCounter struct {
	mu       sync.Mutex
	sum, ops int64
}

func (c *drCounter) RepoID() string { return drCounterType }

func (c *drCounter) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if inv.Operation == "bump" {
		c.sum += int64(inv.Args[0].AsLong())
		c.ops++
	}
	return []cdr.Value{cdr.LongLong(c.sum), cdr.LongLong(c.ops)}, nil
}

func (c *drCounter) GetState() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(c.sum)
	e.WriteLongLong(c.ops)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func (c *drCounter) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	sum, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	ops, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.sum, c.ops = sum, ops
	c.mu.Unlock()
	return nil
}

// drGroup is one group's per-run accounting.
type drGroup struct {
	gid           uint64
	style         replication.Style
	proxy         *replication.Proxy
	issued, acked atomic.Int64
	recovered     int64 // ops reported by the standby after promotion
	rto           time.Duration
	eoViolations  int64
}

// drRTOBound is the full-scale ceiling on the slowest group's RTO: the
// 10.09 ms this measurement read when the bound was set, plus 400 %,
// rounded down. Promotion time is wall clock on a shared core; the wide
// margin catches a stall in the promote path (an order of magnitude)
// without tripping on scheduler noise.
const drRTOBound = 50.4 // ms

// DRRecovery runs the disaster-recovery experiment (ByID "dr"). It fails
// on any lost acknowledged operation or exactly-once violation at every
// scale, and at full scale on an RTO past drRTOBound.
func DRRecovery(scale Scale) (*Table, error) {
	styles := []replication.Style{replication.ColdPassive, replication.WarmPassive, replication.Active}
	groupsPerStyle, opsPerGroup := 4, 150
	switch {
	case scale.Invocations <= smokeSLOCutoff:
		groupsPerStyle, opsPerGroup = 1, 24
	case scale.Invocations < FullScale.Invocations:
		groupsPerStyle, opsPerGroup = 2, 40
	}

	store := drstore.NewMemStore()
	defer store.Close()

	const replicas = 3
	workers := make([]string, 0, replicas)
	for i := 1; i <= replicas; i++ {
		workers = append(workers, fmt.Sprintf("n%d", i))
	}
	primary, err := core.NewDomain(core.Options{
		Nodes:         append(append([]string(nil), workers...), "client"),
		Net:           netsim.Config{Seed: 7},
		Heartbeat:     heartbeat,
		CallTimeout:   3 * time.Second,
		RetryInterval: 100 * time.Millisecond,
		DRStore:       store,
	})
	if err != nil {
		return nil, err
	}
	defer primary.Stop()
	if err := primary.WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	if err := primary.RegisterFactory(drCounterType, func() orb.Servant { return &drCounter{} }, workers...); err != nil {
		return nil, err
	}

	groups := make([]*drGroup, 0, len(styles)*groupsPerStyle)
	for _, style := range styles {
		for i := 0; i < groupsPerStyle; i++ {
			_, gid, err := primary.Create(fmt.Sprintf("dr-%s-%d", style, i), drCounterType, &ftcorba.Properties{
				ReplicationStyle:      style,
				InitialNumberReplicas: 2,
				CheckpointInterval:    drCheckpointEvery,
				MembershipStyle:       ftcorba.MembershipApplication,
			})
			if err != nil {
				return nil, fmt.Errorf("dr: create %v group: %w", style, err)
			}
			if err := primary.WaitGroupReady(gid, 2, 10*time.Second); err != nil {
				return nil, fmt.Errorf("dr: group %d: %w", gid, err)
			}
			p, err := primary.Proxy("client", gid)
			if err != nil {
				return nil, err
			}
			groups = append(groups, &drGroup{gid: gid, style: style, proxy: p})
		}
	}

	// Warm standby over the same store, synced continuously while the
	// primary serves.
	standby, err := core.NewStandby(core.StandbyOptions{
		Domain: core.Options{
			Nodes:     []string{"s1", "s2"},
			Heartbeat: heartbeat,
		},
		Store: store,
		Factories: map[string]ftcorba.Factory{
			drCounterType: func() orb.Servant { return &drCounter{} },
		},
	})
	if err != nil {
		return nil, err
	}
	defer standby.Stop()
	if err := standby.Domain().WaitReady(10 * time.Second); err != nil {
		return nil, err
	}

	// Drive load across all groups; once half the target operations have
	// been acknowledged, fail-stop every primary replica node at once.
	killTrigger := make(chan struct{})
	var killOnce sync.Once
	trip := func() { killOnce.Do(func() { close(killTrigger) }) }
	killed := make(chan struct{})
	var tKill time.Time
	go func() {
		<-killTrigger
		tKill = time.Now()
		for _, n := range workers {
			primary.CrashNode(n)
		}
		close(killed)
	}()

	killAt := int64(len(groups) * opsPerGroup / 2)
	var total atomic.Int64
	var driverErrMu sync.Mutex
	var driverErr error
	var wg sync.WaitGroup
	for _, g := range groups {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerGroup; i++ {
				g.issued.Add(1)
				if _, err := g.proxy.Invoke("bump", cdr.Long(1)); err != nil {
					select {
					case <-killTrigger:
						// Expected: the domain died under this invocation.
					default:
						driverErrMu.Lock()
						if driverErr == nil {
							driverErr = fmt.Errorf("dr: pre-kill invoke on group %d: %w", g.gid, err)
						}
						driverErrMu.Unlock()
						trip() // unblock the kill flow; the run fails below
					}
					return
				}
				g.acked.Add(1)
				if total.Add(1) == killAt {
					trip()
				}
			}
		}()
	}

	// Disaster, then promotion. RTO clocks from the first crash to each
	// group's first successful standby invocation.
	<-killed
	res, err := standby.Promote()
	if err != nil {
		return nil, fmt.Errorf("dr: promote: %w", err)
	}
	for _, g := range groups {
		if res.Groups[g.gid] == "" {
			return nil, fmt.Errorf("dr: group %d not promoted (skipped: %v)", g.gid, res.Skipped)
		}
	}
	if err := standby.WaitPromoted(res, 30*time.Second); err != nil {
		return nil, err
	}
	for _, g := range groups {
		p, err := standby.Proxy("s1", g.gid)
		if err != nil {
			return nil, err
		}
		out, err := p.Invoke("read")
		if err != nil {
			return nil, fmt.Errorf("dr: standby read group %d: %w", g.gid, err)
		}
		g.rto = time.Since(tKill)
		g.recovered = out[1].AsLongLong()
		g.proxy = p // post-promotion traffic goes to the standby
	}

	// Let the in-flight pre-kill invocations drain (they time out against
	// the dead domain) so the acked counters are final.
	wg.Wait()
	driverErrMu.Lock()
	derr := driverErr
	driverErrMu.Unlock()
	if derr != nil {
		return nil, derr
	}

	// Continued service with exactly-once: each bump must advance the op
	// count by exactly one from the recovered state.
	const postOps = 3
	for _, g := range groups {
		want := g.recovered
		for i := 0; i < postOps; i++ {
			out, err := g.proxy.Invoke("bump", cdr.Long(1))
			if err != nil {
				return nil, fmt.Errorf("dr: post-promotion bump group %d: %w", g.gid, err)
			}
			want++
			if out[1].AsLongLong() != want {
				g.eoViolations++
			}
		}
	}

	// Assemble per-style aggregates.
	tab := &Table{
		ID:    "DR",
		Title: "disaster recovery: whole-domain kill mid-load, warm-standby promotion, measured RPO/RTO",
		Columns: []string{"style", "groups", "acked@kill", "recovered", "rpo(ops)",
			"rto p50(ms)", "rto max(ms)", "eo violations"},
	}
	var totalAcked, totalRPO, totalEO int64
	var rtoMax time.Duration
	var allRTOs []time.Duration
	for _, style := range styles {
		var acked, recovered, rpo, eo int64
		var rtos []time.Duration
		for _, g := range groups {
			if g.style != style {
				continue
			}
			acked += g.acked.Load()
			recovered += g.recovered
			if d := g.acked.Load() - g.recovered; d > 0 {
				rpo += d
			}
			if g.recovered > g.issued.Load() {
				eo++ // more executions recovered than were ever issued
			}
			eo += g.eoViolations
			rtos = append(rtos, g.rto)
			allRTOs = append(allRTOs, g.rto)
			if g.rto > rtoMax {
				rtoMax = g.rto
			}
		}
		totalAcked += acked
		totalRPO += rpo
		totalEO += eo
		s := summarize(rtos)
		tab.Rows = append(tab.Rows, []string{
			style.String(), fmt.Sprintf("%d", groupsPerStyle),
			fmt.Sprintf("%d", acked), fmt.Sprintf("%d", recovered),
			fmt.Sprintf("%d", rpo),
			fmt.Sprintf("%.1f", s.p50/1e3), fmt.Sprintf("%.1f", s.p99/1e3),
			fmt.Sprintf("%d", eo),
		})
	}
	sAll := summarize(allRTOs)
	tab.Rows = append(tab.Rows, []string{
		"all", fmt.Sprintf("%d", len(groups)),
		fmt.Sprintf("%d", totalAcked), "-", fmt.Sprintf("%d", totalRPO),
		fmt.Sprintf("%.1f", sAll.p50/1e3), fmt.Sprintf("%.3f", float64(rtoMax)/1e6),
		fmt.Sprintf("%d", totalEO),
	})
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("kill at %d of %d target ops; recovered counts may exceed acked@kill by executed-but-unacked in-flight ops (not an RPO loss)", killAt, len(groups)*opsPerGroup),
		"rpo counts acknowledged operations missing after promotion — every style ships to the store before the client ack, so it must be 0",
		"rto is operator-initiated promotion (no failure-detection delay): crash → Promote → first successful standby invocation",
	)

	bounds := []bound{
		{metric: "RPO", got: float64(totalRPO), unit: " ops"},
		{metric: "exactly-once violations", got: float64(totalEO)},
	}
	if scale.Invocations >= FullScale.Invocations {
		bounds = append(bounds, bound{metric: "max RTO", got: float64(rtoMax) / 1e6, limit: drRTOBound, unit: "ms"})
	}
	return tab, checkBounds("dr", bounds...)
}
