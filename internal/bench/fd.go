package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ftcorba"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/replication"
)

// The FD experiment measures fail-detection quality under load: a domain
// serves steady application traffic while a provisioning storm (burst
// group creation, with its joins and state transfers) loads the control
// plane, and one loaded member is really crashed mid-storm. Reported per
// cell: detection latency for the real crash (crash to the confirmed
// NodeCrash fault report) and false evictions (confirmed faults naming
// nodes that never died). The adaptive phi-accrual detector plus the
// control-plane priority lane must keep false evictions at zero across
// the sweep while detection latency stays within ~3× the calm baseline —
// the failure mode being regression-tested is PR 6's eviction cascade,
// where storm-delayed heartbeats read as dead peers.

// fdStormType is the storm groups' repository id. It is registered on
// every worker except the victim, so burst creations keep succeeding
// after the victim is crashed mid-storm.
const fdStormType = "IDL:repro/StormEcho:1.0"

// fdCell is one sweep point: heartbeat interval × offered load.
type fdCell struct {
	name     string
	hb       time.Duration
	stormG   int // groups burst-created during the cell
	invokers int // concurrent steady-group invokers
}

// fdResult is one cell's measurements.
type fdResult struct {
	cell     fdCell
	detect   time.Duration
	falseEv  int64
	suspects int64
	recovers int64
	createdG int
}

// Full-scale detection-latency ceilings: the value each measurement read
// when the bound was set (calm 55.99 ms, storm max 60.36 ms) plus 400 %,
// rounded down.
// Detection is wall clock on a shared core; the wide margin catches a
// stalled detector without tripping on scheduler noise.
const (
	fdCalmDetectBound  = 279.9 // ms
	fdStormDetectBound = 301.8 // ms
)

// FDDetection runs the fail-detection experiment (ByID "fd"). It fails on
// any false eviction at every scale, and at full scale on a storm/calm
// detection ratio over 3 or a detection latency past its bound.
func FDDetection(scale Scale) (*Table, error) {
	calm := fdCell{name: "calm", hb: 4 * time.Millisecond}
	var cells []fdCell
	switch {
	case scale.Invocations <= smokeSLOCutoff:
		cells = []fdCell{{name: "storm hb=4ms light", hb: 4 * time.Millisecond, stormG: 4, invokers: 2}}
	case scale.Invocations < FullScale.Invocations:
		cells = []fdCell{
			{name: "storm hb=4ms light", hb: 4 * time.Millisecond, stormG: 6, invokers: 3},
			{name: "storm hb=2ms light", hb: 2 * time.Millisecond, stormG: 6, invokers: 3},
		}
	default:
		cells = []fdCell{
			{name: "storm hb=4ms light", hb: 4 * time.Millisecond, stormG: 8, invokers: 4},
			{name: "storm hb=4ms heavy", hb: 4 * time.Millisecond, stormG: 24, invokers: 8},
			{name: "storm hb=2ms light", hb: 2 * time.Millisecond, stormG: 8, invokers: 4},
			{name: "storm hb=2ms heavy", hb: 2 * time.Millisecond, stormG: 24, invokers: 8},
		}
	}

	calmRes, err := fdRunCell(calm)
	if err != nil {
		return nil, fmt.Errorf("fd: calm cell: %w", err)
	}

	results := []*fdResult{calmRes}
	var falseTotal int64
	var stormMax time.Duration
	for _, c := range cells {
		res, err := fdRunCell(c)
		if err != nil {
			return nil, fmt.Errorf("fd: cell %s: %w", c.name, err)
		}
		results = append(results, res)
		falseTotal += res.falseEv
		if res.detect > stormMax {
			stormMax = res.detect
		}
	}

	ratio := float64(stormMax) / float64(calmRes.detect)
	tab := &Table{
		ID:    "FD",
		Title: "fail detection under provisioning storms: adaptive phi-accrual, confirmed-crash latency vs false evictions",
		Columns: []string{"cell", "hb", "storm groups", "invokers",
			"detect(ms)", "false evictions", "suspects", "recoveries"},
	}
	for _, r := range results {
		tab.Rows = append(tab.Rows, []string{
			r.cell.name, r.cell.hb.String(),
			fmt.Sprintf("%d", r.createdG), fmt.Sprintf("%d", r.cell.invokers),
			fmt.Sprintf("%.1f", float64(r.detect)/1e6),
			fmt.Sprintf("%d", r.falseEv),
			fmt.Sprintf("%d", r.suspects), fmt.Sprintf("%d", r.recovers),
		})
	}
	tab.Notes = append(tab.Notes,
		"detect(ms) is real-crash injection to the confirmed NodeCrash report (suspicion, confirm grace, ring reformation, view delivery)",
		"false evictions are confirmed NodeCrash reports naming nodes that never died — the adaptive detector plus the control-plane priority lane must keep this at 0",
		fmt.Sprintf("storm detect max / calm detect = %.2fx (acceptance bound 3x)", ratio),
	)

	bounds := []bound{{metric: "storm false evictions", got: float64(falseTotal)}}
	if scale.Invocations >= FullScale.Invocations {
		bounds = append(bounds,
			bound{metric: "storm/calm detect ratio", got: ratio, limit: 3, unit: "x"},
			bound{metric: "calm detect", got: float64(calmRes.detect) / 1e6, limit: fdCalmDetectBound, unit: "ms"},
			bound{metric: "storm max detect", got: float64(stormMax) / 1e6, limit: fdStormDetectBound, unit: "ms"},
		)
	}
	return tab, checkBounds("fd", bounds...)
}

// fdRunCell builds a fresh 6-worker domain, drives the cell's load, kills
// one steady-group member, and reports detection quality. The fabric has
// mild per-datagram jitter so heartbeat inter-arrival variance is real
// (zero variance would make any detector look perfect).
func fdRunCell(c fdCell) (*fdResult, error) {
	const workers = 6
	names := make([]string, 0, workers+1)
	for i := 1; i <= workers; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	names = append(names, "client")
	victim := "n1"

	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netsim.Config{Seed: 11, Latency: 20 * time.Microsecond, Jitter: 150 * time.Microsecond},
		Heartbeat:     c.hb,
		CallTimeout:   10 * time.Second,
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer d.Stop()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	if err := d.RegisterFactory(EchoType, func() orb.Servant { return NewEchoServant() }, names[:workers]...); err != nil {
		return nil, err
	}
	// Storm groups land on non-victim workers only, so the burst keeps
	// provisioning after the crash.
	if err := d.RegisterFactory(fdStormType, func() orb.Servant { return NewEchoServant() }, names[1:workers]...); err != nil {
		return nil, err
	}

	// Steady groups (the victim hosts a member of each) plus their client
	// proxies.
	const steadyGroups = 3
	proxies := make([]*replication.Proxy, 0, steadyGroups)
	for i := 0; i < steadyGroups; i++ {
		_, gid, err := d.Create(fmt.Sprintf("fd-steady-%d", i), EchoType, &ftcorba.Properties{
			ReplicationStyle:      replication.Active,
			InitialNumberReplicas: 3,
			MembershipStyle:       ftcorba.MembershipApplication,
		})
		if err != nil {
			return nil, err
		}
		if err := d.WaitGroupReady(gid, 3, 10*time.Second); err != nil {
			return nil, err
		}
		p, err := d.Proxy("client", gid)
		if err != nil {
			return nil, err
		}
		proxies = append(proxies, p)
	}

	// Detection-quality collector: everything the notifier publishes for
	// the cell, split into confirmed faults (real detection vs false
	// eviction) and suspicion lifecycle counts.
	var (
		crashedAt atomic.Int64 // ns since start; 0 = not yet crashed
		start     = time.Now()
		detectCh  = make(chan time.Duration, 1)
		falseEv   atomic.Int64
		suspects  atomic.Int64
		recovers  atomic.Int64
	)
	ch, cancelSub := d.Notifier.Subscribe(nil)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for r := range ch {
			switch r.Event {
			case fault.EventSuspect:
				suspects.Add(1)
			case fault.EventRecover:
				recovers.Add(1)
			case fault.EventFault:
				if r.Kind != fault.NodeCrash && r.Kind != fault.ProcessCrash {
					continue
				}
				at := crashedAt.Load()
				if r.Node == victim && at != 0 {
					select {
					case detectCh <- time.Since(start.Add(time.Duration(at))):
					default: // only the first confirmation is the latency
					}
				} else {
					falseEv.Add(1)
				}
			}
		}
	}()

	// Steady invokers hammer the application plane for the whole cell.
	stopInvoke := make(chan struct{})
	var invokeWG sync.WaitGroup
	payload := cdr.OctetSeq(payloadOf(2048))
	for i := 0; i < c.invokers; i++ {
		p := proxies[i%len(proxies)]
		invokeWG.Add(1)
		go func() {
			defer invokeWG.Done()
			for {
				select {
				case <-stopInvoke:
					return
				default:
				}
				// Errors during the crash transition are the client's
				// failover to the surviving replicas; keep driving.
				_, _ = p.Invoke("echo", payload)
			}
		}()
	}

	crash := func() {
		crashedAt.Store(int64(time.Since(start)))
		d.CrashNode(victim)
	}

	created := 0
	if c.stormG == 0 {
		// Calm baseline: give the detector a short history, then crash.
		time.Sleep(50 * c.hb)
		crash()
	} else {
		// Provisioning storm: burst-create groups; the real crash lands in
		// the middle of it.
		for i := 0; i < c.stormG; i++ {
			if i == c.stormG/2 {
				crash()
			}
			_, gid, err := d.Create(fmt.Sprintf("fd-storm-%d", i), fdStormType, &ftcorba.Properties{
				ReplicationStyle:      replication.Active,
				InitialNumberReplicas: 3,
				MembershipStyle:       ftcorba.MembershipApplication,
			})
			if err != nil {
				return nil, fmt.Errorf("storm create %d: %w", i, err)
			}
			if err := d.WaitGroupReady(gid, 3, 10*time.Second); err != nil {
				return nil, fmt.Errorf("storm group %d: %w", i, err)
			}
			created++
		}
	}

	var detect time.Duration
	select {
	case detect = <-detectCh:
	case <-time.After(15 * time.Second):
		close(stopInvoke)
		invokeWG.Wait()
		cancelSub()
		<-collectorDone
		return nil, fmt.Errorf("crash of %s never confirmed", victim)
	}

	// Linger under load past the detection so late false evictions (the
	// cascade failure mode) are observed, then drain.
	time.Sleep(100 * c.hb)
	close(stopInvoke)
	invokeWG.Wait()
	cancelSub()
	<-collectorDone

	return &fdResult{
		cell:     c,
		detect:   detect,
		falseEv:  falseEv.Load(),
		suspects: suspects.Load(),
		recovers: recovers.Load(),
		createdG: created,
	}, nil
}
