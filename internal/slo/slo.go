package slo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/replication"
)

// Config parameterizes one open-loop SLO run.
type Config struct {
	// Seed derives the arrival schedule, the chaos schedule, and the
	// simulated network's randomness.
	Seed int64
	// Groups is the number of replicated object groups. Groups cycle
	// through the three scenarios (bank, inventory, trader) and through
	// Styles.
	Groups int
	// Replicas per group (default 2; chaos runs want 3 so one faulty
	// member always leaves a majority).
	Replicas int
	// Shards is the transport rings per node (default 1).
	Shards int
	// Styles cycles across groups (default ACTIVE only).
	Styles []replication.Style
	// Clients is the simulated client population; every arrival is issued
	// by one of them (goroutine-pooled — the population costs no memory
	// beyond the schedule itself).
	Clients int
	// Workers is the invoker pool size: the maximum number of in-flight
	// invocations (default 512). It bounds concurrency, not load — a
	// saturated pool queues arrivals whose waiting time still counts
	// against the server because latency is measured from intended start.
	Workers int
	// Rate is the mean arrival rate in invocations/second.
	Rate float64
	// Duration is the arrival-schedule horizon.
	Duration time.Duration
	// Burst, when > 1, makes the arrival process bursty (see ArrivalConfig).
	Burst float64
	// ReadShare, when in (0, 1], overrides every scenario's default op mix
	// with an explicit read fraction: each arrival reads ("stats") with
	// probability ReadShare and mutates otherwise. The LEADER_FOLLOWER
	// read-path workloads drive 0.9; zero keeps the scenarios' own mixes.
	ReadShare float64
	// Heartbeat is the totem gossip interval (default 3ms).
	Heartbeat time.Duration
	// CallTimeout bounds one invocation including retransmissions
	// (default 30s — chaos recovery must fit inside it).
	CallTimeout time.Duration
	// RetryInterval is the client retransmission base (default 400ms).
	RetryInterval time.Duration
	// Chaos, when set, applies a fault schedule while the load runs.
	Chaos *ChaosPlan
	// Stall, when set, is wired into every scenario servant (the
	// coordinated-omission tests arm it mid-run).
	Stall *StallGate
	// OnStart, when set, runs just after the load clock starts (setup and
	// warmup excluded) — the hook tests use to schedule a stall at a known
	// offset into the run.
	OnStart func()
	// Progress, when set, receives human-readable progress lines.
	Progress func(format string, args ...any)
}

// ChaosPlan schedules fault episodes over the run. Episode kinds, victims,
// and intensities come from chaos.GenerateFrom with the run's seed, so a
// (seed, plan) pair always produces the same fault schedule.
type ChaosPlan struct {
	// Kinds is the episode mix (default: crash-restart, token-drop,
	// delay-spike; shard-partition joins when Shards > 1).
	Kinds []chaos.EpisodeKind
	// Episodes is how many episodes to run (default 4).
	Episodes int
	// Lead is calm time before the first episode (default Duration/10).
	Lead time.Duration
	// Hold is how long each episode's fault stays applied (default 40% of
	// the per-episode budget).
	Hold time.Duration
	// Gap is calm time after each episode (default the rest of the
	// budget).
	Gap time.Duration
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if len(c.Styles) == 0 {
		c.Styles = []replication.Style{replication.Active}
	}
	if c.Workers <= 0 {
		c.Workers = 512
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 3 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 400 * time.Millisecond
	}
	if c.Chaos != nil {
		p := c.Chaos
		if p.Episodes <= 0 {
			p.Episodes = 4
		}
		if len(p.Kinds) == 0 {
			p.Kinds = []chaos.EpisodeKind{chaos.EpCrashRestart, chaos.EpTokenDrop, chaos.EpDelaySpike}
			if c.Shards > 1 {
				p.Kinds = append(p.Kinds, chaos.EpShardPartition)
			}
		}
		if p.Lead <= 0 {
			p.Lead = c.Duration / 10
		}
		budget := (c.Duration - p.Lead) / time.Duration(p.Episodes)
		if p.Hold <= 0 {
			p.Hold = budget * 2 / 5
		}
		if p.Gap <= 0 {
			p.Gap = budget - p.Hold
			if p.Gap < 0 {
				p.Gap = 0
			}
		}
	}
}

// Result is one run's measurements. All latency histograms are
// coordinated-omission corrected: samples are completion − intended start.
type Result struct {
	ScheduleHash  uint64
	Arrivals      int
	ActiveClients int
	Population    int
	Groups        int

	Issued, Acked, Errors int64
	// Mutations is how many arrivals carried a mutating operation (the
	// read-share workloads assert their mix against it).
	Mutations   int64
	Wall        time.Duration // run start → last completion
	OfferedRate float64       // arrivals / schedule horizon
	Goodput     float64       // acked / wall

	All *Hist // every completion, from intended start (the open-loop view)
	// Service measures the same completions from the instant a worker
	// actually began each invocation — the number a closed-loop harness
	// would report. Under a server stall, All diverges from Service by the
	// queueing the closed-loop view silently omits; the
	// coordinated-omission tests assert that delta.
	Service *Hist
	Calm    *Hist            // arrivals intended outside fault windows
	ByKind  map[string]*Hist // arrivals intended inside a fault window, per episode kind
	ByStyle map[string]*Hist // per replication style

	// Blackout distributions: for every (episode, group) pair, the longest
	// interval inside the episode's window (plus recovery grace) in which
	// the group completed nothing. Keys are the episode kind, and
	// kind+"/"+style for the per-style split.
	Blackout map[string]*Hist
	// GlobalBlackout is the per-episode longest whole-domain completion
	// gap, one sample per episode, keyed by kind.
	GlobalBlackout map[string][]time.Duration

	// ChaosSchedule is the applied fault schedule (empty when calm).
	ChaosSchedule chaos.Schedule
}

// groupInfo is one group's static routing data.
type groupInfo struct {
	gid    uint64
	typeID string
	style  replication.Style
	proxy  *replication.Proxy
}

// slotWidth is the completion-timeline resolution for blackout detection.
const slotWidth = 10 * time.Millisecond

// Provisioning-storm absorbers. The adaptive fail detector rides out the
// join storm, so groups are created in large batches and membership
// healing is a last resort.
const (
	createBatch = 512
	healEvery   = 400 // readiness polls; ~2s
)

// sloCheckpointEvery is the checkpoint period every SLO group runs with
// (the stack default, set explicitly because the WAL-bound invariant below
// derives from it).
const sloCheckpointEvery = 16

// walBound is the compaction invariant asserted after every run for the
// logging (passive) styles: checkpoint-anchored truncation must keep each
// member's live WAL at one checkpoint plus at most one period of updates,
// with one more period of slack for a checkpoint still in flight at scan
// time. Without periodic compaction the log grows with the op count and
// this trips immediately at SLO volumes.
const walBound = 2*sloCheckpointEvery + 2

// blackoutGrace extends each episode's blackout scan past the fault being
// cleared, so recovery tails count toward the blackout and a gap still in
// progress at clear time is not truncated.
const blackoutGrace = 5 * time.Second

// perGroupSlotLimit bounds the per-group completion-timeline memory; runs
// with more groups only get the global blackout numbers.
const perGroupSlotLimit = 128

// window is one fault episode's span, as ns offsets from run start.
type window struct {
	kind       string
	style      string // unused; kinds are domain-wide
	start, end int64
}

type windowLog struct {
	mu sync.RWMutex
	ws []window
}

func (l *windowLog) open(kind string, start int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ws = append(l.ws, window{kind: kind, start: start, end: 1<<63 - 1})
	return len(l.ws) - 1
}

func (l *windowLog) close(idx int, end int64) {
	l.mu.Lock()
	l.ws[idx].end = end
	l.mu.Unlock()
}

// kindAt returns the episode kind whose window covers the offset, or "".
func (l *windowLog) kindAt(off int64) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := range l.ws {
		if off >= l.ws[i].start && off < l.ws[i].end {
			return l.ws[i].kind
		}
	}
	return ""
}

func (l *windowLog) snapshot() []window {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]window(nil), l.ws...)
}

// runner holds one run's live state.
type runner struct {
	cfg    Config
	dom    *core.Domain
	groups []groupInfo
	sched  []Arrival
	t0     time.Time

	next       atomic.Int64
	acked      atomic.Int64
	errs       atomic.Int64
	lastDone   atomic.Int64 // ns offset of last successful completion
	issuedMuts []atomic.Int64
	ackedMuts  []atomic.Int64
	ackedAcc   []atomic.Int64

	all     *Hist
	service *Hist
	calm    *Hist
	byKind  map[string]*Hist
	byStyle map[string]*Hist

	readCut  uint8
	windows  windowLog
	gslots   []atomic.Uint32
	pgslots  [][]atomic.Uint32 // nil when Groups > perGroupSlotLimit
	slotWide int64
}

// groupOf maps a client to its home group (a Fibonacci hash decorrelates
// adjacent client ids from adjacent groups).
func groupOf(client uint32, groups int) int {
	return int((uint64(client) * 0x9E3779B97F4A7C15 >> 33) % uint64(groups))
}

func (r *runner) progress(format string, args ...any) {
	if r.cfg.Progress != nil {
		r.cfg.Progress(format, args...)
	}
}

// Run executes one open-loop SLO workload and returns its measurements.
// Setup failures return a nil Result; invariant violations after the run
// return the (complete) Result alongside the error.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	if cfg.Groups <= 0 || cfg.Clients <= 0 || cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, errors.New("slo: Groups, Clients, Rate, and Duration are required")
	}
	r := &runner{cfg: cfg}
	if cfg.ReadShare > 0 {
		cut := cfg.ReadShare * 256
		if cut > 255 {
			cut = 255
		}
		r.readCut = uint8(cut)
	}

	r.sched = GenArrivals(ArrivalConfig{
		Seed: cfg.Seed, Rate: cfg.Rate, Duration: cfg.Duration,
		Clients: cfg.Clients, Burst: cfg.Burst,
	})
	if len(r.sched) == 0 {
		return nil, errors.New("slo: empty arrival schedule")
	}

	if err := r.setup(); err != nil {
		if r.dom != nil {
			r.dom.Stop()
		}
		return nil, err
	}
	defer r.dom.Stop()

	r.initMeasures()

	var chaosSched chaos.Schedule
	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	r.t0 = time.Now()
	if cfg.OnStart != nil {
		cfg.OnStart()
	}
	if cfg.Chaos != nil {
		chaosSched = r.chaosSchedule()
		go r.applyChaos(chaosSched, stopChaos, chaosDone)
	} else {
		close(chaosDone)
	}

	r.progress("slo: driving %d arrivals (%.0f/s over %v) from %d clients across %d groups with %d workers",
		len(r.sched), cfg.Rate, cfg.Duration, cfg.Clients, cfg.Groups, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker()
		}()
	}
	wg.Wait()
	close(stopChaos)
	<-chaosDone

	res := r.collect(chaosSched)
	err := r.checkInvariants()
	return res, err
}

// setup builds the domain, the groups, and their proxies, and warms every
// group once so reply-group joins and executor spin-up are off the clock.
func (r *runner) setup() error {
	cfg := r.cfg
	names := make([]string, 0, cfg.Replicas+1)
	for i := 1; i <= cfg.Replicas; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	workers := append([]string(nil), names...)
	names = append(names, "client")
	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netsim.Config{Seed: cfg.Seed},
		Heartbeat:     cfg.Heartbeat,
		Shards:        cfg.Shards,
		CallTimeout:   cfg.CallTimeout,
		RetryInterval: cfg.RetryInterval,
	})
	if err != nil {
		return err
	}
	r.dom = d
	if err := d.WaitReady(15 * time.Second); err != nil {
		return err
	}
	for _, typeID := range ScenarioTypes {
		typeID := typeID
		if err := d.RegisterFactory(typeID, func() orb.Servant {
			return NewScenarioServant(typeID, cfg.Stall)
		}, workers...); err != nil {
			return err
		}
	}

	// Groups are created in bounded batches with a readiness wait between
	// them. Each creation multicasts control joins for the invocation and
	// reply groups; an unpaced thousand-group storm floods the rings
	// faster than the token drains them. The control lane and the
	// detector's phi windows absorb that storm, so batches are large.
	r.progress("slo: creating %d groups (%d replicas, %d shards, batch %d)", cfg.Groups, cfg.Replicas, cfg.Shards, createBatch)
	r.groups = make([]groupInfo, cfg.Groups)
	for lo := 0; lo < cfg.Groups; lo += createBatch {
		hi := lo + createBatch
		if hi > cfg.Groups {
			hi = cfg.Groups
		}
		for i := lo; i < hi; i++ {
			typeID := ScenarioTypes[i%len(ScenarioTypes)]
			style := cfg.Styles[i%len(cfg.Styles)]
			props := &ftcorba.Properties{
				ReplicationStyle:      style,
				InitialNumberReplicas: cfg.Replicas,
				CheckpointInterval:    sloCheckpointEvery,
				MembershipStyle:       ftcorba.MembershipApplication, // the harness repairs membership itself
			}
			if style.IsLeaderFollower() {
				// Every scenario's read op; marks it lease-servable so
				// proxies take the local-read fast path.
				props.ReadOnlyOps = []string{"stats"}
			}
			_, gid, err := d.Create(fmt.Sprintf("slo-%s-%d", ScenarioName(typeID), i), typeID, props)
			if err != nil {
				return fmt.Errorf("slo: create group %d: %w", i, err)
			}
			r.groups[i] = groupInfo{gid: gid, typeID: typeID, style: style}
		}
		if err := r.waitGroupsReady(lo, hi, 30*time.Second); err != nil {
			return err
		}
	}
	for i := range r.groups {
		p, err := d.Proxy("client", r.groups[i].gid)
		if err != nil {
			return err
		}
		r.groups[i].proxy = p
	}

	// Warmup: one read per group, spread over a bounded pool.
	r.progress("slo: warming %d groups", cfg.Groups)
	var idx atomic.Int64
	warmErr := make(chan error, 1)
	var wg sync.WaitGroup
	pool := 64
	if pool > cfg.Groups {
		pool = cfg.Groups
	}
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(r.groups) {
					return
				}
				if _, err := r.groups[i].proxy.Invoke("stats"); err != nil {
					select {
					case warmErr <- fmt.Errorf("slo: warmup group %d: %w", i, err):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-warmErr:
		return err
	default:
	}
	return nil
}

// waitGroupsReady polls groups [lo, hi) until all hosting members report a
// synchronized full view. Groups that stay unready get a membership heal
// attempt every healEvery polls: with MembershipApplication style,
// re-adding evicted members is the application's job, and a heal is how
// the harness absorbs fail-detector false positives.
func (r *runner) waitGroupsReady(lo, hi int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ready := make([]bool, hi-lo)
	remaining := hi - lo
	for poll := 1; time.Now().Before(deadline) && remaining > 0; poll++ {
		for i := lo; i < hi; i++ {
			if ready[i-lo] {
				continue
			}
			if r.groupReady(i) {
				ready[i-lo] = true
				remaining--
			} else if poll%healEvery == 0 {
				r.healGroup(i)
			}
		}
		if remaining > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if remaining > 0 {
		return fmt.Errorf("slo: %d of %d groups not ready after %v", remaining, hi-lo, timeout)
	}
	return nil
}

// healGroup re-adds missing members of a shrunken group. The placement is
// deterministic (every group lives on all worker nodes), so the intended
// membership is known. AddMember reconciles with a still-hosted replica,
// making a false-positive eviction cheap to repair, and state-transfers a
// genuinely restarted one.
func (r *runner) healGroup(i int) {
	members, err := r.dom.RM.Members(r.groups[i].gid)
	if err != nil || len(members) >= r.cfg.Replicas {
		return
	}
	have := make(map[string]bool, len(members))
	for _, m := range members {
		have[m] = true
	}
	for w := 1; w <= r.cfg.Replicas; w++ {
		if node := fmt.Sprintf("n%d", w); !have[node] {
			_, _ = r.dom.RM.AddMember(r.groups[i].gid, node)
		}
	}
}

func (r *runner) groupReady(i int) bool {
	members, err := r.dom.RM.Members(r.groups[i].gid)
	if err != nil || len(members) != r.cfg.Replicas {
		return false
	}
	for _, m := range members {
		n := r.dom.Node(m)
		if n == nil {
			return false
		}
		st, hosted := n.Engine.GroupStatus(r.groups[i].gid)
		if !hosted || st.Syncing || len(st.Members) != r.cfg.Replicas {
			return false
		}
	}
	return true
}

func (r *runner) initMeasures() {
	g := len(r.groups)
	r.issuedMuts = make([]atomic.Int64, g)
	r.ackedMuts = make([]atomic.Int64, g)
	r.ackedAcc = make([]atomic.Int64, g)
	r.all = NewHist()
	r.service = NewHist()
	r.calm = NewHist()
	r.byStyle = make(map[string]*Hist)
	for _, gi := range r.groups {
		if _, ok := r.byStyle[gi.style.String()]; !ok {
			r.byStyle[gi.style.String()] = NewHist()
		}
	}
	r.byKind = make(map[string]*Hist)
	if r.cfg.Chaos != nil {
		for _, k := range r.cfg.Chaos.Kinds {
			r.byKind[k.String()] = NewHist()
		}
	}
	r.slotWide = int64(slotWidth)
	span := r.cfg.Duration + r.cfg.CallTimeout + blackoutGrace + 15*time.Second
	slots := int(int64(span)/r.slotWide) + 1
	r.gslots = make([]atomic.Uint32, slots)
	if g <= perGroupSlotLimit {
		r.pgslots = make([][]atomic.Uint32, g)
		for i := range r.pgslots {
			r.pgslots[i] = make([]atomic.Uint32, slots)
		}
	}
}

// worker drains the arrival schedule: claim the next arrival, sleep until
// its intended start, invoke, and account the outcome. Latency is measured
// from the intended start, so queueing delay behind a saturated pool or a
// stalled server is charged to the server — the coordinated-omission
// correction.
func (r *runner) worker() {
	for {
		i := int(r.next.Add(1) - 1)
		if i >= len(r.sched) {
			return
		}
		a := r.sched[i]
		due := r.t0.Add(time.Duration(a.Due))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		g := groupOf(a.Client, len(r.groups))
		gi := &r.groups[g]
		op, arg, mutating := scenarioOp(gi.typeID, a.Op, r.readCut)
		if mutating {
			r.issuedMuts[g].Add(1)
		}
		start := time.Now()
		var err error
		if mutating {
			_, err = gi.proxy.Invoke(op, cdr.Long(arg))
		} else {
			_, err = gi.proxy.Invoke(op)
		}
		now := time.Now()
		lat := now.Sub(due)

		r.all.Record(lat)
		r.service.Record(now.Sub(start))
		r.byStyle[gi.style.String()].Record(lat)
		if kind := r.windows.kindAt(a.Due); kind != "" {
			if h := r.byKind[kind]; h != nil {
				h.Record(lat)
			}
		} else {
			r.calm.Record(lat)
		}
		if err != nil {
			r.errs.Add(1)
			continue
		}
		r.acked.Add(1)
		if mutating {
			r.ackedMuts[g].Add(1)
			r.ackedAcc[g].Add(opDelta(gi.typeID, op, arg))
		}
		off := int64(now.Sub(r.t0))
		for {
			last := r.lastDone.Load()
			if off <= last || r.lastDone.CompareAndSwap(last, off) {
				break
			}
		}
		slot := off / r.slotWide
		if slot >= int64(len(r.gslots)) {
			slot = int64(len(r.gslots)) - 1
		}
		r.gslots[slot].Add(1)
		if r.pgslots != nil {
			r.pgslots[g][slot].Add(1)
		}
	}
}

// collect assembles the Result.
func (r *runner) collect(chaosSched chaos.Schedule) *Result {
	wall := time.Duration(r.lastDone.Load())
	if wall <= 0 {
		wall = time.Since(r.t0)
	}
	res := &Result{
		ScheduleHash:   HashArrivals(r.sched),
		Arrivals:       len(r.sched),
		ActiveClients:  CountDistinctClients(r.sched, r.cfg.Clients),
		Population:     r.cfg.Clients,
		Groups:         len(r.groups),
		Acked:          r.acked.Load(),
		Mutations:      sumCounters(r.issuedMuts),
		Errors:         r.errs.Load(),
		Wall:           wall,
		OfferedRate:    float64(len(r.sched)) / r.cfg.Duration.Seconds(),
		All:            r.all,
		Service:        r.service,
		Calm:           r.calm,
		ByKind:         r.byKind,
		ByStyle:        r.byStyle,
		Blackout:       make(map[string]*Hist),
		GlobalBlackout: make(map[string][]time.Duration),
		ChaosSchedule:  chaosSched,
	}
	res.Issued = res.Acked + res.Errors
	if wall > 0 {
		res.Goodput = float64(res.Acked) / wall.Seconds()
	}

	// Blackout distributions from the completion timelines.
	styleOf := make([]string, len(r.groups))
	for i, gi := range r.groups {
		styleOf[i] = gi.style.String()
	}
	for _, w := range r.windows.snapshot() {
		end := w.end
		if end == 1<<63-1 {
			end = int64(r.cfg.Duration)
		}
		end += int64(blackoutGrace)
		// The scan cannot extend past the last completion anywhere in the
		// domain: silence after the schedule drains is the run ending, not
		// the server blacking out.
		if last := r.lastDone.Load(); end > last {
			end = last
		}
		if end <= w.start {
			continue
		}
		gap := longestGap(r.gslots, w.start, end, r.slotWide)
		res.GlobalBlackout[w.kind] = append(res.GlobalBlackout[w.kind], gap)
		if r.pgslots == nil {
			continue
		}
		for g := range r.pgslots {
			gap := longestGap(r.pgslots[g], w.start, end, r.slotWide)
			for _, key := range []string{w.kind, w.kind + "/" + styleOf[g]} {
				h := res.Blackout[key]
				if h == nil {
					h = NewHist()
					res.Blackout[key] = h
				}
				h.Record(gap)
			}
		}
	}
	return res
}

func sumCounters(cs []atomic.Int64) int64 {
	var n int64
	for i := range cs {
		n += cs[i].Load()
	}
	return n
}

// longestGap scans a completion timeline between two ns offsets and
// returns the longest all-zero stretch, in slot granularity.
func longestGap(slots []atomic.Uint32, from, to, width int64) time.Duration {
	lo := from / width
	hi := to / width
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(len(slots)) {
		hi = int64(len(slots)) - 1
	}
	var best, run int64
	for s := lo; s <= hi; s++ {
		if slots[s].Load() == 0 {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	return time.Duration(best * width)
}

// checkInvariants verifies exactly-once accounting and convergence after
// the run: every group's authoritative mutation count must lie between the
// acknowledged and issued counts (acked ≤ executed ≤ issued), with strict
// equality — including the argument fold — when no invocation failed; and
// ACTIVE groups' live members must agree on the last executed message.
func (r *runner) checkInvariants() error {
	// Heal first: a fault report during the run (an injected crash whose
	// repair lost the race with run end, or a fail-detector false positive
	// on an oversubscribed host) leaves the group shrunken, and under
	// MembershipApplication style nothing re-adds members but us.
	for i := range r.groups {
		r.healGroup(i)
	}
	var errs []error
	for i := range r.groups {
		if err := r.checkGroup(i); err != nil {
			errs = append(errs, err)
			if len(errs) >= 8 {
				errs = append(errs, errors.New("slo: further invariant errors suppressed"))
				break
			}
		}
	}
	return errors.Join(errs...)
}

func (r *runner) checkGroup(i int) error {
	gi := &r.groups[i]
	issued := r.issuedMuts[i].Load()
	acked := r.ackedMuts[i].Load()
	accWant := r.ackedAcc[i].Load()

	// Converge: every hosting member settles (not syncing; ACTIVE members
	// agree on last executed msg).
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		members, err := r.dom.RM.Members(gi.gid)
		if err != nil || len(members) == 0 {
			lastErr = fmt.Errorf("members: %w", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		settled := true
		var execs []uint64
		for _, m := range members {
			n := r.dom.Node(m)
			if n == nil {
				settled = false
				break
			}
			st, hosted := n.Engine.GroupStatus(gi.gid)
			if !hosted || st.Syncing {
				settled = false
				break
			}
			execs = append(execs, st.LastExec)
		}
		if settled && (gi.style == replication.Active || gi.style.IsLeaderFollower()) {
			for _, e := range execs {
				if e != execs[0] {
					settled = false
					break
				}
			}
		}
		if !settled {
			lastErr = errors.New("members not settled")
			time.Sleep(10 * time.Millisecond)
			continue
		}
		out, err := gi.proxy.Invoke("stats")
		if err != nil {
			lastErr = fmt.Errorf("stats: %w", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		muts, acc := out[0].AsLongLong(), out[1].AsLongLong()
		if muts < acked || muts > issued {
			lastErr = fmt.Errorf("exactly-once violated: executed=%d outside acked=%d..issued=%d", muts, acked, issued)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if muts == acked && acc != accWant {
			lastErr = fmt.Errorf("state divergence: acc=%d want %d at %d ops", acc, accWant, muts)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		// Passive styles log every operation; checkpoint-anchored compaction
		// must keep the live WAL bounded regardless of how many ops the run
		// drove. (Active styles keep no operation log, so there is nothing
		// to bound.) Retried because the scan can race a truncation.
		if gi.style.IsPassive() || gi.style.IsLeaderFollower() {
			over := ""
			for _, m := range members {
				if n := r.dom.Node(m); n != nil {
					if l, ok := n.Engine.LogLen(gi.gid); ok && l > walBound {
						over = fmt.Sprintf("WAL unbounded on %s: %d live records > bound %d (%d mutations driven)", m, l, walBound, issued)
						break
					}
				}
			}
			if over != "" {
				lastErr = errors.New(over)
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		return nil
	}
	return fmt.Errorf("slo: group %d (%s/%s, gid %d): %w",
		i, ScenarioName(gi.typeID), gi.style, gi.gid, lastErr)
}
