package fault

import (
	"math"
	"time"
)

// Phi-accrual failure detection (Hayashibara et al.): instead of a binary
// alive/dead verdict from a fixed timeout, each monitored target keeps a
// windowed history of heartbeat inter-arrival times and computes
//
//	phi(t) = -log10( P(no heartbeat by t | history) )
//
// under a normal approximation of the inter-arrival distribution. A quiet
// network with tight arrivals yields a small crossing time; jitter under
// load widens the variance and therefore the effective window, so the
// detector adapts to observed conditions instead of tripping on a constant.
//
// The Suspicion state machine layered on top turns phi crossings into an
// alive -> suspect -> dead progression with hysteresis: suspicion is raised
// at a low threshold (cheap, reversible — consumers quarantine, they do not
// evict), death is confirmed only at a high threshold after the suspicion
// has stood for a confirmation grace period, and every retracted suspicion
// (a late heartbeat) widens subsequent windows so a flapping target has to
// stay silent progressively longer to be declared dead.
//
// Everything here is driven by explicit time arguments — no internal clock
// — so tests inject deterministic schedules.

// PhiEstimator maintains a windowed inter-arrival history for one target.
// Not safe for concurrent use; callers hold their own lock.
type PhiEstimator struct {
	samples []float64 // ring buffer of inter-arrival times, seconds
	idx     int
	n       int
	sum     float64
	sumSq   float64
	last    time.Time
	hasLast bool
	minStd  float64 // variance floor, seconds
}

// phiCap bounds phi where the tail probability underflows float64.
const phiCap = 300

// NewPhiEstimator returns an estimator keeping the last window inter-arrival
// samples with the given floor on the standard deviation (the floor keeps a
// perfectly regular history from producing a zero-width distribution that
// would trip on the first microsecond of jitter).
func NewPhiEstimator(window int, minStdDev time.Duration) *PhiEstimator {
	if window <= 0 {
		window = 64
	}
	return &PhiEstimator{
		samples: make([]float64, window),
		minStd:  minStdDev.Seconds(),
	}
}

// Observe records a heartbeat arrival at now.
func (e *PhiEstimator) Observe(now time.Time) {
	if e.hasLast {
		iv := now.Sub(e.last).Seconds()
		if iv < 0 {
			iv = 0
		}
		if e.n == len(e.samples) {
			old := e.samples[e.idx]
			e.sum -= old
			e.sumSq -= old * old
		} else {
			e.n++
		}
		e.samples[e.idx] = iv
		e.sum += iv
		e.sumSq += iv * iv
		e.idx = (e.idx + 1) % len(e.samples)
	}
	e.last = now
	e.hasLast = true
}

// Reset discards the history (used after a confirmed death: the silent gap
// preceding a recovery is not evidence about the reborn target's cadence).
func (e *PhiEstimator) Reset() {
	e.idx, e.n = 0, 0
	e.sum, e.sumSq = 0, 0
	e.hasLast = false
}

// Samples reports how many inter-arrival observations are held.
func (e *PhiEstimator) Samples() int { return e.n }

// Last returns the most recent arrival time and whether one exists.
func (e *PhiEstimator) Last() (time.Time, bool) { return e.last, e.hasLast }

// meanStd returns the windowed mean and floored standard deviation in
// seconds.
func (e *PhiEstimator) meanStd() (mean, std float64) {
	if e.n == 0 {
		return 0, e.minStd
	}
	mean = e.sum / float64(e.n)
	variance := e.sumSq/float64(e.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	std = math.Sqrt(variance)
	if std < e.minStd {
		std = e.minStd
	}
	return mean, std
}

// MeanStd exposes the windowed mean and floored standard deviation.
func (e *PhiEstimator) MeanStd() (mean, std time.Duration) {
	m, s := e.meanStd()
	return time.Duration(m * float64(time.Second)), time.Duration(s * float64(time.Second))
}

// Phi returns the suspicion level at now: -log10 of the probability that a
// heartbeat gap at least this long occurs given the observed history. Zero
// when no history exists.
func (e *PhiEstimator) Phi(now time.Time) float64 {
	if !e.hasLast || e.n == 0 {
		return 0
	}
	elapsed := now.Sub(e.last).Seconds()
	mean, std := e.meanStd()
	// Tail probability of the normal approximation.
	p := 0.5 * math.Erfc((elapsed-mean)/(std*math.Sqrt2))
	if p <= 0 || math.IsNaN(p) {
		return phiCap
	}
	phi := -math.Log10(p)
	if phi > phiCap {
		return phiCap
	}
	if phi < 0 {
		return 0
	}
	return phi
}

// Crossing returns the elapsed-since-last-arrival at which Phi reaches the
// given threshold, i.e. the adaptive detection window implied by the
// history. Zero when no history exists (callers clamp to their floor).
func (e *PhiEstimator) Crossing(phi float64) time.Duration {
	if e.n == 0 {
		return 0
	}
	mean, std := e.meanStd()
	// Invert phi = -log10(0.5*erfc(x/sqrt2)): x = erfcinv(2*10^-phi).
	p := 2 * math.Pow(10, -phi)
	if p >= 2 {
		return 0
	}
	t := mean + std*math.Sqrt2*math.Erfcinv(p)
	if t < 0 {
		t = 0
	}
	return time.Duration(t * float64(time.Second))
}

// State is a target's position in the suspicion machine.
type State uint8

const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// Transition is the outcome of feeding the machine an arrival or an
// evaluation tick.
type Transition uint8

const (
	// TransNone: no state change.
	TransNone Transition = iota
	// TransSuspect: alive -> suspect (phi crossed the suspect threshold).
	TransSuspect
	// TransRetract: suspect -> alive (a heartbeat arrived; the suspicion
	// was wrong and counts as a flap).
	TransRetract
	// TransDead: suspect -> dead (phi stayed past the fail threshold for
	// the confirmation grace period).
	TransDead
	// TransRecover: dead -> alive (heartbeats resumed after a confirmed
	// death; the history is reset).
	TransRecover
)

// Suspicion tuning shared by every target. The two durations scale with
// SuspicionConfig.MinWindow.
const (
	// historyLen is the inter-arrival history length.
	historyLen = 64
	// phiSuspect raises a suspicion when crossed.
	phiSuspect = 1
	// phiFail must be crossed (alongside ConfirmGrace) to confirm death.
	phiFail = 8
	// stdDevFloorDiv floors the estimator's deviation at
	// MinWindow/stdDevFloorDiv.
	stdDevFloorDiv = 16
	// flapPenalty widens both windows by this fraction per recent
	// retraction.
	flapPenalty = 0.5
	// flapWindowMult: a retraction counts toward the penalty for
	// flapWindowMult × MinWindow.
	flapWindowMult = 32
	// maxFlapCount caps how many retractions compound.
	maxFlapCount = 4
)

// SuspicionConfig parameterizes one target's machine. MinWindow is the only
// required field: it is both the floor of the adaptive fail window (so a
// calm network behaves like a fixed-timeout detector) and the unit the
// other defaults scale from.
type SuspicionConfig struct {
	// MinWindow floors the fail window; the suspect window floors at half
	// of it. Required.
	MinWindow time.Duration
	// MaxWindow caps both adaptive windows (default 3*MinWindow) so a
	// wildly jittery history cannot defer detection forever.
	MaxWindow time.Duration
	// ConfirmGrace is the minimum dwell in suspect before death can be
	// confirmed (default MinWindow). A heartbeat inside the dwell retracts
	// the suspicion instead of letting one long gap evict.
	ConfirmGrace time.Duration
}

func (c *SuspicionConfig) fill() {
	if c.MaxWindow <= 0 {
		c.MaxWindow = 3 * c.MinWindow
	}
	if c.ConfirmGrace <= 0 {
		c.ConfirmGrace = c.MinWindow
	}
}

// SuspicionStats are the detection-quality counters for one target.
type SuspicionStats struct {
	Raised    uint64 // suspicions raised
	Retracted uint64 // suspicions retracted by a late heartbeat (flaps)
	Confirmed uint64 // suspicions confirmed into deaths
	// DetectTotal sums, over confirmed deaths, the gap between the last
	// heartbeat and the confirmation — divide by Confirmed for the mean
	// time-to-detect.
	DetectTotal time.Duration
}

// Suspicion is the per-target alive/suspect/dead machine. Not safe for
// concurrent use; callers hold their own lock and supply all times.
type Suspicion struct {
	cfg         SuspicionConfig
	est         *PhiEstimator
	state       State
	suspectedAt time.Time
	flaps       []time.Time
	stats       SuspicionStats
}

// NewSuspicion builds a machine in StateAlive with no history.
func NewSuspicion(cfg SuspicionConfig) *Suspicion {
	cfg.fill()
	return &Suspicion{
		cfg: cfg,
		est: NewPhiEstimator(historyLen, cfg.MinWindow/stdDevFloorDiv),
	}
}

// State returns the current state.
func (s *Suspicion) State() State { return s.state }

// Stats returns the quality counters accumulated so far.
func (s *Suspicion) Stats() SuspicionStats { return s.stats }

// Phi exposes the current suspicion level (diagnostics).
func (s *Suspicion) Phi(now time.Time) float64 { return s.est.Phi(now) }

// Observe feeds a heartbeat arrival. It may retract a suspicion or recover
// a confirmed death.
func (s *Suspicion) Observe(now time.Time) Transition {
	if s.state == StateDead {
		// A reborn target's cadence owes nothing to the death gap.
		s.est.Reset()
		s.est.Observe(now)
		s.state = StateAlive
		return TransRecover
	}
	s.est.Observe(now)
	if s.state == StateSuspect {
		s.state = StateAlive
		s.stats.Retracted++
		s.recordFlap(now)
		return TransRetract
	}
	return TransNone
}

// Eval advances the machine at now (called periodically). It may raise a
// suspicion or confirm a death; it never retracts (only arrivals do).
func (s *Suspicion) Eval(now time.Time) Transition {
	last, ok := s.est.Last()
	if !ok {
		return TransNone
	}
	elapsed := now.Sub(last)
	suspectW, failW := s.windows(now)
	switch s.state {
	case StateAlive:
		if elapsed > suspectW {
			s.state = StateSuspect
			s.suspectedAt = now
			s.stats.Raised++
			return TransSuspect
		}
	case StateSuspect:
		if elapsed > failW && now.Sub(s.suspectedAt) >= s.cfg.ConfirmGrace {
			s.state = StateDead
			s.stats.Confirmed++
			s.stats.DetectTotal += elapsed
			return TransDead
		}
	}
	return TransNone
}

// Windows reports the effective suspect and fail windows at now, after
// clamping and flap widening (diagnostics and tests).
func (s *Suspicion) Windows(now time.Time) (suspect, fail time.Duration) {
	return s.windows(now)
}

func (s *Suspicion) windows(now time.Time) (suspect, fail time.Duration) {
	// Floor first, then widen: the flap penalty must stretch even a
	// tight-history window that clamped to its floor.
	factor := 1 + flapPenalty*float64(s.recentFlaps(now))
	suspect = widenWindow(s.est.Crossing(phiSuspect), s.cfg.MinWindow/2, s.cfg.MaxWindow, factor)
	fail = widenWindow(s.est.Crossing(phiFail), s.cfg.MinWindow, s.cfg.MaxWindow, factor)
	return suspect, fail
}

func widenWindow(w, lo, hi time.Duration, factor float64) time.Duration {
	if w < lo {
		w = lo
	}
	w = time.Duration(float64(w) * factor)
	if hi > 0 && w > hi {
		w = hi
	}
	return w
}

func (s *Suspicion) recordFlap(now time.Time) {
	// Trim expired entries, then append; bounded by maxFlapCount so the
	// slice never grows past what the penalty can use.
	keep := s.flaps[:0]
	for _, t := range s.flaps {
		if now.Sub(t) <= flapWindowMult*s.cfg.MinWindow {
			keep = append(keep, t)
		}
	}
	s.flaps = append(keep, now)
	if len(s.flaps) > maxFlapCount {
		s.flaps = s.flaps[len(s.flaps)-maxFlapCount:]
	}
}

func (s *Suspicion) recentFlaps(now time.Time) int {
	n := 0
	for _, t := range s.flaps {
		if now.Sub(t) <= flapWindowMult*s.cfg.MinWindow {
			n++
		}
	}
	return n
}
