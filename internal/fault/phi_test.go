package fault

import (
	"math"
	"testing"
	"time"
)

// All estimator/state-machine tests drive the clock explicitly — no
// sleeping, no wall time — so every assertion is deterministic.

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// feedRegular observes n arrivals spaced exactly by iv, returning the last
// arrival time.
func feedRegular(obs interface{ Observe(time.Time) }, start time.Time, iv time.Duration, n int) time.Time {
	at := start
	for i := 0; i < n; i++ {
		obs.Observe(at)
		at = at.Add(iv)
	}
	return at.Add(-iv)
}

// feedRegularSusp is feedRegular for *Suspicion (Observe returns a value).
func feedRegularSusp(s *Suspicion, start time.Time, iv time.Duration, n int) time.Time {
	at := start
	for i := 0; i < n; i++ {
		s.Observe(at)
		at = at.Add(iv)
	}
	return at.Add(-iv)
}

func TestPhiKnownDistribution(t *testing.T) {
	// Regular 100ms arrivals with a 10ms deviation floor: the normal model
	// is fully determined, so phi and its crossings match the analytic
	// inverse.
	e := NewPhiEstimator(16, 10*time.Millisecond)
	last := feedRegular(e, t0, 100*time.Millisecond, 20)

	mean, std := e.MeanStd()
	if mean != 100*time.Millisecond || std != 10*time.Millisecond {
		t.Fatalf("mean/std = %v/%v, want 100ms/10ms (floored)", mean, std)
	}
	for _, phi := range []float64{1, 3, 8} {
		cross := e.Crossing(phi)
		want := 0.1 + 0.01*math.Sqrt2*math.Erfcinv(2*math.Pow(10, -phi))
		if got := cross.Seconds(); math.Abs(got-want) > 1e-6 {
			t.Errorf("Crossing(%v) = %vs, want %vs", phi, got, want)
		}
		// Phi at its own crossing point returns the threshold.
		if got := e.Phi(last.Add(cross)); math.Abs(got-phi) > 0.05 {
			t.Errorf("Phi(last+Crossing(%v)) = %v", phi, got)
		}
	}
	// Monotonic in elapsed time.
	if p1, p2 := e.Phi(last.Add(50*time.Millisecond)), e.Phi(last.Add(200*time.Millisecond)); p1 >= p2 {
		t.Errorf("phi not monotonic: %v then %v", p1, p2)
	}
	// A huge gap saturates rather than overflowing.
	if p := e.Phi(last.Add(time.Hour)); p != phiCap {
		t.Errorf("phi after 1h = %v, want cap %v", p, phiCap)
	}
}

func TestPhiJitterWidensWindow(t *testing.T) {
	tight := NewPhiEstimator(32, time.Millisecond)
	feedRegular(tight, t0, 100*time.Millisecond, 30)

	// Same mean, alternating 50/150ms arrivals: the observed deviation
	// must push the fail crossing far out.
	loose := NewPhiEstimator(32, time.Millisecond)
	at := t0
	for i := 0; i < 30; i++ {
		loose.Observe(at)
		if i%2 == 0 {
			at = at.Add(50 * time.Millisecond)
		} else {
			at = at.Add(150 * time.Millisecond)
		}
	}
	ct, cl := tight.Crossing(8), loose.Crossing(8)
	if cl < 2*ct {
		t.Errorf("jittered crossing %v not ≫ tight crossing %v", cl, ct)
	}
	if cl < 300*time.Millisecond {
		t.Errorf("jittered crossing %v, want > mean+5σ ≈ 380ms", cl)
	}
}

func TestPhiWindowEvictsOldSamples(t *testing.T) {
	e := NewPhiEstimator(8, time.Millisecond)
	last := feedRegular(e, t0, 10*time.Millisecond, 100)
	// 8 slower samples displace the entire 10ms history.
	at := last
	for i := 0; i < 8; i++ {
		at = at.Add(50 * time.Millisecond)
		e.Observe(at)
	}
	mean, _ := e.MeanStd()
	if diff := mean - 50*time.Millisecond; diff < -10*time.Microsecond || diff > 10*time.Microsecond {
		t.Errorf("windowed mean = %v, want ~50ms after eviction", mean)
	}
	if e.Samples() != 8 {
		t.Errorf("samples = %d, want 8", e.Samples())
	}
}

func TestSuspicionLifecycle(t *testing.T) {
	s := NewSuspicion(SuspicionConfig{MinWindow: 60 * time.Millisecond})
	last := feedRegularSusp(s, t0, 10*time.Millisecond, 20)

	// Within the suspect floor (MinWindow/2 = 30ms): still alive.
	if tr := s.Eval(last.Add(25 * time.Millisecond)); tr != TransNone || s.State() != StateAlive {
		t.Fatalf("early eval: %v/%v", tr, s.State())
	}
	// Past the suspect floor: suspicion raised exactly once.
	if tr := s.Eval(last.Add(35 * time.Millisecond)); tr != TransSuspect || s.State() != StateSuspect {
		t.Fatalf("suspect eval: %v/%v", tr, s.State())
	}
	if tr := s.Eval(last.Add(40 * time.Millisecond)); tr != TransNone {
		t.Fatalf("duplicate suspect: %v", tr)
	}
	// Past the fail window (60ms) but inside the confirmation grace
	// (60ms from suspectedAt=+35ms): not yet dead.
	if tr := s.Eval(last.Add(70 * time.Millisecond)); tr != TransNone || s.State() != StateSuspect {
		t.Fatalf("premature death: %v/%v", tr, s.State())
	}
	// Grace elapsed and still silent: confirmed.
	if tr := s.Eval(last.Add(100 * time.Millisecond)); tr != TransDead || s.State() != StateDead {
		t.Fatalf("confirm eval: %v/%v", tr, s.State())
	}
	st := s.Stats()
	if st.Raised != 1 || st.Confirmed != 1 || st.Retracted != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.DetectTotal != 100*time.Millisecond {
		t.Errorf("time-to-detect = %v, want 100ms", st.DetectTotal)
	}
	// Heartbeats resume: recovery, fresh history.
	if tr := s.Observe(last.Add(200 * time.Millisecond)); tr != TransRecover || s.State() != StateAlive {
		t.Fatalf("recover: %v/%v", tr, s.State())
	}
	if s.est.Samples() != 0 {
		t.Errorf("history not reset on recovery: %d samples", s.est.Samples())
	}
}

func TestSuspicionFlapsDoNotEvict(t *testing.T) {
	// A target that repeatedly goes silent just past the suspect window
	// and then beats again must flap (suspect/retract) without ever being
	// confirmed dead — and every retraction must widen the windows.
	s := NewSuspicion(SuspicionConfig{MinWindow: 60 * time.Millisecond})
	last := feedRegularSusp(s, t0, 10*time.Millisecond, 20)

	suspects, retracts := 0, 0
	prevSuspectW := time.Duration(0)
	at := last
	for cycle := 0; cycle < 5; cycle++ {
		sw, _ := s.Windows(at)
		if sw < prevSuspectW {
			t.Errorf("cycle %d: suspect window shrank %v -> %v", cycle, prevSuspectW, sw)
		}
		prevSuspectW = sw
		// Go silent until just past the current suspect window.
		silent := at.Add(sw + 5*time.Millisecond)
		switch tr := s.Eval(silent); tr {
		case TransSuspect:
			suspects++
		case TransDead:
			t.Fatalf("cycle %d: flap evicted the target", cycle)
		}
		// Late heartbeat retracts.
		silent = silent.Add(2 * time.Millisecond)
		if tr := s.Observe(silent); tr == TransRetract {
			retracts++
		} else if tr == TransRecover {
			t.Fatalf("cycle %d: unexpected recover (was dead)", cycle)
		}
		at = silent
	}
	if suspects == 0 || suspects != retracts {
		t.Errorf("suspects=%d retracts=%d, want equal and nonzero", suspects, retracts)
	}
	st := s.Stats()
	if st.Confirmed != 0 {
		t.Errorf("flap sequence confirmed a death: %+v", st)
	}
	if st.Retracted != uint64(retracts) {
		t.Errorf("stats retracted = %d, want %d", st.Retracted, retracts)
	}
	// The flap penalty must have widened the suspect window beyond its
	// floor (30ms).
	sw, fw := s.Windows(at)
	if sw <= 30*time.Millisecond {
		t.Errorf("suspect window %v did not widen after %d flaps", sw, retracts)
	}
	if fw <= 60*time.Millisecond {
		t.Errorf("fail window %v did not widen after %d flaps", fw, retracts)
	}
}

func TestSuspicionFlapPenaltyCapsAndExpires(t *testing.T) {
	// Six flaps: only the newest four compound (×(1+0.5·4) = ×3), each
	// counts for 32 × MinWindow, and the windows return to the unpenalized
	// value once every flap has aged out.
	const minWindow = 60 * time.Millisecond
	s := NewSuspicion(SuspicionConfig{MinWindow: minWindow, MaxWindow: time.Hour})
	at := feedRegularSusp(s, t0, 10*time.Millisecond, 20)
	for i := 0; i < 6; i++ {
		sw, _ := s.Windows(at)
		at = at.Add(sw + time.Millisecond)
		if tr := s.Eval(at); tr != TransSuspect {
			t.Fatalf("flap %d: eval %v, want suspect", i, tr)
		}
		at = at.Add(time.Millisecond)
		if tr := s.Observe(at); tr != TransRetract {
			t.Fatalf("flap %d: observe %v, want retract", i, tr)
		}
	}
	// Windows never mutates the machine, so the three readings share one
	// unpenalized base and differ only in the flaps still counting.
	base, _ := s.Windows(at.Add(32*minWindow + time.Millisecond))
	if sw, _ := s.Windows(at); sw != time.Duration(float64(base)*3) {
		t.Errorf("suspect window after 6 flaps = %v, want 3 × %v", sw, base)
	}
	if sw, _ := s.Windows(at.Add(32 * minWindow)); sw != time.Duration(float64(base)*1.5) {
		t.Errorf("suspect window with one flap left = %v, want 1.5 × %v", sw, base)
	}
}

func TestSuspicionWindowsClamp(t *testing.T) {
	s := NewSuspicion(SuspicionConfig{MinWindow: 60 * time.Millisecond, MaxWindow: 90 * time.Millisecond})
	// Wild jitter: crossings would exceed the cap without clamping.
	at := t0
	for i := 0; i < 20; i++ {
		s.Observe(at)
		if i%2 == 0 {
			at = at.Add(5 * time.Millisecond)
		} else {
			at = at.Add(400 * time.Millisecond)
		}
	}
	sw, fw := s.Windows(at)
	if fw != 90*time.Millisecond {
		t.Errorf("fail window %v, want clamped to 90ms", fw)
	}
	if sw > 90*time.Millisecond {
		t.Errorf("suspect window %v exceeds cap", sw)
	}
}

func TestNotifierDroppedCount(t *testing.T) {
	var n Notifier
	_, cancel := n.Subscribe(nil) // never consumed
	defer cancel()
	for i := 0; i < 1024+16; i++ {
		n.Push(Report{Kind: NodeCrash, Node: "x"})
	}
	if got := n.Dropped(); got < 16 {
		t.Errorf("Dropped() = %d, want >= 16", got)
	}
}

func TestEventString(t *testing.T) {
	if EventFault.String() != "fault" || EventSuspect.String() != "suspect" ||
		EventRecover.String() != "recover" || Event(9).String() != "unknown" {
		t.Error("Event.String broken")
	}
}
