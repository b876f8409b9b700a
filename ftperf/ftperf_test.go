package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
)

func TestPercentile(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 2, 9, 4, 8, 6, 5} // 1..10, shuffled
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {0.99, 9.91}, {1, 10},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 7 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile([]float64{42}, 0.9); got != 42 {
		t.Errorf("one sample: got %v, want 42", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 100}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(a, b int) span {
		base := time.Unix(0, 0)
		return span{base.Add(time.Duration(a) * time.Microsecond), base.Add(time.Duration(b) * time.Microsecond)}
	}
	parent := at(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"one child", []span{at(10, 30)}, 80},
		{"overlapping children count once", []span{at(10, 30), at(20, 40)}, 70},
		{"disjoint children", []span{at(10, 30), at(60, 70)}, 70},
		{"children clipped to the parent", []span{at(-20, 10), at(90, 130)}, 80},
		{"child outside the parent", []span{at(120, 130)}, 100},
		{"nested child", []span{at(10, 50), at(20, 30)}, 60},
		{"unsorted", []span{at(60, 70), at(10, 30), at(25, 40)}, 60},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Microsecond {
			t.Errorf("%s: self time %v, want %dµs", tc.name, got, tc.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	samples := []stackSample{
		// Innermost module frame wins over an outer one and over runtime frames.
		{40, []string{"runtime.mallocgc", "repro/internal/cdr.(*Encoder).WriteOctets", "repro/internal/totem.(*Ring).run"}},
		{20, []string{"runtime.selectgo", "repro/internal/totem.(*Ring).run"}},
		// A sub-package is charged to its module.
		{10, []string{"syscall.Syscall6", "repro/internal/transport/udp.(*port).readLoop"}},
		{10, []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{10, []string{"math/rand.(*Rand).Float64", "repro/ftperf.(*client).loop"}},
		{10, []string{"runtime.findRunnable", "runtime.schedule"}},
	}
	got := attribute(samples)
	want := map[string]float64{"cdr": 40, "totem": 20, "transport": 10, "gc": 10, "harness": 10, "runtime": 10}
	for _, b := range cpuBuckets {
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("%s: %v%%, want %v%%", b, got[b], want[b])
		}
	}
	if len(got) != len(cpuBuckets) {
		t.Errorf("attribute returned %d buckets, want %d", len(got), len(cpuBuckets))
	}
}

var sink uint64

func burnCPU(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*31 + uint64(i)
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range samples {
		if s.weight <= 0 {
			t.Fatalf("sample weight %d", s.weight)
		}
		for _, f := range s.funcs {
			found = found || strings.HasSuffix(f, ".burnCPU")
		}
	}
	if !found {
		t.Error("no decoded stack contains burnCPU")
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}

func write(t *testing.T, c *counter, id uint64, payload []byte) uint64 {
	t.Helper()
	out, err := c.Dispatch(&orb.Invocation{Operation: opWrite, Args: []cdr.Value{cdr.ULongLong(id), cdr.OctetSeq(payload)}})
	if err != nil {
		t.Fatal(err)
	}
	return out[0].AsULongLong()
}

func newTestCounter() *counter { return newCounter("IDL:test:1.0", 1024, new(atomic.Pointer[tracer])) }

func TestCounterStateTransfer(t *testing.T) {
	primary, backup, joiner := newTestCounter(), newTestCounter(), newTestCounter()
	for id := uint64(1); id <= 20; id++ {
		write(t, primary, id, bytes.Repeat([]byte{byte(id)}, 100))
		upd, err := primary.LastUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := backup.ApplyUpdate(upd); err != nil {
			t.Fatal(err)
		}
	}
	state, err := primary.GetState()
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.SetState(state); err != nil {
		t.Fatal(err)
	}
	want := primary.snapshot()
	if got := backup.snapshot(); got != want {
		t.Errorf("backup after updates %+v, primary %+v", got, want)
	}
	if got := joiner.snapshot(); got != want {
		t.Errorf("joiner after state transfer %+v, primary %+v", got, want)
	}
}

func TestCounterReadShipsNoPostimage(t *testing.T) {
	c := newTestCounter()
	write(t, c, 1, []byte{1})
	if upd, _ := c.LastUpdate(); len(upd) == 0 {
		t.Fatal("write left no postimage")
	}
	// A former primary that applied others' updates since its own last
	// write must not re-ship that write's postimage on a read.
	if _, err := c.Dispatch(&orb.Invocation{Operation: opRead, Args: []cdr.Value{cdr.ULongLong(2)}}); err != nil {
		t.Fatal(err)
	}
	upd, err := c.LastUpdate()
	if err != nil || upd == nil || len(upd) != 0 {
		t.Fatalf("postimage after a read = %v (nil=%v), %v; want empty, non-nil", upd, upd == nil, err)
	}
	if err := c.ApplyUpdate(upd); err != nil {
		t.Fatalf("applying an empty postimage: %v", err)
	}
}

// replicaSet runs the same writes on three counters and returns the
// check input for them.
func replicaSet(t *testing.T, writes []uint64) (map[string]*counter, groupCheck) {
	reps := map[string]*counter{"n1": newTestCounter(), "n2": newTestCounter(), "n3": newTestCounter()}
	gc := groupCheck{replicas: map[string]replicaState{}}
	for _, id := range writes {
		var n uint64
		for _, c := range reps {
			n = write(t, c, id, []byte{byte(id)})
		}
		gc.acks = append(gc.acks, ack{id: id, result: n})
	}
	for node, c := range reps {
		gc.replicas[node] = c.snapshot()
	}
	return reps, gc
}

func TestCheckGroupAcceptsExactlyOnce(t *testing.T) {
	_, gc := replicaSet(t, []uint64{1, 2, 3})
	if bad := checkGroup(gc); len(bad) != 0 {
		t.Fatalf("correct history rejected: %v", bad)
	}
	// A write whose reply was lost may or may not have been applied.
	gc.acks = gc.acks[:2]
	gc.failed = 1
	if bad := checkGroup(gc); len(bad) != 0 {
		t.Fatalf("applied write with a lost reply rejected: %v", bad)
	}
}

func TestCheckGroupCatchesDoubleApply(t *testing.T) {
	reps, gc := replicaSet(t, []uint64{1, 2, 3})
	// Every replica applies write 2 a second time: a failed duplicate
	// suppression. The replicas still agree with each other.
	for node, c := range reps {
		write(t, c, 2, []byte{2})
		gc.replicas[node] = c.snapshot()
	}
	if bad := checkGroup(gc); len(bad) == 0 {
		t.Fatal("double-applied write passed the check")
	}
}

func TestCheckGroupCatchesDivergence(t *testing.T) {
	reps, gc := replicaSet(t, []uint64{1, 2})
	write(t, reps["n3"], 3, []byte{3}) // one replica runs a write the others never saw
	gc.replicas["n3"] = reps["n3"].snapshot()
	if bad := checkGroup(gc); len(bad) == 0 {
		t.Fatal("diverged replicas passed the check")
	}
}

func TestCheckGroupCatchesLostWrite(t *testing.T) {
	_, gc := replicaSet(t, []uint64{1, 2})
	gc.acks = append(gc.acks, ack{id: 3, result: 3}) // acked but never applied
	if bad := checkGroup(gc); len(bad) == 0 {
		t.Fatal("lost acked write passed the check")
	}
}

func TestSessionCatchesStaleRead(t *testing.T) {
	s := newSession(0, 2)
	s.wrote(0, 5)
	s.read(0, 5)
	s.read(1, 0)
	if len(s.violations) != 0 {
		t.Fatalf("fresh reads flagged: %v", s.violations)
	}
	s.read(0, 4) // older than the client's own write
	if len(s.violations) != 1 {
		t.Fatalf("read-your-writes violation not caught: %v", s.violations)
	}
	s.read(1, 7)
	s.read(1, 6) // older than the client's previous read
	if len(s.violations) != 2 {
		t.Fatalf("monotonic-read violation not caught: %v", s.violations)
	}
}

func TestBlackout(t *testing.T) {
	base := epoch.Add(time.Second)
	at := func(msec int) time.Time { return base.Add(time.Duration(msec) * time.Millisecond) }
	stamps := func(msecs ...int) []int64 {
		var out []int64
		for _, m := range msecs {
			out = append(out, stamp(at(m)))
		}
		return out
	}
	cy := cycle{crash: at(0), reform: at(40), restart: at(200)}
	stopped := at(1000)
	cases := []struct {
		name string
		done []int64
		want int
	}{
		{"failover inside the restart delay", stamps(-5, 2, 45, 46, 60, 62, 198, 201, 400), 136},
		{"gap straddling the restart", stamps(-5, 2, 45, 46, 60, 250, 500), 190},
		{"one completion just after the crash, the next after the restart", stamps(1, 230, 231), 229},
		{"nothing completes after the restart", stamps(2, 45), 955},
		{"nothing completes at all", nil, 1000},
	}
	for _, c := range cases {
		if got := blackout(cy, c.done, stopped); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: blackout %v, want %dms", c.name, got, c.want)
		}
	}
	// Re-formation later than the scheduled restart moves the end point.
	late := cycle{crash: at(0), reform: at(300), restart: at(200)}
	if got := blackout(late, stamps(2, 250, 260, 600), stopped); got != 340*time.Millisecond {
		t.Errorf("late re-formation: blackout %v, want 340ms", got)
	}
	if got := resume(cy, stamps(-5, 2, 45, 46, 60, 250)); got != 5*time.Millisecond {
		t.Errorf("resume %v, want 5ms", got)
	}
}
