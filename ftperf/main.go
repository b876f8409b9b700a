// Command ftperf is the repository's benchmark: it drives the
// fault-tolerant CORBA stack the way an application does — a core.Domain,
// object groups created through the FT-CORBA Replication Manager, and
// replication.Proxy.Invoke calls from a separate client node — under one
// of three closed-loop traffic mixes, checks that the replicas' outputs are
// correct, and prints its metrics. Run it through run.sh from the
// repository root:
//
//	bash ftperf/run.sh --workload active3_busy --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the window in thirds, untraced, traced and untraced, and prints
// per-layer metrics measured from outside the program (spans around
// calls, wrapped servants, counter deltas, a counting network filter, fault
// subscriptions and a CPU profile) plus the tracing overhead. The last
// line of standard output is one JSON object. NOTES.md explains the
// workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setups is how many times a run builds its deployment; setup_s is the
// median, and the last deployment is the one measured.
const setups = 21

// tailCycles is how many follower crashes end a run whose workload has
// no crashes in its window.
const tailCycles = 15

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: active3_busy, lf3_sparse or warm3_failover")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced window instead of the end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ftperf: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// window is one measured interval of the run.
type window struct {
	start, end time.Time
	cpu        time.Duration // process user+system time
	steal      float64       // share of host CPU time taken by other guests, %
	mallocs    uint64
	allocBytes uint64
	counts     counters
	cycles     []cycle
	ops        []op // calls that ended inside the window
	okOps      int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one window of length d while the clients keep calling.
// Workloads with crashEvery crash and restore a primary at that spacing
// inside the window.
func (e *env) measure(d time.Duration) (*window, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win := &window{counts: e.stats.total()}
	win.cpu = cpuTime()
	steal0 := stealTicks()
	win.start = time.Now()
	end := win.start.Add(d)
	if e.w.crashEvery > 0 {
		next := win.start.Add(e.w.crashEvery / 2)
		for k := 0; next.Add(restartAfter + 300*time.Millisecond).Before(end); k++ {
			time.Sleep(time.Until(next))
			if _, err := e.heal(""); err != nil {
				return nil, fmt.Errorf("before crash cycle %d: %w", k, err)
			}
			cy, err := e.crashCycle(e.primaryOf(k % len(e.gids)))
			if err != nil {
				return nil, fmt.Errorf("crash cycle %d: %w", k, err)
			}
			win.cycles = append(win.cycles, cy)
			next = next.Add(e.w.crashEvery)
		}
	}
	time.Sleep(time.Until(end))
	win.end = time.Now()
	win.cpu = cpuTime() - win.cpu
	win.steal = float64(stealTicks()-steal0) / (win.end.Sub(win.start).Seconds() * 100 * float64(runtime.NumCPU())) * 100
	win.counts = e.stats.total().minus(win.counts)
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return win, nil
}

// fill attaches the calls that ended inside the window; call it once the
// clients have stopped.
func (win *window) fill(e *env) {
	s, t := stamp(win.start), stamp(win.end)
	for _, c := range e.clients {
		for _, o := range c.log {
			if o.end >= s && o.end < t {
				win.ops = append(win.ops, o)
				if o.ok {
					win.okOps++
				}
			}
		}
	}
}

func (win *window) opsPerSec() float64 {
	return float64(win.okOps) / win.end.Sub(win.start).Seconds()
}

// latencies returns the µs latencies of the window's successful writes
// or reads.
func (win *window) latencies(write bool) []float64 {
	var out []float64
	for _, o := range win.ops {
		if o.ok && o.write == write {
			out = append(out, float64(o.end-o.start)/1e3)
		}
	}
	return out
}

func (win *window) perOp(x float64) float64 { return x / float64(max(win.okOps, 1)) }

func run(w workload, seed int64, length time.Duration, trace bool) (*result, error) {
	printStamp(w, seed)
	var e *env
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.d.Stop()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = newEnv(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	runtime.GC()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(seed, stop)
		}(c)
	}
	plain, traced, tr, profile, err := e.measureRun(length, trace)
	var tail []cycle
	if err == nil && w.crashEvery == 0 {
		time.Sleep(100 * time.Millisecond)
		for k := 0; k < tailCycles && err == nil; k++ {
			if _, err = e.heal(""); err != nil {
				err = fmt.Errorf("before crash cycle %d: %w", k, err)
				break
			}
			var cy cycle
			if cy, err = e.crashCycle(e.followerVictim(k)); err != nil {
				err = fmt.Errorf("crash cycle %d: %w", k, err)
			}
			tail = append(tail, cy)
			time.Sleep(100 * time.Millisecond)
		}
	}
	stopped := time.Now()
	close(stop)
	wg.Wait()
	if err != nil {
		e.d.Stop()
		return nil, err
	}
	violations := e.check()
	e.d.Stop()

	for _, win := range plain {
		win.fill(e)
	}
	cycles := plain[0].cycles
	if trace {
		traced.fill(e)
		cycles = traced.cycles
	}
	if w.crashEvery == 0 {
		cycles = tail
	}
	done := e.completions()

	res := &result{Correct: len(violations) == 0, Metrics: map[string]metric{}}
	for _, c := range e.clients {
		for _, o := range c.log {
			res.Attempted++
			if !o.ok {
				res.Failed++
			}
		}
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	if trace {
		perLayer(res, plain, traced, tr, profile, cycles, done, stopped)
		res.Metrics["fault.false_evictions"] = metric{float64(e.falseEvictions.Load()), "count"}
	} else {
		endToEnd(res, plain[0], cycles, done, stopped, setupTimes)
	}
	fmt.Printf("false evictions: %d; host steal during the window: %.1f%%\n", e.falseEvictions.Load(), plain[0].steal)
	report(w, res)
	return res, nil
}

// measureRun measures the run's window. Traced, it measures three
// thirds: untraced, traced (tracer, counting network filter and CPU
// profile on), untraced again. Comparing the traced third with the mean of the
// other two gives the tracing overhead with any steady drift over the
// run cancelled; the live heap grows for the first seconds of a window,
// so its early thirds run faster (NOTES.md).
func (e *env) measureRun(length time.Duration, trace bool) (plain []*window, traced *window, tr *tracer, profile []byte, err error) {
	if !trace {
		win, err := e.measure(length)
		return []*window{win}, nil, nil, nil, err
	}
	third := length / 3
	before, err := e.measure(third)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	tr = newTracer()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, nil, nil, err
	}
	e.installTracer(tr)
	traced, err = e.measure(third)
	e.installTracer(nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	after, err := e.measure(third)
	return []*window{before, after}, traced, tr, buf.Bytes(), err
}

func endToEnd(res *result, win *window, cycles []cycle, done []int64, stopped time.Time, setupTimes []float64) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	writes, reads := win.latencies(true), win.latencies(false)
	put("ops_s", win.opsPerSec(), "1/s")
	put("write_p50_us", percentile(writes, 0.5), "us")
	put("write_p90_us", percentile(writes, 0.9), "us")
	put("read_p50_us", percentile(reads, 0.5), "us")
	put("read_p90_us", percentile(reads, 0.9), "us")
	put("cpu_us_op", win.perOp(us(win.cpu)), "us")
	put("allocs_op", win.perOp(float64(win.mallocs)), "count")
	put("alloc_kb_op", win.perOp(float64(win.allocBytes)/1024), "KiB")
	var bo, rec []float64
	for _, cy := range cycles {
		bo = append(bo, ms(blackout(cy, done, stopped)))
		rec = append(rec, ms(cy.recovered.Sub(cy.restart)))
		fmt.Printf("crash %-3s blackout %7.2f ms  recovery %7.2f ms\n", cy.victim, bo[len(bo)-1], rec[len(rec)-1])
	}
	put("blackout_ms", median(bo), "ms")
	put("recovery_ms", median(rec), "ms")
	put("setup_s", median(setupTimes), "s")
	fmt.Printf("samples: %d writes, %d reads, %d crash cycles, %d set-ups; window %.2fs\n",
		len(writes), len(reads), len(cycles), len(setupTimes), win.end.Sub(win.start).Seconds())
}

func perLayer(res *result, plain []*window, win *window, tr *tracer, profile []byte, cycles []cycle, done []int64, stopped time.Time) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var orderWait, reply, self, dispatch []float64
	for _, cs := range tr.spans() {
		if cs.call.end.Before(win.start) || !cs.call.end.Before(win.end) {
			continue
		}
		self = append(self, us(selfTime(cs.call, cs.children)))
		for _, ch := range cs.children {
			dispatch = append(dispatch, us(ch.dur()))
		}
		if !cs.write || len(cs.children) == 0 {
			continue
		}
		first := cs.children[0]
		for _, ch := range cs.children[1:] {
			if ch.start.Before(first.start) {
				first = ch
			}
		}
		orderWait = append(orderWait, us(first.start.Sub(cs.call.start)))
		reply = append(reply, us(cs.call.end.Sub(first.end)))
	}
	cnt := win.counts
	reads := len(win.latencies(false))
	put("replication.order_wait_us", median(orderWait), "us")
	put("replication.reply_us", median(reply), "us")
	put("replication.self_us", median(self), "us")
	put("replication.executions_op", win.perOp(float64(tr.dispatches.Load())), "count")
	put("replication.retries_op", win.perOp(float64(cnt.retries)), "count")
	put("replication.dups_op", win.perOp(float64(cnt.dups)), "count")
	lfFrac := 0.0
	if reads > 0 {
		lfFrac = float64(cnt.lfReads) / float64(reads)
	}
	put("replication.lf_local_read_frac", lfFrac, "ratio")
	put("replication.checkpoints_op", win.perOp(float64(cnt.checkpoints)), "count")
	put("orb.dispatch_us", median(dispatch), "us")
	put("orb.get_state_us", median(tr.getState.durs), "us")
	put("orb.set_state_us", median(tr.setState.durs), "us")
	stateKB := 0.0
	if n := len(tr.getState.durs); n > 0 {
		stateKB = float64(tr.getState.bytes) / 1024 / float64(n)
	}
	put("orb.state_kb", stateKB, "KiB")
	put("totem.sent_op", win.perOp(float64(cnt.sent)), "count")
	put("totem.retransmit_op", win.perOp(float64(cnt.retransmit)), "count")
	put("totem.formations", float64(cnt.formations), "count")
	put("transport.datagrams_op", win.perOp(float64(tr.datagrams.Load())), "count")
	put("transport.kb_op", win.perOp(float64(tr.bytes.Load())/1024), "KiB")
	var detect, reform, resumeMS []float64
	for _, cy := range cycles {
		detect = append(detect, ms(cy.detect.Sub(cy.crash)))
		reform = append(reform, ms(cy.reform.Sub(cy.crash)))
		resumeMS = append(resumeMS, ms(resume(cy, done)))
	}
	put("fault.detect_ms", median(detect), "ms")
	put("totem.reform_ms", median(reform), "ms")
	put("replication.resume_ms", median(resumeMS), "ms")
	samples, err := parseProfile(profile)
	if err != nil {
		fmt.Printf("cpu profile unreadable: %v\n", err)
	}
	for mod, pct := range attribute(samples) {
		put(mod+".cpu_pct", pct, "%")
	}
	writes := win.latencies(true)
	put("client.write_p99_us", percentile(writes, 0.99), "us")
	put("client.read_p99_us", percentile(win.latencies(false), 0.99), "us")
	plainOps := (plain[0].opsPerSec() + plain[1].opsPerSec()) / 2
	plainP50 := (percentile(plain[0].latencies(true), 0.5) + percentile(plain[1].latencies(true), 0.5)) / 2
	tracedP50 := percentile(writes, 0.5)
	put("trace.ops_s_ratio", win.opsPerSec()/plainOps, "ratio")
	put("trace.write_p50_ratio", tracedP50/plainP50, "ratio")
	fmt.Printf("tracing overhead: ops_s %.1f untraced (mean of the thirds before and after), %.1f traced; write_p50_us %.1f untraced, %.1f traced\n",
		plainOps, win.opsPerSec(), plainP50, tracedP50)
	fmt.Printf("samples: %d call spans, %d dispatch spans, %d profile samples, %d crash cycles\n",
		len(self), len(dispatch), len(samples), len(cycles))
}

// report prints every metric by name and unit, one per line.
func report(w workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s %-32s %12.4f %s\n", w.name, n, m.Value, m.Unit)
	}
	fmt.Printf("%s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
}

// printStamp prints what the result depends on besides the code: seed,
// source revision, CPU and Go runtime.
func printStamp(w workload, seed int64) {
	fmt.Printf("ftperf workload=%s seed=%d commit=%s source=%s cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		w.name, seed, gitCommit(), sourceDigest(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// stealTicks reads the host's cumulative steal time (USER_HZ ticks) from
// /proc/stat, or 0 where it is unavailable.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
