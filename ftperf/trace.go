package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// tracer records what the traced run sees from outside the program: the
// span of every client call, the dispatch spans the wrapped servants
// report for it (linked by request id), checkpoint capture and restore
// times, and the datagrams the simulated network carried. Spans stay in memory
// and are reduced when the run ends.
type tracer struct {
	mu       sync.Mutex
	inflight map[uint64]*callSpan
	done     []callSpan

	dispatches atomic.Int64
	getState   stateStat
	setState   stateStat

	datagrams atomic.Int64
	bytes     atomic.Int64
}

// span is one interval on the wall clock.
type span struct {
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// callSpan is one client call (the parent) and the servant dispatches it
// caused (the children; several under active replication).
type callSpan struct {
	call     span
	write    bool
	children []span
}

// stateStat accumulates GetState or SetState spans.
type stateStat struct {
	mu    sync.Mutex
	durs  []float64 // µs
	bytes int64
}

func newTracer() *tracer {
	return &tracer{inflight: make(map[uint64]*callSpan)}
}

// begin opens the span of call id.
func (t *tracer) begin(id uint64, write bool, start time.Time) {
	t.mu.Lock()
	t.inflight[id] = &callSpan{call: span{start: start}, write: write}
	t.mu.Unlock()
}

// end closes the span of call id; ok reports whether the call succeeded
// (failed calls are dropped from the span set).
func (t *tracer) end(id uint64, end time.Time, ok bool) {
	t.mu.Lock()
	cs := t.inflight[id]
	delete(t.inflight, id)
	if cs != nil && ok {
		cs.call.end = end
		t.done = append(t.done, *cs)
	}
	t.mu.Unlock()
}

// dispatched records one servant dispatch of request id. Dispatches that
// arrive after their call returned (a slower active replica) count as
// executions but add no child span.
func (t *tracer) dispatched(id uint64, start, end time.Time) {
	t.dispatches.Add(1)
	t.mu.Lock()
	if cs := t.inflight[id]; cs != nil {
		cs.children = append(cs.children, span{start, end})
	}
	t.mu.Unlock()
}

func (t *tracer) stateOp(s *stateStat, start time.Time, n int) {
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.durs = append(s.durs, us)
	s.bytes += int64(n)
	s.mu.Unlock()
}

// spans returns the completed call spans.
func (t *tracer) spans() []callSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]callSpan(nil), t.done...)
}

// countDatagram is a netsim DropFilter that counts every datagram and
// drops none.
func (t *tracer) countDatagram(_, _ string, _ uint16, payload []byte) bool {
	t.datagrams.Add(1)
	t.bytes.Add(int64(len(payload)))
	return false
}
