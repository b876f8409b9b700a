// Package fifo is the batch hand-off queue on the delivery path: each
// replica's executor queue (replication's taskQueue), the one queue between
// a totem ring's protocol loop, which routes deliveries as it makes them,
// and the executor that runs them.
//
// A producer never blocks — the busiest producer is the totem protocol
// loop, which must not stall on a slow servant, or token circulation would
// stop and trigger spurious membership changes — so the queue is
// unbounded. A consumer takes everything queued in one Drain per wake-up
// instead of one lock (and one goroutine hand-off) per item.
package fifo

import "sync"

// keepCap bounds the capacity of a drained batch the queue reuses: a batch
// grown by a burst is left to the collector instead of being held forever.
const keepCap = 4096

// Queue is an unbounded FIFO with one consumer.
type Queue[T any] struct {
	mu     sync.Mutex
	items  []T
	closed bool
	ready  chan struct{}
}

// New returns an empty, open queue.
func New[T any]() *Queue[T] {
	return &Queue[T]{ready: make(chan struct{}, 1)}
}

// Push appends v. It never blocks; once the queue is closed it drops v.
// Only the push that makes the queue non-empty signals Ready: the consumer
// takes everything in one Drain, so a push onto a non-empty queue is
// covered by the signal its first item sent.
func (q *Queue[T]) Push(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, v)
	first := len(q.items) == 1
	q.mu.Unlock()
	if first {
		q.signal()
	}
}

// Ready receives after a Push onto an empty queue, or a Close. A consumer
// whose Drain came back empty and open waits on it, then drains again; a
// wake-up may find the queue already empty.
func (q *Queue[T]) Ready() <-chan struct{} { return q.ready }

// Drain returns every queued item in FIFO order and whether the queue is
// closed (no item will ever follow). prev hands back the batch the previous
// Drain returned: Drain clears it, so it pins none of the items it held, and
// reuses its storage for the next batch. The caller must not touch prev
// afterwards.
func (q *Queue[T]) Drain(prev []T) ([]T, bool) {
	clear(prev)
	if cap(prev) > keepCap {
		prev = nil
	}
	q.mu.Lock()
	batch := q.items
	q.items = prev[:0]
	closed := q.closed
	q.mu.Unlock()
	return batch, closed
}

// Close stops the queue: later Pushes are dropped, and the consumer is
// woken to drain what remains.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *Queue[T]) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}
