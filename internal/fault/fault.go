// Package fault implements FT-CORBA-style fault management: the fault
// notifier that fans fault reports out to interested consumers (chiefly the
// replication manager), and the phi-accrual suspicion machine that decides
// when a silent peer is suspect and when it is dead.
//
// Detection itself is not a separate monitor here. Each totem ring feeds
// its members' hello gossip into one Suspicion per peer (see phi.go) and
// reports suspicions and recoveries through a Notifier; the replication
// engine reports the confirmed fault once the ring evicts the peer.
// Membership, not probing, therefore sets the detection latency the
// experiments measure.
package fault

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a fault report.
type Kind uint8

// Fault kinds.
const (
	ObjectCrash Kind = iota + 1
	ProcessCrash
	NodeCrash
	// InvariantViolation reports a broken protocol invariant detected at
	// runtime (e.g. a non-contiguous delivery or an unencodable message).
	// In strict-invariant builds these abort instead; in production they
	// are reported here and the protocol recovers by reformation.
	InvariantViolation
	// RetentionOverflow reports a retried invocation refused because its
	// duplicate-suppression record was evicted by the record cap before
	// its client finished with it: the operation may have run, so it is
	// not run again. Member names the client.
	RetentionOverflow
	// DRShipFailure reports a record or checkpoint the disaster-recovery
	// store refused: the standby may lack an acknowledged operation. Detail
	// names what failed to ship and the store's error.
	DRShipFailure
)

var kindNames = map[Kind]string{
	ObjectCrash:        "object-crash",
	ProcessCrash:       "process-crash",
	NodeCrash:          "node-crash",
	InvariantViolation: "invariant-violation",
	RetentionOverflow:  "retention-overflow",
	DRShipFailure:      "dr-ship-failure",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event distinguishes confirmed faults from the suspicion lifecycle around
// them. The zero value is EventFault so every pre-existing Push site keeps
// its meaning.
type Event uint8

const (
	// EventFault is a confirmed fault: the entity is declared failed.
	EventFault Event = iota
	// EventSuspect reports a raised suspicion: the entity missed enough
	// heartbeats to be quarantined but not yet evicted.
	EventSuspect
	// EventRecover reports a retracted suspicion or a post-fault recovery:
	// the entity is alive after all.
	EventRecover
)

var eventNames = map[Event]string{
	EventFault:   "fault",
	EventSuspect: "suspect",
	EventRecover: "recover",
}

// String names the event.
func (e Event) String() string {
	if s, ok := eventNames[e]; ok {
		return s
	}
	return "unknown"
}

// Report is one fault notification, identifying the failed entity in the
// object→process→node hierarchy.
type Report struct {
	Kind Kind
	// Event is the lifecycle stage: confirmed fault (the zero value),
	// raised suspicion, or recovery.
	Event Event
	// Node is the host of the failed entity.
	Node string
	// GroupID identifies the object group of a failed member (object
	// faults only).
	GroupID uint64
	// Member identifies the failed member/target within its scope.
	Member string
	// Detail describes the fault (invariant violations).
	Detail string
	// Detected is when the detector declared the fault.
	Detected time.Time
}

// Notifier fans fault reports out to subscribers. The zero value is ready
// to use.
type Notifier struct {
	mu      sync.Mutex
	subs    map[int]*subscription
	next    int
	dropped atomic.Uint64
}

type subscription struct {
	filter func(Report) bool
	ch     chan Report
}

// Subscribe registers a consumer. Reports matching filter (nil = all) are
// delivered on the returned channel; cancel unsubscribes and closes it.
// Delivery never blocks the notifier: a subscriber that falls more than
// 1024 reports behind loses the oldest ones.
func (n *Notifier) Subscribe(filter func(Report) bool) (<-chan Report, func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.subs == nil {
		n.subs = make(map[int]*subscription)
	}
	id := n.next
	n.next++
	sub := &subscription{filter: filter, ch: make(chan Report, 1024)}
	n.subs[id] = sub
	cancel := func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if s, ok := n.subs[id]; ok {
			delete(n.subs, id)
			close(s.ch)
		}
	}
	return sub.ch, cancel
}

// Push publishes a fault report to all matching subscribers.
func (n *Notifier) Push(r Report) {
	if r.Detected.IsZero() {
		r.Detected = time.Now()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.subs {
		if s.filter != nil && !s.filter(r) {
			continue
		}
		select {
		case s.ch <- r:
		default:
			// Drop the oldest to make room; a fault consumer that is this
			// far behind is itself suspect. The loss is counted so chaos
			// invariants can assert no report vanished during a storm.
			select {
			case <-s.ch:
				n.dropped.Add(1)
			default:
			}
			select {
			case s.ch <- r:
			default:
				n.dropped.Add(1)
			}
		}
	}
}

// Dropped reports how many reports were discarded because a subscriber fell
// behind its channel buffer.
func (n *Notifier) Dropped() uint64 { return n.dropped.Load() }
