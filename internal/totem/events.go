package totem

// Delivery is one entry of a ring's ordered stream, handed to
// Consumer.Deliver in a single total order per ring. Message deliveries,
// the hot case, travel inline in Deliver; a membership change travels in
// Event, and Deliver is then zero. One stream carries both, so deliveries
// and views reach the consumer in the one order extended virtual synchrony
// requires.
type Delivery struct {
	Deliver
	// Event is nil for a message delivery, else a ViewChange or GroupView.
	Event Event
}

// Event is a membership change in the ordered stream: ViewChange or
// GroupView.
type Event interface{ isEvent() }

// Deliver carries one totally ordered multicast message.
type Deliver struct {
	// MsgID is a system-wide unique, totally ordered message identifier:
	// the ring epoch in the high bits and the on-ring sequence number in
	// the low bits. Eternal-style operation identifiers are built from it.
	MsgID uint64
	// Ring identifies the ring that ordered the message.
	Ring RingID
	// Seq is the on-ring sequence number (contiguous from 1 per ring).
	Seq uint64
	// Group is the destination process group.
	Group string
	// Sender is the node that multicast the message.
	Sender string
	// Payload is the application payload. It aliases storage the ring
	// never reuses — its private copy of the frame that carried the
	// message, or, for this node's own message, the buffer handed to
	// Multicast — so a consumer may keep it, and must not modify it.
	Payload []byte
}

// ViewChange announces a new ring membership, totally ordered with respect
// to message delivery (extended virtual synchrony: members coming from the
// same previous ring deliver the same messages before the same view).
// Members is shared with the ring's own snapshot: read or copy it, never
// modify it.
type ViewChange struct {
	Ring    RingID
	Members []string
}

func (ViewChange) isEvent() {}

// GroupView announces the membership of one process group, emitted whenever
// it changes (join/leave messages or ring view changes). All group members
// observe the same GroupView at the same point in the delivery order.
// Members is shared as ViewChange's is.
type GroupView struct {
	Ring    RingID
	Group   string
	Members []string
}

func (GroupView) isEvent() {}

// MsgIDFor composes the system-wide message identifier from a ring epoch
// and an on-ring sequence number. Epochs are bounded well below 2^24 in any
// realistic run, and on-ring sequence numbers below 2^40.
func MsgIDFor(epoch, seq uint64) uint64 { return epoch<<40 | (seq & (1<<40 - 1)) }
