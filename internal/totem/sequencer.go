package totem

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cdr"
	"repro/internal/transport"
)

// Sequencer is the classic fixed-sequencer total-order baseline used for
// the group-communication ablation (experiment T1): senders unicast to a
// designated sequencer node (the lexicographically smallest member), which
// stamps a global sequence number and rebroadcasts. Membership is static
// and there is no fault tolerance — it exists to quantify what the ring
// protocol's token pass costs and buys.
type Sequencer struct {
	node    string
	members []string
	port    transport.Port
	portNum uint16
	isSeq   bool

	mu        sync.Mutex
	stopped   bool
	delivered uint64
	pending   map[uint64]seqData
	consume   func(Delivery)
	nextSeq   uint64 // sequencer only
	wg        sync.WaitGroup
}

type seqData struct {
	seq     uint64
	group   string
	sender  string
	payload []byte
}

// Sequencer wire format: 'R' raw submission (to sequencer), 'S' stamped
// broadcast.
func encodeSeqPkt(stamped bool, m seqData) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	if stamped {
		e.WriteOctet('S')
	} else {
		e.WriteOctet('R')
	}
	e.WriteULongLong(m.seq)
	e.WriteString(m.group)
	e.WriteString(m.sender)
	e.WriteOctetSeq(m.payload)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeSeqPkt(b []byte) (stamped bool, m seqData, err error) {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	t, err := d.ReadOctet()
	if err != nil {
		return false, m, err
	}
	switch t {
	case 'S':
		stamped = true
	case 'R':
	default:
		return false, m, fmt.Errorf("totem: bad sequencer packet type %q", t)
	}
	if m.seq, err = d.ReadULongLong(); err != nil {
		return stamped, m, err
	}
	if m.group, err = d.ReadString(); err != nil {
		return stamped, m, err
	}
	if m.sender, err = d.ReadString(); err != nil {
		return stamped, m, err
	}
	m.payload, err = d.ReadOctetSeq()
	return stamped, m, err
}

// NewSequencer creates and starts one endpoint of the fixed-sequencer
// baseline. All endpoints must be given the same member list; the smallest
// member name is the sequencer. deliver receives the ordered messages, one
// call at a time, in sequence order, on the receive goroutine or, at the
// sequencer, on a Multicast caller's; like Consumer.Deliver it must not
// block or call Multicast, and nil drops the messages.
func NewSequencer(tp transport.Transport, node string, members []string, port uint16, deliver func(Delivery)) (*Sequencer, error) {
	if len(members) == 0 {
		return nil, errors.New("totem: sequencer needs members")
	}
	if deliver == nil {
		deliver = func(Delivery) {}
	}
	sorted := append([]string(nil), members...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	dp, err := tp.Open(node, port)
	if err != nil {
		return nil, fmt.Errorf("totem: sequencer port: %w", err)
	}
	s := &Sequencer{
		node:    node,
		members: sorted,
		port:    dp,
		portNum: port,
		isSeq:   sorted[0] == node,
		pending: make(map[uint64]seqData),
		consume: deliver,
	}
	s.wg.Add(1)
	go s.recvLoop()
	return s, nil
}

func (s *Sequencer) recvLoop() {
	defer s.wg.Done()
	for {
		dg, err := transport.Recv(s.port)
		if err != nil {
			return
		}
		stamped, m, err := decodeSeqPkt(dg.Payload)
		if err != nil {
			continue
		}
		if stamped {
			s.deliver(m)
			continue
		}
		if !s.isSeq {
			continue
		}
		s.stamp(m)
	}
}

func (s *Sequencer) stamp(m seqData) {
	s.mu.Lock()
	s.nextSeq++
	m.seq = s.nextSeq
	s.mu.Unlock()
	raw := encodeSeqPkt(true, m)
	for _, member := range s.members {
		if member == s.node {
			continue
		}
		_ = s.port.Send(member, s.portNum, raw)
	}
	s.deliver(m)
}

func (s *Sequencer) deliver(m seqData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.seq <= s.delivered {
		return
	}
	s.pending[m.seq] = m
	for {
		next, ok := s.pending[s.delivered+1]
		if !ok {
			return
		}
		delete(s.pending, s.delivered+1)
		s.delivered++
		s.consume(Delivery{Deliver: Deliver{
			MsgID:   next.seq,
			Seq:     next.seq,
			Group:   next.group,
			Sender:  next.sender,
			Payload: next.payload,
		}})
	}
}

// Multicast submits a message for total ordering.
func (s *Sequencer) Multicast(group string, payload []byte) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	s.mu.Unlock()
	m := seqData{group: group, sender: s.node, payload: append([]byte(nil), payload...)}
	if s.isSeq {
		s.stamp(m)
		return nil
	}
	return s.port.Send(s.members[0], s.portNum, encodeSeqPkt(false, m))
}

// Stop shuts the endpoint down.
func (s *Sequencer) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.port.Close()
	s.wg.Wait()
}
