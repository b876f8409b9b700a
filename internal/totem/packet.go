package totem

import (
	"fmt"
	"reflect"

	"repro/internal/cdr"
)

// pktType enumerates protocol packet kinds.
type pktType uint8

const (
	pktHello pktType = iota + 1
	pktPropose
	pktAccept
	pktInstall
	pktToken
	_ // 6 was a single-message data packet; a retransmission is now a one-message frame
	pktDataBatch
	pktNudge
	pktDirect
)

// RingID identifies one ring incarnation. Epochs grow monotonically; the
// coordinator name disambiguates concurrent formations in different
// partition components (which necessarily have different coordinators).
type RingID struct {
	Epoch uint64
	Coord string
}

// Less orders ring ids (by epoch, then coordinator).
func (r RingID) Less(o RingID) bool {
	if r.Epoch != o.Epoch {
		return r.Epoch < o.Epoch
	}
	return r.Coord < o.Coord
}

// IsZero reports whether the id is unset.
func (r RingID) IsZero() bool { return r.Epoch == 0 && r.Coord == "" }

// String renders the id as epoch@coord.
func (r RingID) String() string { return fmt.Sprintf("%d@%s", r.Epoch, r.Coord) }

// hello is the gossip heartbeat used for liveness and remerge detection.
type hello struct {
	From     string
	MaxEpoch uint64 // highest ring epoch From has seen
}

// propose is the coordinator's ring formation proposal.
type propose struct {
	Ring    RingID
	Members []string
}

// storedMsg is an ordered message retained for retransmission/recovery.
type storedMsg struct {
	Seq     uint64
	Group   string
	Sender  string
	Payload []byte
}

// accept is a member's answer to a proposal, carrying its old-ring state
// for extended-virtual-synchrony recovery plus its local group
// subscriptions.
type accept struct {
	Ring      RingID
	From      string
	OldRing   RingID
	Delivered uint64 // highest contiguously delivered seq in OldRing
	Stored    []storedMsg
	Groups    []string
}

// recoverySet carries, for one old ring, the union of messages any new
// member of that old ring still holds; members deliver the suffix they are
// missing before installing the new view.
type recoverySet struct {
	OldRing RingID
	Msgs    []storedMsg // sorted by Seq ascending
}

// groupSub records that a node is subscribed to a group.
type groupSub struct {
	Node  string
	Group string
}

// install finalizes formation: members recover, deliver the view change,
// and start circulating the token.
type install struct {
	Ring     RingID
	Members  []string
	Recovery []recoverySet
	Subs     []groupSub
}

// token is the circulating ring token.
type token struct {
	Ring    RingID
	Round   uint64
	Seq     uint64   // highest sequence number assigned on this ring
	Aru     uint64   // min contiguous-received over nodes visited this round
	LastAru uint64   // final Aru of the previous round (safe to prune <=)
	Rtr     []uint64 // sequence numbers requested for retransmission
}

// copyFrom makes t a copy of s, reusing t's Rtr storage.
func (t *token) copyFrom(s *token) {
	rtr := append(t.Rtr[:0], s.Rtr...)
	*t = *s
	t.Rtr = rtr
}

// nudge asks the coordinator to resume token circulation: an idle ring
// parks the token at the coordinator instead of spinning it, and a member
// that queues new work sends a nudge so the token starts rotating again
// immediately instead of at the coordinator's heartbeat-paced keepalive
// rotation (see pacing.go). Stale nudges — ring already rotating, or from
// an old ring — cost at most one extra rotation, so senders may nudge on
// suspicion.
type nudge struct {
	Ring RingID
	From string
}

// direct is an unordered point-to-point message between two ring endpoints.
// It bypasses the token and the total order entirely — no sequence number,
// no store, no retransmission — and the receiving protocol loop hands it to
// Consumer.Direct as it arrives, so its latency does not wait on the token.
// Reliability is the application's problem
// (request/response layers retry or fall back to the ordered path), exactly
// like UDP.
type direct struct {
	From    string
	Group   string
	Payload []byte
}

// dataBatch is a data frame, the one packet that carries ordered messages:
// messages with contiguous sequence numbers (FirstSeq, FirstSeq+1, ...),
// all originated by Sender. The token holder packs one visit's batch into
// as few frames as maxFrameBytes allows; a retransmission is a frame of
// one message re-framed from the message log, whose Sender is the
// message's original sender, so the recovery path addresses individual
// sequence numbers regardless of original framing.
type dataBatch struct {
	Ring     RingID
	Sender   string
	FirstSeq uint64
	Groups   []string // per sub-message, parallel to Payloads
	Payloads [][]byte
}

func encodeRingID(e *cdr.Encoder, r RingID) {
	e.WriteULongLong(r.Epoch)
	e.WriteString(r.Coord)
}

func encodeStrings(e *cdr.Encoder, ss []string) {
	e.WriteULong(uint32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

func encodeStoredMsgs(e *cdr.Encoder, ms []storedMsg) {
	e.WriteULong(uint32(len(ms)))
	for _, m := range ms {
		e.WriteULongLong(m.Seq)
		e.WriteString(m.Group)
		e.WriteString(m.Sender)
		e.WriteOctetSeq(m.Payload)
	}
}

// PacketClass coarsely classifies an encoded ring datagram payload without
// decoding it, so fault-injection filters can target specific traffic (the
// circulating token, coalesced batch frames) from outside the package.
type PacketClass uint8

// Packet classes.
const (
	ClassUnknown PacketClass = iota
	ClassHello
	ClassMembership // propose / accept / install
	ClassToken
	ClassDataBatch
	ClassDirect
)

// Classify inspects the leading type octet of an encoded ring datagram.
func Classify(payload []byte) PacketClass {
	if len(payload) == 0 {
		return ClassUnknown
	}
	switch pktType(payload[0]) {
	case pktHello:
		return ClassHello
	case pktPropose, pktAccept, pktInstall:
		return ClassMembership
	case pktToken:
		return ClassToken
	case pktDataBatch:
		return ClassDataBatch
	case pktDirect:
		return ClassDirect
	default:
		return ClassUnknown
	}
}

// encodePacket marshals any protocol packet into a fresh buffer the
// caller owns: the coordinator's install, which is resent until the first
// token round returns, and tests. The protocol loop's sends encode into the
// ring's own encoder instead (Ring.encode).
func encodePacket(p any) ([]byte, error) {
	e := cdr.GetEncoderSized(cdr.BigEndian, packetSizeHint(p))
	defer e.Release()
	if err := writePacket(e, p); err != nil {
		return nil, err
	}
	return e.TakeBytes(), nil
}

// writePacket appends the wire encoding of any protocol packet to e. An
// unknown packet type is a local programming error and is reported as
// such rather than panicking on the network path.
func writePacket(e *cdr.Encoder, p any) error {
	switch v := p.(type) {
	case *hello:
		e.WriteOctet(byte(pktHello))
		e.WriteString(v.From)
		e.WriteULongLong(v.MaxEpoch)
	case *propose:
		e.WriteOctet(byte(pktPropose))
		encodeRingID(e, v.Ring)
		encodeStrings(e, v.Members)
	case *accept:
		e.WriteOctet(byte(pktAccept))
		encodeRingID(e, v.Ring)
		e.WriteString(v.From)
		encodeRingID(e, v.OldRing)
		e.WriteULongLong(v.Delivered)
		encodeStoredMsgs(e, v.Stored)
		encodeStrings(e, v.Groups)
	case *install:
		e.WriteOctet(byte(pktInstall))
		encodeRingID(e, v.Ring)
		encodeStrings(e, v.Members)
		e.WriteULong(uint32(len(v.Recovery)))
		for _, rs := range v.Recovery {
			encodeRingID(e, rs.OldRing)
			encodeStoredMsgs(e, rs.Msgs)
		}
		e.WriteULong(uint32(len(v.Subs)))
		for _, s := range v.Subs {
			e.WriteString(s.Node)
			e.WriteString(s.Group)
		}
	case *token:
		e.WriteOctet(byte(pktToken))
		encodeRingID(e, v.Ring)
		e.WriteULongLong(v.Round)
		e.WriteULongLong(v.Seq)
		e.WriteULongLong(v.Aru)
		e.WriteULongLong(v.LastAru)
		e.WriteULong(uint32(len(v.Rtr)))
		for _, s := range v.Rtr {
			e.WriteULongLong(s)
		}
	case *dataBatch:
		e.WriteOctet(byte(pktDataBatch))
		encodeRingID(e, v.Ring)
		e.WriteString(v.Sender)
		e.WriteULongLong(v.FirstSeq)
		e.WriteULong(uint32(len(v.Payloads)))
		for i, p := range v.Payloads {
			e.WriteString(v.Groups[i])
			e.WriteOctetSeq(p)
		}
	case *nudge:
		e.WriteOctet(byte(pktNudge))
		encodeRingID(e, v.Ring)
		e.WriteString(v.From)
	case *direct:
		e.WriteOctet(byte(pktDirect))
		e.WriteString(v.From)
		e.WriteString(v.Group)
		e.WriteOctetSeq(v.Payload)
	default:
		// reflect.TypeOf rather than %T: it keeps p from escaping, so a
		// caller's packet (SendDirect's) can live on its stack.
		return fmt.Errorf("totem: writePacket: unknown packet %v", reflect.TypeOf(p))
	}
	return nil
}

// firstOctet returns b[0] (the packet-type tag) or an invalid tag for an
// empty datagram.
func firstOctet(b []byte) byte {
	if len(b) == 0 {
		return 0xff
	}
	return b[0]
}

// packetSizeHint returns an upper bound on the encoded size of the
// packets that dominate the wire — data frames (so a coalesced batch
// marshals into one exact-size buffer) and the token (so the packet that
// circulates back to back under load does not pay the pool's 512-byte seed
// every hop). Other packets return 0: formation traffic is rare and the
// default seed fits it.
func packetSizeHint(p any) int {
	switch v := p.(type) {
	case *dataBatch:
		n := 64 + len(v.Sender)
		for i, pl := range v.Payloads {
			n += 16 + len(v.Groups[i]) + len(pl)
		}
		return n
	case *token:
		return 96 + len(v.Ring.Coord) + 8*len(v.Rtr)
	case *direct:
		return 32 + len(v.From) + len(v.Group) + len(v.Payload)
	}
	return 0
}

// hotPackets is decode storage a ring owns for the packet kinds that
// dominate the wire: the token, which circulates back to back under load,
// the data frame, and the heartbeat every peer sends every beat. Decoding
// into it reuses the structs and their Rtr, Groups and Payloads storage,
// so receiving any of them allocates nothing beyond the owned frame copy a
// data frame's payloads alias.
//
// Lifetime rule: a packet decoded here is valid until the next packet is
// decoded; anything that must outlive it is copied into ring-owned storage
// (the message store keeps each sub-message by value, and the retained
// token is copied into its own buffers).
type hotPackets struct {
	tok   token
	batch dataBatch
	hb    hello
}

// hello returns a heartbeat to decode into, as token does.
func (h *hotPackets) hello() *hello {
	if h == nil {
		return new(hello)
	}
	h.hb = hello{}
	return &h.hb
}

// token returns a token to decode into: h's storage, reset, or a fresh one
// when h is nil.
func (h *hotPackets) token() *token {
	if h == nil {
		return new(token)
	}
	h.tok = token{Rtr: h.tok.Rtr[:0]}
	return &h.tok
}

// dataBatch returns a data frame to decode into, as token does. The reused
// frame first drops its payload references, so it pins no frame it no
// longer describes.
func (h *hotPackets) dataBatch() *dataBatch {
	if h == nil {
		return new(dataBatch)
	}
	clear(h.batch.Payloads)
	h.batch = dataBatch{Groups: h.batch.Groups[:0], Payloads: h.batch.Payloads[:0]}
	return &h.batch
}

// decodePacketIn unmarshals a datagram payload. With owned false every
// variable-length field is copied out, so the caller may reuse b (the
// transport TryRecv contract). With owned true the caller owns b and will
// never modify it: payloads alias b, so a data frame costs the one copy
// of b the receive path makes, not one allocation per message. hot, when
// non-nil, supplies reused storage for a token, a data frame or a
// heartbeat (see hotPackets).
func decodePacketIn(b []byte, owned bool, hot *hotPackets) (any, error) {
	r := pktReader{cdr.NewReader(b, cdr.BigEndian)}
	r.SetZeroCopy(owned)
	t, err := r.ReadOctet()
	if err != nil {
		return nil, err
	}
	var pkt any
	switch pktType(t) {
	case pktHello:
		v := hot.hello()
		v.From, v.MaxEpoch = r.Str(), r.U64()
		pkt = v
	case pktPropose:
		pkt = &propose{Ring: r.ringID(), Members: r.strings()}
	case pktAccept:
		pkt = &accept{Ring: r.ringID(), From: r.Str(), OldRing: r.ringID(), Delivered: r.U64(),
			Stored: r.storedMsgs(), Groups: r.strings()}
	case pktInstall:
		v := &install{Ring: r.ringID(), Members: r.strings()}
		for n := r.Count(16); n > 0 && r.Err() == nil; n-- {
			v.Recovery = append(v.Recovery, recoverySet{OldRing: r.ringID(), Msgs: r.storedMsgs()})
		}
		for n := r.Count(8); n > 0 && r.Err() == nil; n-- {
			v.Subs = append(v.Subs, groupSub{Node: r.Str(), Group: r.Str()})
		}
		pkt = v
	case pktToken:
		v := hot.token()
		v.Ring, v.Round, v.Seq, v.Aru, v.LastAru = r.ringID(), r.U64(), r.U64(), r.U64(), r.U64()
		for n := r.Count(8); n > 0 && r.Err() == nil; n-- {
			v.Rtr = append(v.Rtr, r.U64())
		}
		pkt = v
	case pktDataBatch:
		v := hot.dataBatch()
		v.Ring, v.Sender, v.FirstSeq = r.ringID(), r.Str(), r.U64()
		n := r.Count(8) // each message takes at least its two length words
		if cap(v.Payloads) < n {
			v.Groups = make([]string, 0, n)
			v.Payloads = make([][]byte, 0, n)
		}
		for ; n > 0 && r.Err() == nil; n-- {
			v.Groups = append(v.Groups, r.Str())
			v.Payloads = append(v.Payloads, r.Octets())
		}
		pkt = v
	case pktNudge:
		pkt = &nudge{Ring: r.ringID(), From: r.Str()}
	case pktDirect:
		pkt = &direct{From: r.Str(), Group: r.Str(), Payload: r.Octets()}
	default:
		return nil, fmt.Errorf("totem: unknown packet type %d", t)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return pkt, nil
}

// pktReader reads a packet's fields in wire order and keeps the first
// error (cdr.Reader), with the readers of totem's composite fields.
type pktReader struct{ cdr.Reader }

func (r *pktReader) ringID() RingID { return RingID{Epoch: r.U64(), Coord: r.Str()} }

func (r *pktReader) strings() []string {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		out = append(out, r.Str())
	}
	return out
}

func (r *pktReader) storedMsgs() []storedMsg {
	n := r.Count(20) // a seq and three length words
	if n == 0 {
		return nil
	}
	out := make([]storedMsg, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		out = append(out, storedMsg{Seq: r.U64(), Group: r.Str(), Sender: r.Str(), Payload: r.Octets()})
	}
	return out
}
