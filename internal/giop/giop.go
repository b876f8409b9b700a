// Package giop implements a General Inter-ORB Protocol (GIOP) style message
// layer: the request/reply framing that IIOP carries over TCP.
//
// The layout follows GIOP 1.2: a 12-byte header (magic, version, flags,
// message type, body size) followed by a CDR body whose alignment is
// computed from the start of the message. Requests and replies carry
// service contexts — the extension point FT-CORBA uses to piggyback fault
// tolerance metadata (FT_REQUEST request identifiers for duplicate
// detection, FT_GROUP_VERSION for stale-reference detection) on every
// invocation, which is exactly how the systems behind the paper keep the
// application unaware of replication.
//
// Large messages can be split into Fragment messages; the stream reader
// reassembles them transparently.
package giop

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
)

// MsgType enumerates GIOP message types.
type MsgType uint8

// GIOP message types (GIOP 1.2 numbering).
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
	MsgFragment
)

var msgTypeNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError", "Fragment",
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Header flags.
const (
	flagLittleEndian = 0x01
	flagMoreFrags    = 0x02
)

// HeaderLen is the fixed GIOP header size.
const HeaderLen = 12

// DefaultMaxFrame is the default largest single GIOP frame emitted by
// WriteMessage before fragmentation kicks in. Readers accept frames up to
// MaxMessageSize regardless.
const DefaultMaxFrame = 1 << 16

// MaxMessageSize bounds accepted message bodies (defensive).
const MaxMessageSize = 1 << 28

// Reply status values (GIOP ReplyStatusType).
const (
	ReplyNoException     uint32 = 0
	ReplyUserException   uint32 = 1
	ReplySystemException uint32 = 2
	ReplyLocationForward uint32 = 3
)

// Response flags for requests.
const (
	ResponseNone     byte = 0x00 // oneway, no reply at all
	ResponseExpected byte = 0x03 // normal twoway
)

// Service context identifiers. FTGroupVersion and FTRequest are the OMG
// FT-CORBA assignments; OperationID is a vendor-range context carrying the
// Eternal-style (parent, op) identifier used for duplicate suppression in
// nested invocations.
const (
	SvcFTGroupVersion uint32 = 12
	SvcFTRequest      uint32 = 13
	SvcOperationID    uint32 = 0x52455001 // vendor range: 'R','E','P',1
)

// Errors produced by the message layer.
var (
	ErrBadMagic   = errors.New("giop: bad magic")
	ErrBadVersion = errors.New("giop: unsupported GIOP version")
	ErrTooLarge   = errors.New("giop: message exceeds size limit")
	ErrBadType    = errors.New("giop: unknown message type")
	ErrOrphanFrag = errors.New("giop: fragment without preceding message")
)

// ServiceContext is one tagged blob in a request/reply header.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// FindContext returns the first context with the given id, or nil.
func FindContext(ctxs []ServiceContext, id uint32) []byte {
	for _, c := range ctxs {
		if c.ID == id {
			return c.Data
		}
	}
	return nil
}

// Request is a GIOP Request message.
type Request struct {
	RequestID     uint32
	ResponseFlags byte
	ObjectKey     []byte
	Operation     string
	Contexts      []ServiceContext
	Body          []byte // CDR-encoded argument list
}

// Reply is a GIOP Reply message.
type Reply struct {
	RequestID uint32
	Status    uint32
	Contexts  []ServiceContext
	Body      []byte // result values, exception, or forwarded IOR
}

// CancelRequest asks the server to abandon a pending request.
type CancelRequest struct {
	RequestID uint32
}

// LocateRequest asks whether an object key is served here.
type LocateRequest struct {
	RequestID uint32
	ObjectKey []byte
}

// LocateReply statuses.
const (
	LocateUnknown uint32 = 0
	LocateHere    uint32 = 1
	LocateForward uint32 = 2
)

// LocateReply answers a LocateRequest.
type LocateReply struct {
	RequestID uint32
	Status    uint32
	Body      []byte // forwarded IOR when Status == LocateForward
}

// CloseConnection is an orderly shutdown notice.
type CloseConnection struct{}

// MessageError reports a protocol violation to the peer.
type MessageError struct{}

// Message is implemented by all GIOP message kinds.
type Message interface {
	msgType() MsgType
	encodeBody(e *cdr.Encoder)
}

func (*Request) msgType() MsgType         { return MsgRequest }
func (*Reply) msgType() MsgType           { return MsgReply }
func (*CancelRequest) msgType() MsgType   { return MsgCancelRequest }
func (*LocateRequest) msgType() MsgType   { return MsgLocateRequest }
func (*LocateReply) msgType() MsgType     { return MsgLocateReply }
func (*CloseConnection) msgType() MsgType { return MsgCloseConnection }
func (*MessageError) msgType() MsgType    { return MsgMessageError }

func encodeContexts(e *cdr.Encoder, ctxs []ServiceContext) {
	e.WriteULong(uint32(len(ctxs)))
	for _, c := range ctxs {
		e.WriteULong(c.ID)
		e.WriteOctetSeq(c.Data)
	}
}

func decodeContexts(d *cdr.Decoder) ([]ServiceContext, error) {
	n, err := d.ReadCount(8) // an id and a length word each
	if err != nil {
		return nil, err
	}
	ctxs := make([]ServiceContext, 0, n)
	for i := 0; i < n; i++ {
		var c ServiceContext
		if c.ID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if c.Data, err = d.ReadOctetSeq(); err != nil {
			return nil, err
		}
		ctxs = append(ctxs, c)
	}
	return ctxs, nil
}

func (m *Request) encodeBody(e *cdr.Encoder) {
	e.WriteULong(m.RequestID)
	e.WriteOctet(m.ResponseFlags)
	e.WriteRaw([]byte{0, 0, 0}) // reserved
	// Target: KeyAddr addressing disposition.
	e.WriteUShort(0)
	e.WriteOctetSeq(m.ObjectKey)
	e.WriteString(m.Operation)
	encodeContexts(e, m.Contexts)
	if len(m.Body) > 0 {
		e.Align(8) // GIOP 1.2 bodies are 8-aligned
		e.WriteRaw(m.Body)
	}
}

func (m *Reply) encodeBody(e *cdr.Encoder) {
	e.WriteULong(m.RequestID)
	e.WriteULong(m.Status)
	encodeContexts(e, m.Contexts)
	if len(m.Body) > 0 {
		e.Align(8)
		e.WriteRaw(m.Body)
	}
}

func (m *CancelRequest) encodeBody(e *cdr.Encoder) { e.WriteULong(m.RequestID) }

func (m *LocateRequest) encodeBody(e *cdr.Encoder) {
	e.WriteULong(m.RequestID)
	e.WriteUShort(0) // KeyAddr
	e.WriteOctetSeq(m.ObjectKey)
}

func (m *LocateReply) encodeBody(e *cdr.Encoder) {
	e.WriteULong(m.RequestID)
	e.WriteULong(m.Status)
	if len(m.Body) > 0 {
		e.Align(8)
		e.WriteRaw(m.Body)
	}
}

func (*CloseConnection) encodeBody(*cdr.Encoder) {}
func (*MessageError) encodeBody(*cdr.Encoder)    {}

// Marshal encodes a complete single-frame GIOP message. The frame is
// marshalled directly into a single buffer whose size field is patched in
// place — no build-then-copy pass — and ownership of the buffer passes to
// the caller.
func Marshal(m Message) []byte {
	e := cdr.GetEncoder(cdr.BigEndian)
	e.Grow(HeaderLen + sizeHint(m))
	writeHeader(e, m.msgType(), 0, false)
	m.encodeBody(e)
	buf := e.TakeBytes()
	e.Release()
	patchSize(buf)
	return buf
}

// sizeHint estimates the encoded body size so Marshal can reserve the frame
// in one allocation; the constants cover headers, service contexts, and
// alignment padding for typical messages.
func sizeHint(m Message) int {
	switch v := m.(type) {
	case *Request:
		n := len(v.Body) + len(v.ObjectKey) + len(v.Operation) + 64
		for _, c := range v.Contexts {
			n += len(c.Data) + 16
		}
		return n
	case *Reply:
		n := len(v.Body) + 32
		for _, c := range v.Contexts {
			n += len(c.Data) + 16
		}
		return n
	default:
		return 96
	}
}

func writeHeader(e *cdr.Encoder, t MsgType, flags byte, moreFrags bool) {
	e.WriteRaw([]byte{'G', 'I', 'O', 'P', 1, 2})
	if moreFrags {
		flags |= flagMoreFrags
	}
	e.WriteOctet(flags)
	e.WriteOctet(byte(t))
	e.WriteULong(0) // size, patched later
}

func patchSize(buf []byte) {
	size := uint32(len(buf) - HeaderLen)
	buf[8] = byte(size >> 24)
	buf[9] = byte(size >> 16)
	buf[10] = byte(size >> 8)
	buf[11] = byte(size)
}

// Unmarshal decodes a single complete frame produced by Marshal. Fragmented
// streams must go through Reader instead. The decoded message owns copies
// of its byte fields and is safe to retain past the frame.
func Unmarshal(frame []byte) (Message, error) {
	return unmarshal(frame, false)
}

// unmarshal decodes a frame; with zc the message's byte fields (Body,
// ObjectKey, service context data) are views into frame and die with it —
// the pooled read path pairs this with ReleaseFrame.
func unmarshal(frame []byte, zc bool) (Message, error) {
	if len(frame) < HeaderLen {
		return nil, cdr.ErrTruncated
	}
	if string(frame[0:4]) != "GIOP" {
		return nil, ErrBadMagic
	}
	if frame[4] != 1 {
		return nil, ErrBadVersion
	}
	little := frame[6]&flagLittleEndian != 0
	order := byte(cdr.BigEndian)
	if little {
		order = cdr.LittleEndian
	}
	t := MsgType(frame[7])
	d := cdr.NewDecoder(frame, order)
	d.SetZeroCopy(zc)
	if _, err := d.ReadRaw(HeaderLen); err != nil {
		return nil, err
	}
	return decodeBody(t, d)
}

func decodeBody(t MsgType, d *cdr.Decoder) (Message, error) {
	switch t {
	case MsgRequest:
		m := &Request{}
		var err error
		if m.RequestID, err = d.ReadULong(); err != nil {
			return nil, fmt.Errorf("giop: request id: %w", err)
		}
		if m.ResponseFlags, err = d.ReadOctet(); err != nil {
			return nil, fmt.Errorf("giop: response flags: %w", err)
		}
		if _, err = d.ReadRaw(3); err != nil {
			return nil, fmt.Errorf("giop: reserved: %w", err)
		}
		if _, err = d.ReadUShort(); err != nil { // addressing disposition
			return nil, fmt.Errorf("giop: target disposition: %w", err)
		}
		if m.ObjectKey, err = d.ReadOctetSeq(); err != nil {
			return nil, fmt.Errorf("giop: object key: %w", err)
		}
		if m.Operation, err = d.ReadString(); err != nil {
			return nil, fmt.Errorf("giop: operation: %w", err)
		}
		if m.Contexts, err = decodeContexts(d); err != nil {
			return nil, fmt.Errorf("giop: contexts: %w", err)
		}
		if d.Remaining() > 0 {
			if err = d.Align(8); err != nil {
				return nil, err
			}
			m.Body, err = d.ReadRaw(d.Remaining())
			if err != nil {
				return nil, err
			}
		}
		return m, nil
	case MsgReply:
		m := &Reply{}
		var err error
		if m.RequestID, err = d.ReadULong(); err != nil {
			return nil, fmt.Errorf("giop: reply id: %w", err)
		}
		if m.Status, err = d.ReadULong(); err != nil {
			return nil, fmt.Errorf("giop: reply status: %w", err)
		}
		if m.Contexts, err = decodeContexts(d); err != nil {
			return nil, fmt.Errorf("giop: contexts: %w", err)
		}
		if d.Remaining() > 0 {
			if err = d.Align(8); err != nil {
				return nil, err
			}
			m.Body, err = d.ReadRaw(d.Remaining())
			if err != nil {
				return nil, err
			}
		}
		return m, nil
	case MsgCancelRequest:
		m := &CancelRequest{}
		var err error
		if m.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgLocateRequest:
		m := &LocateRequest{}
		var err error
		if m.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if _, err = d.ReadUShort(); err != nil {
			return nil, err
		}
		if m.ObjectKey, err = d.ReadOctetSeq(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgLocateReply:
		m := &LocateReply{}
		var err error
		if m.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if m.Status, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if d.Remaining() > 0 {
			if err = d.Align(8); err != nil {
				return nil, err
			}
			m.Body, err = d.ReadRaw(d.Remaining())
			if err != nil {
				return nil, err
			}
		}
		return m, nil
	case MsgCloseConnection:
		return &CloseConnection{}, nil
	case MsgMessageError:
		return &MessageError{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
}
