package giop

import (
	"fmt"

	"repro/internal/cdr"
)

// FTRequest is the FT_REQUEST service context body (FT-CORBA §23.2.7): a
// client-chosen identifier that is identical on every retransmission of a
// logically-same request, letting replicas detect and suppress duplicates
// and return the logged reply instead of re-executing.
type FTRequest struct {
	ClientID    string
	RetentionID uint64
	// ExpirationTicks bounds how long servers must remember the request for
	// duplicate detection (logical ticks of the infrastructure clock).
	ExpirationTicks uint64
}

// Encode renders the context body.
func (f FTRequest) Encode() []byte {
	return cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
		e.WriteString(f.ClientID)
		e.WriteULongLong(f.RetentionID)
		e.WriteULongLong(f.ExpirationTicks)
	})
}

// DecodeFTRequest parses an FT_REQUEST context body.
func DecodeFTRequest(data []byte) (FTRequest, error) {
	var f FTRequest
	d, err := cdr.DecodeEncapsulation(data)
	if err != nil {
		return f, fmt.Errorf("giop: FT_REQUEST: %w", err)
	}
	if f.ClientID, err = d.ReadString(); err != nil {
		return f, fmt.Errorf("giop: FT_REQUEST client id: %w", err)
	}
	if f.RetentionID, err = d.ReadULongLong(); err != nil {
		return f, fmt.Errorf("giop: FT_REQUEST retention id: %w", err)
	}
	if f.ExpirationTicks, err = d.ReadULongLong(); err != nil {
		return f, fmt.Errorf("giop: FT_REQUEST expiration: %w", err)
	}
	return f, nil
}

// Key returns a map key identifying the logical request.
func (f FTRequest) Key() string {
	return fmt.Sprintf("%s/%d", f.ClientID, f.RetentionID)
}

// FTGroupVersion is the FT_GROUP_VERSION service context body: the group
// version the client believes it is talking to. A server whose group has
// moved on replies LOCATION_FORWARD with a fresh IOGR.
type FTGroupVersion struct {
	Version uint32
}

// Encode renders the context body.
func (f FTGroupVersion) Encode() []byte {
	return cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
		e.WriteULong(f.Version)
	})
}

// DecodeFTGroupVersion parses an FT_GROUP_VERSION context body.
func DecodeFTGroupVersion(data []byte) (FTGroupVersion, error) {
	var f FTGroupVersion
	d, err := cdr.DecodeEncapsulation(data)
	if err != nil {
		return f, fmt.Errorf("giop: FT_GROUP_VERSION: %w", err)
	}
	if f.Version, err = d.ReadULong(); err != nil {
		return f, fmt.Errorf("giop: FT_GROUP_VERSION: %w", err)
	}
	return f, nil
}

// OperationID is the Eternal-style invocation identifier carried as a
// vendor service context. The triple distinguishes the *message* (which
// differs between redundant transmissions) from the *operation* (which is
// identical for duplicates):
//
//	MsgSeq    — total-order sequence number of the message carrying this
//	            invocation; differs between duplicate transmissions.
//	ParentSeq — sequence number of the message that invoked the parent
//	            operation (0 at the root of a nested chain).
//	OpSeq     — per-parent operation counter assigned by the invoking ORB.
//
// (ParentSeq, OpSeq) is the operation identifier: equal for duplicates,
// unique per logical operation.
type OperationID struct {
	MsgSeq    uint64
	ParentSeq uint64
	OpSeq     uint32
}

// OpKey identifies the logical operation regardless of which replica's
// message carried it.
type OpKey struct {
	ParentSeq uint64
	OpSeq     uint32
}

// Key returns the duplicate-detection key.
func (o OperationID) Key() OpKey { return OpKey{ParentSeq: o.ParentSeq, OpSeq: o.OpSeq} }

// Encode renders the context body.
func (o OperationID) Encode() []byte {
	return cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
		e.WriteULongLong(o.MsgSeq)
		e.WriteULongLong(o.ParentSeq)
		e.WriteULong(o.OpSeq)
	})
}

// DecodeOperationID parses an OperationID context body.
func DecodeOperationID(data []byte) (OperationID, error) {
	var o OperationID
	d, err := cdr.DecodeEncapsulation(data)
	if err != nil {
		return o, fmt.Errorf("giop: OperationID: %w", err)
	}
	if o.MsgSeq, err = d.ReadULongLong(); err != nil {
		return o, fmt.Errorf("giop: OperationID msg seq: %w", err)
	}
	if o.ParentSeq, err = d.ReadULongLong(); err != nil {
		return o, fmt.Errorf("giop: OperationID parent seq: %w", err)
	}
	if o.OpSeq, err = d.ReadULong(); err != nil {
		return o, fmt.Errorf("giop: OperationID op seq: %w", err)
	}
	return o, nil
}

// String renders the identifier like the paper's figures: ⟨msg parent op⟩.
func (o OperationID) String() string {
	return fmt.Sprintf("<%d %d %d>", o.MsgSeq, o.ParentSeq, o.OpSeq)
}

// SystemException is the GIOP encoding of a CORBA system exception reply.
type SystemException struct {
	RepoID    string // e.g. "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
	Minor     uint32
	Completed uint32 // 0 = YES, 1 = NO, 2 = MAYBE
}

// Completion status values.
const (
	CompletedYes   uint32 = 0
	CompletedNo    uint32 = 1
	CompletedMaybe uint32 = 2
)

// Well-known system exception repository ids used by the infrastructure.
const (
	ExcCommFailure    = "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
	ExcObjectNotExist = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
	ExcBadOperation   = "IDL:omg.org/CORBA/BAD_OPERATION:1.0"
	ExcTransient      = "IDL:omg.org/CORBA/TRANSIENT:1.0"
	ExcNoResponse     = "IDL:omg.org/CORBA/NO_RESPONSE:1.0"
	ExcInternal       = "IDL:omg.org/CORBA/INTERNAL:1.0"
	ExcTimeout        = "IDL:omg.org/CORBA/TIMEOUT:1.0"
)

// Error implements the error interface so exceptions flow through Go code.
func (s SystemException) Error() string {
	return fmt.Sprintf("system exception %s (minor %d, completed %d)", s.RepoID, s.Minor, s.Completed)
}

// Encode renders the exception as a reply body.
func (s SystemException) Encode() []byte {
	e := cdr.GetEncoderSized(cdr.BigEndian, len(s.RepoID)+13)
	s.EncodeTo(e)
	out := e.TakeBytes()
	e.Release()
	return out
}

// EncodeTo writes the exception's reply-body encoding into e (Encode's
// bytes, at e's alignment origin).
func (s SystemException) EncodeTo(e *cdr.Encoder) {
	e.WriteString(s.RepoID)
	e.WriteULong(s.Minor)
	e.WriteULong(s.Completed)
}

// DecodeSystemException parses a system exception reply body.
func DecodeSystemException(body []byte, order byte) (SystemException, error) {
	var s SystemException
	d := cdr.NewDecoder(body, order)
	var err error
	if s.RepoID, err = d.ReadString(); err != nil {
		return s, fmt.Errorf("giop: exception repo id: %w", err)
	}
	if s.Minor, err = d.ReadULong(); err != nil {
		return s, fmt.Errorf("giop: exception minor: %w", err)
	}
	if s.Completed, err = d.ReadULong(); err != nil {
		return s, fmt.Errorf("giop: exception completed: %w", err)
	}
	return s, nil
}
