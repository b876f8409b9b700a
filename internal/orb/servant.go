// Package orb implements a miniature Object Request Broker: typed servants
// behind a POA-style object adapter on the server side, and object-reference
// proxies with transparent profile failover on the client side, speaking
// GIOP/IIOP from packages giop and iiop.
//
// This is the unreplicated substrate the fault tolerance layers build on
// (and measure against): the replication engine reuses the Servant model
// for replica dispatch, the interception approach taps the ORB's IIOP
// connections, and the FT-CORBA services are themselves ORB objects.
package orb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/nondet"
)

// Invocation carries one request through dispatch.
//
// Lifetime contract. An Invocation and everything it points to belong to
// the dispatching layer and are valid only while Dispatch runs:
//
//   - Args are read-only. A servant must not modify them (nor the bytes
//     of an octet sequence among them).
//   - Under replication, octet-sequence arguments (AsOctetSeq) alias the
//     delivered message frame instead of being copied out of it. Frames
//     are never recycled, so a kept slice stays intact, but it pins the
//     whole frame in memory: a servant that keeps one past Dispatch
//     should copy it.
//   - Det and Caller are valid only during Dispatch: the replication
//     engine builds them, with the Invocation itself, in one record per
//     execution, and a nested invocation must be issued before Dispatch
//     returns.
//
// Results a servant returns may alias its arguments: they are marshalled
// before the invocation's storage is dropped.
type Invocation struct {
	// Operation is the IDL operation name.
	Operation string
	// Args are the decoded request arguments.
	Args []cdr.Value
	// Det supplies deterministic time/randomness when the servant runs
	// replicated; nil for plain unreplicated dispatch.
	Det *nondet.Context
	// Caller optionally exposes infrastructure context (e.g. the
	// replication engine for nested invocations); nil otherwise.
	Caller any
}

// UserException is an application-level exception carried in a reply
// (CORBA user exceptions, as opposed to system exceptions).
type UserException struct {
	// Name is the exception repository id or symbolic name.
	Name string
	// Info carries exception members.
	Info []cdr.Value
}

// Error implements error.
func (e *UserException) Error() string {
	return fmt.Sprintf("user exception %s", e.Name)
}

// Servant is the implementation of one object (or one replica of one
// object). Dispatch must be deterministic given the same sequence of
// invocations when used with active replication; all nondeterminism must
// come from inv.Det.
type Servant interface {
	// RepoID returns the repository id of the servant's interface.
	RepoID() string
	// Dispatch executes one operation. Returning a *UserException produces
	// a user-exception reply; a giop.SystemException produces a system
	// exception reply; any other error produces a CORBA UNKNOWN-style
	// internal system exception.
	Dispatch(inv *Invocation) ([]cdr.Value, error)
}

// Checkpointable is implemented by servants whose state can be captured and
// restored — required for passive replication, state transfer to new
// replicas, and recovery.
type Checkpointable interface {
	// GetState serializes the full application state. The returned slice
	// belongs to the caller: the servant must not keep it or write it
	// again, because replication logs it as it is (wal.Log.Append).
	GetState() ([]byte, error)
	// SetState replaces the application state.
	SetState([]byte) error
}

// Updatable is optionally implemented by servants that can produce and
// apply incremental updates (postimages), avoiding full-state transfer
// after every operation under warm passive replication.
type Updatable interface {
	// LastUpdate returns the postimage of the most recent operation. The
	// returned slice belongs to the caller, as with GetState. An empty
	// non-nil postimage means the operation changed nothing (a read); nil
	// makes a warm-passive primary ship the full state instead.
	LastUpdate() ([]byte, error)
	// ApplyUpdate applies a postimage produced by LastUpdate.
	ApplyUpdate([]byte) error
}

// MethodFunc implements one operation.
type MethodFunc func(inv *Invocation) ([]cdr.Value, error)

// MethodServant is a Servant assembled from a method table — the analogue
// of an IDL-generated skeleton.
type MethodServant struct {
	repoID  string
	mu      sync.RWMutex
	methods map[string]MethodFunc
}

var _ Servant = (*MethodServant)(nil)

// NewMethodServant creates an empty skeleton for the given repository id.
func NewMethodServant(repoID string) *MethodServant {
	return &MethodServant{repoID: repoID, methods: make(map[string]MethodFunc)}
}

// Define registers an operation; it returns the servant for chaining.
func (s *MethodServant) Define(op string, fn MethodFunc) *MethodServant {
	s.mu.Lock()
	s.methods[op] = fn
	s.mu.Unlock()
	return s
}

// Operations lists the defined operation names, sorted.
func (s *MethodServant) Operations() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ops := make([]string, 0, len(s.methods))
	for op := range s.methods {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// RepoID returns the repository id.
func (s *MethodServant) RepoID() string { return s.repoID }

// Dispatch routes to the method table.
func (s *MethodServant) Dispatch(inv *Invocation) ([]cdr.Value, error) {
	s.mu.RLock()
	fn, ok := s.methods[inv.Operation]
	s.mu.RUnlock()
	if !ok {
		return nil, giop.SystemException{
			RepoID:    giop.ExcBadOperation,
			Minor:     1,
			Completed: giop.CompletedNo,
		}
	}
	return fn(inv)
}

// ErrNoServant is returned when dispatching to an unknown object key.
var ErrNoServant = errors.New("orb: no servant for object key")

// EncodeReplyBody renders result values for a NO_EXCEPTION reply.
func EncodeReplyBody(results []cdr.Value) []byte {
	e := cdr.GetEncoder(cdr.BigEndian)
	WriteReplyBody(e, results)
	out := e.TakeBytes()
	e.Release()
	return out
}

// WriteReplyBody writes the NO_EXCEPTION reply body for results into e:
// EncodeReplyBody's bytes, laid out from e's alignment origin. Writing into
// a region (cdr.Encoder.BeginRegion) of the message that carries the body
// costs no buffer of its own.
func WriteReplyBody(e *cdr.Encoder, results []cdr.Value) { cdr.EncodeValues(e, results) }

// DecodeReplyBody parses a NO_EXCEPTION reply body.
func DecodeReplyBody(body []byte) ([]cdr.Value, error) {
	if len(body) == 0 {
		return nil, nil
	}
	return cdr.DecodeValues(cdr.NewDecoder(body, cdr.BigEndian))
}

// EncodeRequestBody renders request arguments.
func EncodeRequestBody(args []cdr.Value) []byte {
	return EncodeReplyBody(args)
}

// WriteRequestBody writes the request body for args into e, as
// WriteReplyBody does for results.
func WriteRequestBody(e *cdr.Encoder, args []cdr.Value) { WriteReplyBody(e, args) }

// DecodeRequestBody parses request arguments.
func DecodeRequestBody(body []byte) ([]cdr.Value, error) {
	return DecodeReplyBody(body)
}

// AppendRequestArgs decodes request arguments in place: the values are
// appended to dst, so a caller with room there allocates no slice, and
// octet sequences alias body instead of being copied out of it. The result
// shares body's lifetime (see the Invocation lifetime contract). An empty
// body decodes to no arguments and leaves dst as it is.
func AppendRequestArgs(dst []cdr.Value, body []byte) ([]cdr.Value, error) {
	if len(body) == 0 {
		return dst, nil
	}
	d := cdr.NewDecoder(body, cdr.BigEndian)
	d.SetZeroCopy(true)
	return cdr.AppendValues(dst, d)
}

// EncodeUserException renders a user exception reply body.
func EncodeUserException(exc *UserException) []byte {
	e := cdr.GetEncoder(cdr.BigEndian)
	WriteUserException(e, exc)
	out := e.TakeBytes()
	e.Release()
	return out
}

// WriteUserException writes the user exception reply body for exc into e,
// as WriteReplyBody does for results.
func WriteUserException(e *cdr.Encoder, exc *UserException) {
	e.WriteString(exc.Name)
	cdr.EncodeValues(e, exc.Info)
}

// DecodeUserException parses a user exception reply body.
func DecodeUserException(body []byte) (*UserException, error) {
	d := cdr.NewDecoder(body, cdr.BigEndian)
	name, err := d.ReadString()
	if err != nil {
		return nil, fmt.Errorf("orb: user exception name: %w", err)
	}
	info, err := cdr.DecodeValues(d)
	if err != nil {
		return nil, fmt.Errorf("orb: user exception info: %w", err)
	}
	return &UserException{Name: name, Info: info}, nil
}

// BuildReply converts a Dispatch outcome into a GIOP reply: results, user
// exception, or system exception.
func BuildReply(requestID uint32, results []cdr.Value, err error) *giop.Reply {
	switch {
	case err == nil:
		return &giop.Reply{
			RequestID: requestID,
			Status:    giop.ReplyNoException,
			Body:      EncodeReplyBody(results),
		}
	default:
		var uexc *UserException
		if errors.As(err, &uexc) {
			return &giop.Reply{
				RequestID: requestID,
				Status:    giop.ReplyUserException,
				Body:      EncodeUserException(uexc),
			}
		}
		var sysExc giop.SystemException
		if errors.As(err, &sysExc) {
			return &giop.Reply{
				RequestID: requestID,
				Status:    giop.ReplySystemException,
				Body:      sysExc.Encode(),
			}
		}
		return &giop.Reply{
			RequestID: requestID,
			Status:    giop.ReplySystemException,
			Body: giop.SystemException{
				RepoID:    giop.ExcInternal,
				Minor:     0,
				Completed: giop.CompletedMaybe,
			}.Encode(),
		}
	}
}

// ReplyOutcome converts a GIOP reply back into Dispatch form on the client.
func ReplyOutcome(rep *giop.Reply) ([]cdr.Value, error) {
	switch rep.Status {
	case giop.ReplyNoException:
		return DecodeReplyBody(rep.Body)
	case giop.ReplyUserException:
		uexc, err := DecodeUserException(rep.Body)
		if err != nil {
			return nil, err
		}
		return nil, uexc
	case giop.ReplySystemException:
		sysExc, err := giop.DecodeSystemException(rep.Body, cdr.BigEndian)
		if err != nil {
			return nil, err
		}
		return nil, sysExc
	default:
		return nil, fmt.Errorf("orb: unexpected reply status %d", rep.Status)
	}
}
