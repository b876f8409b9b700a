package replication

// The replication wire codec: every engine message, written by the
// encoders below and read back by decodeWire, one field per line in wire
// order. testdata/wire_golden.txt pins the bytes.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
)

func encodeOpKey(e *cdr.Encoder, k opKey) {
	e.WriteString(k.ClientID)
	e.WriteULongLong(k.ParentSeq)
	e.WriteULongLong(k.OpSeq)
}

func readOpKey(r *cdr.Reader) opKey {
	return opKey{ClientID: r.Str(), ParentSeq: r.U64(), OpSeq: r.U64()}
}

// encodeWire marshals an engine message into a caller-owned buffer. The
// buffer comes from the shared encoder pool and is handed to
// Ring.Multicast, which takes ownership (no defensive copies anywhere on
// the path). An unknown message type is a local programming error reported
// to the caller instead of panicking on the invocation path. The two hot
// messages also have typed writers that encode their bodies in place:
// encodeInvocation (a proxy's call) and encodeExecReply (an execution's
// reply).
func encodeWire(m any) ([]byte, error) {
	e := cdr.GetEncoder(cdr.BigEndian)
	switch v := m.(type) {
	case *msgInvocation:
		writeInvocationHead(e, v)
		e.WriteOctetSeq(v.Args)
		writeInvocationTail(e, v)
	case *msgReply:
		writeReply(e, v)
	case *msgCheckpoint:
		e.WriteOctet(byte(wireCheckpoint))
		e.WriteULongLong(v.GroupID)
		e.WriteOctet(v.Reason)
		e.WriteULongLong(v.UpToMsgID)
		e.WriteOctetSeq(v.State)
		e.WriteOctetSeq(v.Covered)
		e.WriteULongLong(v.LfSeq)
	case *msgStateReq:
		e.WriteOctet(byte(wireStateReq))
		e.WriteULongLong(v.GroupID)
		e.WriteString(v.From)
		e.WriteULongLong(v.LastExec)
	case *msgLfOrder:
		e.WriteOctet(byte(wireLfOrder))
		e.WriteULongLong(v.GroupID)
		e.WriteULongLong(v.Epoch)
		e.WriteULongLong(v.Seq)
		e.WriteString(v.Leader)
		encodeOpKey(e, v.Key)
		e.WriteString(v.Operation)
		e.WriteOctetSeq(v.Args)
		e.WriteBool(v.Oneway)
		e.WriteULongLong(v.Done)
	case *msgLfSubmit:
		e.WriteOctet(byte(wireLfSubmit))
		e.WriteULongLong(v.GroupID)
		encodeOpKey(e, v.Key)
		e.WriteString(v.Operation)
		e.WriteOctetSeq(v.Args)
		e.WriteBool(v.ReadOnly)
		e.WriteULongLong(v.MinSeq)
		e.WriteString(v.From)
		e.WriteULongLong(v.Done)
	case *msgLfLease:
		e.WriteOctet(byte(wireLfLease))
		e.WriteULongLong(v.GroupID)
		e.WriteULongLong(v.Epoch)
		e.WriteString(v.Leader)
		e.WriteULongLong(uint64(v.Dur))
	default:
		e.Release()
		return nil, fmt.Errorf("replication: encodeWire: unknown message %T", m)
	}
	out := e.TakeBytes()
	e.Release()
	return out, nil
}

// writeInvocationHead writes an invocation's fields up to its Args body and
// writeInvocationTail the fields after it; the caller writes the body
// between them.
func writeInvocationHead(e *cdr.Encoder, v *msgInvocation) {
	e.WriteOctet(byte(wireInvocation))
	e.WriteULongLong(v.GroupID)
	encodeOpKey(e, v.Key)
	e.WriteString(v.Operation)
}

func writeInvocationTail(e *cdr.Encoder, v *msgInvocation) {
	e.WriteBool(v.Oneway)
	e.WriteBool(v.Fulfillment)
	e.WriteULongLong(v.Done)
}

// encodeInvocation marshals v with args written in place as its Args body
// (v.Args is not read): the arguments are encoded once, into the payload
// itself, as a length-prefixed region whose alignment starts at its first
// byte, so the payload is byte-identical to encodeWire's for v with Args
// set to orb.EncodeRequestBody(args). It also returns the body: the Args a
// decoder of payload sees, a view into payload.
func encodeInvocation(v *msgInvocation, args []cdr.Value) (payload, body []byte) {
	e := cdr.GetEncoder(cdr.BigEndian)
	writeInvocationHead(e, v)
	reg := e.BeginRegion()
	orb.WriteRequestBody(e, args)
	at, end := e.EndRegion(reg)
	writeInvocationTail(e, v)
	payload = e.TakeBytes()
	e.Release()
	return payload, payload[at:end:end]
}

// writeReply encodes a reply and returns the length of its withdraw key
// (totem.Ring.MulticastOnce): the encoding up to the end of the op key —
// kind, GroupID and opKey. Replies from different replicas to one
// operation share it; replies to different operations or groups never do,
// since every field in it is fixed-width or length-prefixed.
func writeReply(e *cdr.Encoder, v *msgReply) (keyLen int) {
	keyLen = writeReplyHead(e, v)
	e.WriteOctetSeq(v.Body)
	writeReplyTail(e, v)
	return keyLen
}

// writeReplyHead writes a reply's fields up to its Body and returns the
// withdraw key length; writeReplyTail writes the fields after the Body.
func writeReplyHead(e *cdr.Encoder, v *msgReply) (keyLen int) {
	e.WriteOctet(byte(wireReply))
	e.WriteULongLong(v.GroupID)
	encodeOpKey(e, v.Key)
	keyLen = e.Len()
	e.WriteULong(v.Status)
	return keyLen
}

func writeReplyTail(e *cdr.Encoder, v *msgReply) {
	e.WriteString(v.Node)
	e.WriteULongLong(v.ExecMsgID)
	e.WriteOctetSeq(v.Update)
	e.WriteBool(v.UpdateFull)
}

// encodeReply is encodeWire for a reply, returning its withdraw key length
// along with the caller-owned encoding.
func encodeReply(v *msgReply) (payload []byte, keyLen int) {
	e := cdr.GetEncoder(cdr.BigEndian)
	keyLen = writeReply(e, v)
	payload = e.TakeBytes()
	e.Release()
	return payload, keyLen
}

// encodeExecReply marshals v with the outcome of the execution it answers
// written in place as its Body, as encodeInvocation does for arguments. It
// sets v.Status and points v.Body at the body inside the returned payload,
// so a record that logs v keeps no second copy.
func encodeExecReply(v *msgReply, results []cdr.Value, err error) (payload []byte, keyLen int) {
	o := outcomeOf(results, err)
	v.Status = o.status
	e := cdr.GetEncoder(cdr.BigEndian)
	keyLen = writeReplyHead(e, v)
	reg := e.BeginRegion()
	o.writeBody(e)
	at, end := e.EndRegion(reg)
	writeReplyTail(e, v)
	payload = e.TakeBytes()
	e.Release()
	v.Body = payload[at:end:end]
	return payload, keyLen
}

// outcome is a Dispatch outcome classified into its reply status: results,
// a user exception, or a system exception (any other error becomes an
// INTERNAL one).
type outcome struct {
	status  uint32
	results []cdr.Value
	user    *orb.UserException
	sys     giop.SystemException
}

func outcomeOf(results []cdr.Value, err error) outcome {
	if err == nil {
		return outcome{status: replyOK, results: results}
	}
	var uexc *orb.UserException
	if errors.As(err, &uexc) {
		return outcome{status: replyUserExc, user: uexc}
	}
	var sysExc giop.SystemException
	if !errors.As(err, &sysExc) {
		sysExc = giop.SystemException{RepoID: giop.ExcInternal, Completed: giop.CompletedMaybe}
	}
	return outcome{status: replySysExc, sys: sysExc}
}

// writeBody writes the reply body for o into e.
func (o *outcome) writeBody(e *cdr.Encoder) {
	switch o.status {
	case replyOK:
		orb.WriteReplyBody(e, o.results)
	case replyUserExc:
		orb.WriteUserException(e, o.user)
	default:
		o.sys.EncodeTo(e)
	}
}

// outcomeToWire converts a Dispatch outcome to reply status + body, for
// the replies whose body is carried in a message of its own (the
// leader-follower paths).
func outcomeToWire(results []cdr.Value, err error) (uint32, []byte) {
	o := outcomeOf(results, err)
	e := cdr.GetEncoder(cdr.BigEndian)
	o.writeBody(e)
	body := e.TakeBytes()
	e.Release()
	return o.status, body
}

// chunkLen is how many values carve takes from one allocation.
const chunkLen = 32

// carve returns the next unused value of *chunk, zeroed, allocating a
// fresh chunk of chunkLen values when it is spent. A value is handed out
// once and never again: whoever keeps it keeps it valid, and the collector
// frees a chunk once none of its values is referenced.
func carve[T any](chunk *[]T) *T {
	if len(*chunk) == 0 {
		*chunk = make([]T, chunkLen)
	}
	v := &(*chunk)[0]
	*chunk = (*chunk)[1:]
	return v
}

// arena holds the chunks one ring's delivery routing decodes its
// invocations and replies into (decodeWireIn), so an ordered delivery
// allocates no message of its own. A decoded message may outlive its
// delivery — in a syncing replica's buffer, a passive backup's
// pendingOps, a dedup record's reply or a held LF write — and carve never
// hands its slot out again. An arena belongs to one goroutine: the ring's
// protocol loop. A nil arena allocates each message on its own.
type arena struct {
	invs []msgInvocation
	reps []msgReply
}

func (a *arena) invocation() *msgInvocation {
	if a == nil {
		return new(msgInvocation)
	}
	return carve(&a.invs)
}

func (a *arena) reply() *msgReply {
	if a == nil {
		return new(msgReply)
	}
	return carve(&a.reps)
}

// decodeWire decodes b into messages of their own, for the callers that
// own no arena: WAL replay, and the direct lane, which may run on a
// sender's goroutine.
func decodeWire(b []byte) (any, error) { return decodeWireIn(b, nil) }

// decodeWireIn decodes b, taking invocations and replies from a.
func decodeWireIn(b []byte, a *arena) (any, error) {
	// Callers hand decodeWire buffers they own and never modify — a totem
	// delivery (copied off the transport once by the ring) or a WAL
	// record — so Args/Body/Covered may alias b instead of copying. Frames
	// are never recycled, so the aliases stay valid for as long as they
	// are kept; the servant boundary decodes arguments in place too
	// (orb.AppendRequestArgs), its octet sequences aliasing b.
	r := cdr.NewReader(b, cdr.BigEndian)
	r.SetZeroCopy(true)
	t, err := r.ReadOctet()
	if err != nil {
		return nil, err
	}
	var m any
	switch wireKind(t) {
	case wireInvocation:
		v := a.invocation()
		m = v
		*v = msgInvocation{
			GroupID:     r.U64(),
			Key:         readOpKey(&r),
			Operation:   r.Str(),
			Args:        r.Octets(),
			Oneway:      r.Bool(),
			Fulfillment: r.Bool(),
			Done:        r.U64(),
		}
	case wireReply:
		v := a.reply()
		m = v
		*v = msgReply{
			GroupID:    r.U64(),
			Key:        readOpKey(&r),
			Status:     r.U32(),
			Body:       r.Octets(),
			Node:       r.Str(),
			ExecMsgID:  r.U64(),
			Update:     r.Octets(),
			UpdateFull: r.Bool(),
		}
	case wireCheckpoint:
		m = &msgCheckpoint{
			GroupID:   r.U64(),
			Reason:    r.Octet(),
			UpToMsgID: r.U64(),
			State:     r.Octets(),
			Covered:   r.Octets(),
			LfSeq:     r.U64(),
		}
	case wireStateReq:
		m = &msgStateReq{
			GroupID:  r.U64(),
			From:     r.Str(),
			LastExec: r.U64(),
		}
	case wireLfOrder:
		m = &msgLfOrder{
			GroupID:   r.U64(),
			Epoch:     r.U64(),
			Seq:       r.U64(),
			Leader:    r.Str(),
			Key:       readOpKey(&r),
			Operation: r.Str(),
			Args:      r.Octets(),
			Oneway:    r.Bool(),
			Done:      r.U64(),
		}
	case wireLfSubmit:
		m = &msgLfSubmit{
			GroupID:   r.U64(),
			Key:       readOpKey(&r),
			Operation: r.Str(),
			Args:      r.Octets(),
			ReadOnly:  r.Bool(),
			MinSeq:    r.U64(),
			From:      r.Str(),
			Done:      r.U64(),
		}
	case wireLfLease:
		m = &msgLfLease{
			GroupID: r.U64(),
			Epoch:   r.U64(),
			Leader:  r.Str(),
			Dur:     time.Duration(r.U64()),
		}
	default:
		return nil, fmt.Errorf("replication: unknown wire kind %d", t)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// wireToOutcome converts reply status + body back to Dispatch form.
func wireToOutcome(status uint32, body []byte) ([]cdr.Value, error) {
	switch status {
	case replyOK:
		return orb.DecodeReplyBody(body)
	case replyUserExc:
		uexc, err := orb.DecodeUserException(body)
		if err != nil {
			return nil, err
		}
		return nil, uexc
	default:
		sysExc, err := giop.DecodeSystemException(body, cdr.BigEndian)
		if err != nil {
			return nil, err
		}
		return nil, sysExc
	}
}
