package orb

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/ior"
)

// ErrAllProfilesFailed is returned when every replica endpoint in an IOGR
// has been tried without success.
var ErrAllProfilesFailed = errors.New("orb: all profiles failed")

// maxForwards bounds LOCATION_FORWARD chains.
const maxForwards = 8

// ObjectRef is a client-side proxy for a (possibly group) object reference.
// Invocations transparently fail over across the reference's profiles and
// follow LOCATION_FORWARD replies — the FT-CORBA client-side failover
// semantics.
type ObjectRef struct {
	orb *ORB
	ref *ior.Ref
}

// Proxy wraps a reference for invocation through this ORB.
func (o *ORB) Proxy(ref *ior.Ref) *ObjectRef {
	return &ObjectRef{orb: o, ref: ref}
}

// Ref returns the (possibly updated, after forwards) reference.
func (p *ObjectRef) Ref() *ior.Ref { return p.ref }

// Invoke performs a twoway invocation.
func (p *ObjectRef) Invoke(op string, args ...cdr.Value) ([]cdr.Value, error) {
	return p.invoke(op, args, true)
}

// InvokeOneway fires a request without waiting for any reply.
func (p *ObjectRef) InvokeOneway(op string, args ...cdr.Value) error {
	_, err := p.invoke(op, args, false)
	return err
}

// IsAlive probes the target with the built-in liveness operation, the
// FT-CORBA is_alive ping. It is a client-side check only: the stack's own
// fault detection runs on totem hello gossip.
func (p *ObjectRef) IsAlive() error {
	_, err := p.invoke("_is_alive", nil, true)
	return err
}

func (p *ObjectRef) invoke(op string, args []cdr.Value, twoway bool) ([]cdr.Value, error) {
	if p.ref.IsNil() {
		return nil, giop.SystemException{RepoID: giop.ExcObjectNotExist, Completed: giop.CompletedNo}
	}
	ref := p.ref
	var lastErr error
	for forwards := 0; forwards <= maxForwards; forwards++ {
		// Try the primary profile first, then the others in order — the
		// standard IOGR failover walk. A walk that fails on every profile is
		// repeated failoverRetries times after a jittered backoff: transient
		// faults (a failing-over group, a node mid-restart) often resolve
		// within a walk or two, and the jitter keeps a herd of retrying
		// clients from hammering the recovering endpoints in lockstep.
		order := profileOrder(ref)
		for walk := 0; ; walk++ {
			for _, idx := range order {
				prof := &ref.Profiles[idx]
				rep, err := p.invokeProfile(prof, op, args, twoway)
				switch {
				case err == nil && !twoway:
					return nil, nil
				case err == nil && rep.Status == giop.ReplyLocationForward:
					fwd, ferr := ior.Unmarshal(rep.Body)
					if ferr != nil {
						return nil, fmt.Errorf("orb: bad forward reference: %w", ferr)
					}
					ref = fwd
					p.ref = fwd // cache the fresher reference
					goto forwarded
				case err == nil:
					return ReplyOutcome(rep)
				default:
					// Communication failure: declare the profile's cached
					// connection dead (so any later attempt re-dials instead
					// of reusing a wedged stream) and fail over to the next
					// profile.
					lastErr = err
					p.orb.transport.FailConn(prof.Host, prof.Port, err)
				}
			}
			if walk >= failoverRetries {
				break
			}
			time.Sleep(failoverWait())
		}
		if lastErr != nil {
			return nil, fmt.Errorf("%w: %s: last error: %v", ErrAllProfilesFailed, op, lastErr)
		}
		return nil, fmt.Errorf("%w: %s", ErrAllProfilesFailed, op)
	forwarded:
		continue
	}
	return nil, fmt.Errorf("orb: too many forwards invoking %s", op)
}

// failoverWait is the wait before a retry walk: failoverBackoff with ±25%
// jitter.
func failoverWait() time.Duration {
	d := failoverBackoff
	return d + time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
}

func profileOrder(ref *ior.Ref) []int {
	primary := ref.PrimaryIndex()
	order := make([]int, 0, len(ref.Profiles))
	order = append(order, primary)
	for i := range ref.Profiles {
		if i != primary {
			order = append(order, i)
		}
	}
	return order
}

func (p *ObjectRef) invokeProfile(prof *ior.Profile, op string, args []cdr.Value, twoway bool) (*giop.Reply, error) {
	flags := giop.ResponseExpected
	if !twoway {
		flags = giop.ResponseNone
	}
	req := &giop.Request{
		RequestID:     p.orb.transport.NextRequestID(),
		ResponseFlags: flags,
		ObjectKey:     append([]byte(nil), prof.ObjectKey...),
		Operation:     op,
		Body:          EncodeRequestBody(args),
	}
	p.orb.mu.RLock()
	clientIc := p.orb.clientIc
	p.orb.mu.RUnlock()
	for _, ic := range clientIc {
		if err := ic.SendRequest(req); err != nil {
			return nil, err
		}
	}
	rep, err := p.orb.transport.Invoke(prof.Host, prof.Port, req, p.orb.cfg.RequestTimeout)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		for _, ic := range clientIc {
			ic.ReceiveReply(req, rep)
		}
	}
	return rep, nil
}
