package replication

import (
	"repro/internal/cdr"
	"repro/internal/nondet"
	"repro/internal/orb"
)

// execArgs is how many decoded arguments an execution record holds inline;
// an invocation with more allocates its argument slice.
const execArgs = 4

// execution is one servant dispatch in one allocation: the Invocation the
// servant sees, its deterministic context, its nested-call context, the
// decoded arguments and the outcome. Nothing keeps it past its caller's
// use of the outcome, so the arguments' aliases of the delivered frame
// and the context's random source go with it.
type execution struct {
	inv     orb.Invocation
	det     nondet.Context
	caller  CallCtx
	args    [execArgs]cdr.Value
	results []cdr.Value
	err     error
	// dispatched is false when the arguments did not decode: err says why
	// and the servant never ran.
	dispatched bool
}

// execute runs op on s. The arguments are decoded in place from args (the
// Args of a delivered or logged message): octet sequences alias it (see
// the orb.Invocation lifetime contract). The deterministic context is
// keyed on (gid, msgID). With eng set, the servant may issue nested
// invocations through Caller; log replay passes nil, since it restores
// local state only and re-issues nothing.
func execute(s orb.Servant, gid, msgID uint64, op string, args []byte, eng *Engine) *execution {
	x := &execution{}
	x.inv.Args, x.err = orb.AppendRequestArgs(x.args[:0], args)
	if x.err != nil {
		return x
	}
	x.det.Init(gid, msgID, epochAnchor)
	x.inv.Operation = op
	x.inv.Det = &x.det
	if eng != nil {
		x.caller = CallCtx{eng: eng, gid: gid, msgID: msgID, det: &x.det}
		x.inv.Caller = &x.caller
	}
	x.results, x.err = s.Dispatch(&x.inv)
	x.dispatched = true
	return x
}
