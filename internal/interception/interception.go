// Package interception implements the Eternal-style *interception
// approach* to fault-tolerant CORBA: an unmodified client-side ORB issues
// plain IIOP requests, which are captured below the ORB and redirected
// through the group communication engine.
//
// The original system interposed on the socket library (library
// interpositioning under the ORB); the equivalent capture point here is a
// local IIOP endpoint owned by the interceptor. A client ORB is handed a
// normal IOR whose profile points at the interceptor; every GIOP Request
// it sends is decoded, mapped to the object group named by its object key
// ("og/<gid>"), invoked through the replication engine's totally ordered
// multicast, and answered with a plain GIOP Reply. The client ORB remains
// completely unaware of replication — the defining property (and the
// central lesson about its limits: nondeterminism inside the client cannot
// be intercepted here).
package interception

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/giop"
	"repro/internal/iiop"
	"repro/internal/ior"
	"repro/internal/orb"
	"repro/internal/replication"
)

// Bridge is one node's interception point.
type Bridge struct {
	node   string
	port   uint16
	engine *replication.Engine
	server *iiop.Server
}

// Attach binds an interception endpoint on the node of the network.
// IORs minted with RefFor route unmodified ORB traffic through it.
func Attach(fabric iiop.Network, node string, port uint16, engine *replication.Engine) (*Bridge, error) {
	l, err := fabric.Listen(node, port)
	if err != nil {
		return nil, fmt.Errorf("interception: listen: %w", err)
	}
	b := &Bridge{node: node, port: port, engine: engine}
	b.server = iiop.NewServer(l, (*bridgeHandler)(b))
	b.server.Serve()
	return b, nil
}

// Close detaches the interception point.
func (b *Bridge) Close() { b.server.Close() }

// RefFor mints the plain (non-group) IOR a legacy client is given: it
// looks like an ordinary object but its profile addresses the interceptor.
func (b *Bridge) RefFor(typeID string, gid uint64) *ior.Ref {
	return ior.New(typeID, b.node, b.port, []byte(objectKeyFor(gid)))
}

func objectKeyFor(gid uint64) string { return fmt.Sprintf("og/%d", gid) }

// parseObjectKey extracts the group id from an intercepted object key.
func parseObjectKey(key []byte) (uint64, error) {
	s := string(key)
	if !strings.HasPrefix(s, "og/") {
		return 0, fmt.Errorf("interception: foreign object key %q", s)
	}
	gid, err := strconv.ParseUint(s[len("og/"):], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("interception: bad group id in key %q", s)
	}
	return gid, nil
}

type bridgeHandler Bridge

func (h *bridgeHandler) HandleRequest(req *giop.Request) *giop.Reply {
	gid, err := parseObjectKey(req.ObjectKey)
	if err != nil {
		return &giop.Reply{
			RequestID: req.RequestID,
			Status:    giop.ReplySystemException,
			Body: giop.SystemException{
				RepoID:    giop.ExcObjectNotExist,
				Minor:     2,
				Completed: giop.CompletedNo,
			}.Encode(),
		}
	}
	if req.Operation == "_is_alive" {
		return orb.BuildReply(req.RequestID, nil, nil)
	}
	args, err := orb.DecodeRequestBody(req.Body)
	if err != nil {
		return orb.BuildReply(req.RequestID, nil, giop.SystemException{
			RepoID:    giop.ExcInternal,
			Minor:     3,
			Completed: giop.CompletedNo,
		})
	}
	proxy := h.engine.Proxy(replication.GroupRef{ID: gid})
	if req.ResponseFlags == giop.ResponseNone {
		_ = proxy.InvokeOneway(req.Operation, args...)
		return nil
	}
	results, err := proxy.Invoke(req.Operation, args...)
	if err != nil && !isApplicationError(err) {
		// Infrastructure failure: surface as COMM_FAILURE so a legacy
		// client applies its usual retry logic.
		return orb.BuildReply(req.RequestID, nil, giop.SystemException{
			RepoID:    giop.ExcCommFailure,
			Minor:     4,
			Completed: giop.CompletedMaybe,
		})
	}
	return orb.BuildReply(req.RequestID, results, err)
}

// isApplicationError distinguishes outcomes that must flow to the client
// unchanged (user and system exceptions raised by the servant).
func isApplicationError(err error) bool {
	switch err.(type) {
	case *orb.UserException, giop.SystemException:
		return true
	}
	return false
}

func (h *bridgeHandler) HandleLocate(req *giop.LocateRequest) *giop.LocateReply {
	status := giop.LocateUnknown
	if _, err := parseObjectKey(req.ObjectKey); err == nil {
		status = giop.LocateHere
	}
	return &giop.LocateReply{RequestID: req.RequestID, Status: status}
}
