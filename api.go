// Package repro is a fault-tolerant CORBA-style distributed object system
// in pure Go: a reproduction of the infrastructure behind "Lessons Learned
// in Building a Fault-Tolerant CORBA System" (DSN 2002) — the Eternal /
// FT-CORBA line of work.
//
// The public API is a facade over the internal subsystems:
//
//   - NewDomain builds an FT domain: a simulated network of nodes, each
//     running a Totem-style total-order group communication endpoint and a
//     replication engine, plus a Replication Manager (the FT-CORBA
//     PropertyManager + ObjectGroupManager + GenericFactory).
//   - Servants implement application objects; the Replication Manager
//     places replicas on nodes via registered factories and publishes
//     IOGRs.
//   - Proxies issue invocations that are totally ordered, duplicate-
//     suppressed, and transparently failed over. Replication styles:
//     STATELESS, ACTIVE, ACTIVE_WITH_VOTING, WARM_PASSIVE, COLD_PASSIVE
//     and LEADER_FOLLOWER, whose proxies from Domain.Proxy take the
//     direct-lane fast path and serve the group's Properties.ReadOnlyOps
//     from any replica under a read lease.
//   - Fault injection (crash, partition, remerge) is available on the
//     domain for testing and experiments.
//
// See examples/quickstart for a complete program and DESIGN.md for the
// architecture.
package repro

import (
	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/ior"
	"repro/internal/orb"
	"repro/internal/replication"
)

// Domain is a running fault-tolerance domain (see internal/core).
type Domain = core.Domain

// Options configures NewDomain.
type Options = core.Options

// Node bundles one host's endpoints.
type Node = core.Node

// NewDomain builds and starts an FT domain.
func NewDomain(opts Options) (*Domain, error) { return core.NewDomain(opts) }

// Properties are FT-CORBA replication properties.
type Properties = ftcorba.Properties

// Factory creates fresh servant instances for replica placement.
type Factory = ftcorba.Factory

// ReplicationManager administers object groups.
type ReplicationManager = ftcorba.ReplicationManager

// Style selects a replication style.
type Style = replication.Style

// Replication styles.
const (
	Stateless        = replication.Stateless
	Active           = replication.Active
	ActiveWithVoting = replication.ActiveWithVoting
	WarmPassive      = replication.WarmPassive
	ColdPassive      = replication.ColdPassive
	LeaderFollower   = replication.LeaderFollower
)

// Membership styles.
const (
	MembershipInfrastructure = ftcorba.MembershipInfrastructure
	MembershipApplication    = ftcorba.MembershipApplication
)

// Servant is the application object interface.
type Servant = orb.Servant

// Checkpointable lets the infrastructure capture/restore servant state.
type Checkpointable = orb.Checkpointable

// Updatable adds incremental (postimage) state updates.
type Updatable = orb.Updatable

// Invocation carries one request through dispatch.
type Invocation = orb.Invocation

// UserException is an application-level exception.
type UserException = orb.UserException

// MethodServant assembles a servant from a method table.
type MethodServant = orb.MethodServant

// NewMethodServant creates an empty method-table servant.
func NewMethodServant(repoID string) *MethodServant { return orb.NewMethodServant(repoID) }

// Proxy invokes an object group.
type Proxy = replication.Proxy

// GroupRef names a target group.
type GroupRef = replication.GroupRef

// FulfillmentMapper customizes partition-reconciliation replay.
type FulfillmentMapper = replication.FulfillmentMapper

// Nested creates a deterministic proxy for a nested invocation from inside
// a replicated dispatch.
func Nested(inv *Invocation, ref GroupRef, opts ...replication.ProxyOption) *Proxy {
	return replication.Nested(inv, ref, opts...)
}

// WithVotes makes a proxy wait for a majority of n replies.
func WithVotes(n int) replication.ProxyOption { return replication.WithVotes(n) }

// WithShard pins a proxy's target group to a transport shard (0-based) of
// the domain's ring pool; Domain.Proxy applies it automatically for groups
// created with an explicit Properties.Shard placement.
func WithShard(shard int) replication.ProxyOption { return replication.WithShard(shard) }

// Ref is an object (group) reference.
type Ref = ior.Ref

// RefToString renders a reference in the classic "IOR:..." form.
func RefToString(r *Ref) string { return ior.ToString(r) }

// RefFromString parses a stringified reference.
func RefFromString(s string) (*Ref, error) { return ior.FromString(s) }

// Value is a self-describing datum used for arguments and results.
type Value = cdr.Value

// Value constructors, re-exported for application code.
var (
	Void      = cdr.Void
	Bool      = cdr.Bool
	Octet     = cdr.Octet
	Short     = cdr.Short
	UShort    = cdr.UShort
	Long      = cdr.Long
	ULong     = cdr.ULong
	LongLong  = cdr.LongLong
	ULongLong = cdr.ULongLong
	Float     = cdr.Float
	Double    = cdr.Double
	Str       = cdr.Str
	OctetSeq  = cdr.OctetSeq
	Seq       = cdr.Seq
)
