// Package nondet controls sources of nondeterminism inside replicated
// objects.
//
// One of the central lessons of the fault-tolerant CORBA experience is that
// active replication only works if every replica computes identical results
// from identical ordered inputs. Wall-clock reads, random numbers, thread
// scheduling, and local counters silently diverge replicas. The
// infrastructure therefore supplies replicas with *logical* replacements
// whose values are functions of the totally ordered message stream:
//
//   - Clock yields a logical timestamp derived from the ordered message id
//     of the invocation being executed, identical at every replica;
//   - Rand yields a deterministic pseudo-random stream seeded from the
//     group identity and re-seeded per invocation from the ordered message
//     id, so every replica draws the same values in the same order;
//   - Sequence yields per-object monotonic counters that advance only at
//     invocation boundaries.
//
// Replicated servants receive a *Context through the invocation path and
// must use it instead of time.Now, math/rand, etc.
package nondet

import (
	"math/rand"
	"sync"
	"time"
)

// Context carries the deterministic facilities for one invocation. It is
// created by the replication infrastructure from the ordered message that
// delivered the invocation and must not outlive the invocation.
type Context struct {
	msgID uint64
	base  time.Time
	seed  int64
	mu    sync.Mutex
	rng   *rand.Rand // created on first draw; seeding is too costly to pay per invocation
	seqs  map[string]uint64
}

// NewContext builds a deterministic context for an invocation ordered as
// msgID within group gid. epochStart anchors logical time; all replicas
// configure the same anchor (it is part of the group's creation record).
// The pseudo-random source is seeded lazily: most operations never draw
// randomness, and rngSource seeding dominates dispatch cost if paid
// unconditionally on every invocation.
func NewContext(gid uint64, msgID uint64, epochStart time.Time) *Context {
	c := new(Context)
	c.Init(gid, msgID, epochStart)
	return c
}

// Init makes the zero Context c the context NewContext(gid, msgID,
// epochStart) returns, in place: a caller that embeds a Context in a
// larger per-invocation record builds both in one allocation.
func (c *Context) Init(gid uint64, msgID uint64, epochStart time.Time) {
	c.msgID = msgID
	c.base = epochStart
	c.seed = int64(gid*0x9E3779B97F4A7C15 ^ msgID*0xBF58476D1CE4E5B9)
}

// random returns the deterministic source, creating it on first use.
// Callers must hold c.mu.
func (c *Context) random() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}

// MsgID returns the ordered message id of the invocation.
func (c *Context) MsgID() uint64 { return c.msgID }

// Now returns the deterministic logical time of this invocation: the epoch
// anchor advanced by one microsecond per ordered message. Every replica
// executing the same invocation observes the same value — the consistent
// time service the Eternal line of work describes.
func (c *Context) Now() time.Time {
	return c.base.Add(time.Duration(c.msgID) * time.Microsecond)
}

// Uint64 draws the next deterministic pseudo-random value.
func (c *Context) Uint64() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.random().Uint64()
}

// Intn draws a deterministic value in [0, n).
func (c *Context) Intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.random().Intn(n)
}

// Float64 draws a deterministic value in [0, 1).
func (c *Context) Float64() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.random().Float64()
}

// Seq returns the next value of a named per-invocation counter (1, 2, …).
// Replicas issuing the same sequence of Seq calls observe the same values.
func (c *Context) Seq(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seqs == nil {
		c.seqs = make(map[string]uint64)
	}
	c.seqs[name]++
	return c.seqs[name]
}
