package main

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// Operations of the benchmark's replicated counter. Every request carries
// the client's request id as its first argument, so a traced dispatch can
// be linked to the call that caused it.
const (
	opWrite = "put" // (id ULongLong, payload OctetSeq) -> applied-write count
	opRead  = "get" // (id ULongLong) -> applied-write count
)

// counter is the servant every group runs: an applied-write count, a
// commutative fold of the applied request ids (so a duplicate or a lost
// write changes it), and a state buffer each write overwrites a slice of.
// It implements orb.Checkpointable for passive styles and state transfer,
// and orb.Updatable so a warm-passive primary ships each write's postimage
// instead of the whole buffer.
type counter struct {
	repoID string
	tr     *atomic.Pointer[tracer] // holds nil while the run is untraced

	mu     sync.Mutex
	count  uint64
	fold   uint64
	state  []byte
	update []byte // postimage of the last operation; empty after a read
}

func newCounter(repoID string, stateSize int, tr *atomic.Pointer[tracer]) *counter {
	return &counter{repoID: repoID, tr: tr, state: make([]byte, stateSize)}
}

func (c *counter) RepoID() string { return c.repoID }

// foldOf is the fold contribution of one applied write (splitmix64).
func foldOf(id uint64) uint64 {
	z := id + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var errBadRequest = &orb.UserException{Name: "IDL:ftperf/BadRequest:1.0"}

func (c *counter) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	if len(inv.Args) == 0 {
		return nil, errBadRequest
	}
	id := inv.Args[0].AsULongLong()
	tr := c.tr.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	c.mu.Lock()
	switch inv.Operation {
	case opWrite:
		if len(inv.Args) != 2 {
			c.mu.Unlock()
			return nil, errBadRequest
		}
		c.applyWrite(id, inv.Args[1].AsOctetSeq())
	case opRead:
		c.update = c.update[:0] // a read changes nothing
	default:
		c.mu.Unlock()
		return nil, errBadRequest
	}
	n := c.count
	c.mu.Unlock()
	if tr != nil {
		tr.dispatched(id, start, time.Now())
	}
	return []cdr.Value{cdr.ULongLong(n)}, nil
}

// applyWrite applies one write and records its postimage. c.mu is held.
func (c *counter) applyWrite(id uint64, payload []byte) {
	c.count++
	c.fold += foldOf(id)
	off := 0
	if len(c.state) > len(payload) {
		off = int(c.count*uint64(len(payload))) % (len(c.state) - len(payload) + 1)
	}
	n := copy(c.state[off:], payload)
	c.update = binary.LittleEndian.AppendUint64(c.update[:0], c.count)
	c.update = binary.LittleEndian.AppendUint64(c.update, c.fold)
	c.update = binary.LittleEndian.AppendUint32(c.update, uint32(off))
	c.update = append(c.update, payload[:n]...)
}

// LastUpdate returns the postimage of the most recent operation. After a
// read it is empty but not nil: nil would make a warm-passive primary
// ship the whole state instead.
func (c *counter) LastUpdate() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte{}, c.update...), nil
}

var errShortState = errors.New("ftperf: short counter state")

// ApplyUpdate installs a postimage produced by LastUpdate.
func (c *counter) ApplyUpdate(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if len(b) < 20 {
		return errShortState
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count = binary.LittleEndian.Uint64(b)
	c.fold = binary.LittleEndian.Uint64(b[8:])
	off := int(binary.LittleEndian.Uint32(b[16:]))
	if off > len(c.state) {
		return errShortState
	}
	copy(c.state[off:], b[20:])
	return nil
}

// GetState serializes count, fold and the state buffer.
func (c *counter) GetState() ([]byte, error) {
	tr := c.tr.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	c.mu.Lock()
	b := make([]byte, 16, 16+len(c.state))
	binary.LittleEndian.PutUint64(b, c.count)
	binary.LittleEndian.PutUint64(b[8:], c.fold)
	b = append(b, c.state...)
	c.mu.Unlock()
	if tr != nil {
		tr.stateOp(&tr.getState, start, len(b))
	}
	return b, nil
}

// SetState replaces the whole state.
func (c *counter) SetState(b []byte) error {
	if len(b) < 16 {
		return errShortState
	}
	tr := c.tr.Load()
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	c.mu.Lock()
	c.count = binary.LittleEndian.Uint64(b)
	c.fold = binary.LittleEndian.Uint64(b[8:])
	c.state = append(c.state[:0], b[16:]...)
	c.mu.Unlock()
	if tr != nil {
		tr.stateOp(&tr.setState, start, len(b))
	}
	return nil
}

// replicaState is what the correctness check compares across replicas.
type replicaState struct {
	Count, Fold, Digest uint64
}

func (c *counter) snapshot() replicaState {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := fnv.New64a()
	h.Write(c.state)
	return replicaState{Count: c.count, Fold: c.fold, Digest: h.Sum64()}
}

// registry maps (node, group index) to the servant the node's factory
// made most recently, so the check can read every live replica.
type registry struct {
	mu sync.Mutex
	m  map[regKey]*counter
}

type regKey struct {
	node  string
	group int
}

func newRegistry() *registry { return &registry{m: make(map[regKey]*counter)} }

func (r *registry) put(node string, group int, c *counter) {
	r.mu.Lock()
	r.m[regKey{node, group}] = c
	r.mu.Unlock()
}

func (r *registry) get(node string, group int) *counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[regKey{node, group}]
}
