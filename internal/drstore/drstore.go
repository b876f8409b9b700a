// Package drstore is the disaster-recovery shipping seam: a pluggable
// store of per-group checkpoints and log segments that decouples what a
// warm standby consumes from where the primary domain's replicas keep
// their local write-ahead logs.
//
// The replication engine ships per group its definition (Meta, at hosting,
// so even traffic-free groups can be re-hosted), full-state checkpoints
// carrying the sender's duplicate-suppression window (the exactly-once
// anchor), and the update records since the last checkpoint. A standby
// domain (core.Standby) replays Snapshot() per group to keep a staged
// servant warm and promotes from it after the primary domain dies.
//
// Stores are idempotent and self-compacting: an update at or below the
// last shipped MsgID is dropped, a checkpoint older than the stored one is
// dropped, and an accepted checkpoint discards the updates it covers. That
// makes shipping safe to retry and bounds a group to one checkpoint plus
// one checkpoint interval of updates.
package drstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/wal"
)

// Meta is the shipped group definition — everything a standby domain needs
// to re-host the group without access to the source Replication Manager.
type Meta struct {
	GroupID         uint64
	Name            string
	TypeID          string
	Style           uint8 // replication.Style value
	CheckpointEvery int
	Shard           int // 1-based explicit pin, 0 = hash-routed
}

// Checkpoint is one shipped full-state snapshot.
type Checkpoint struct {
	// UpToMsgID is the ordered message id the state reflects (source-domain
	// ring lineage; meaningless in the standby's lineage — promotion relies
	// on Covered, not on msgID comparison).
	UpToMsgID uint64
	State     []byte
	// Covered is the sender's duplicate-suppression window, in the
	// replication layer's encoding (opaque here): the operations State
	// includes and every client's horizons. A promoted replica seeds its
	// dedup table from it, so a retransmission cannot re-execute an
	// acknowledged operation on the standby.
	Covered []byte
}

// Snapshot is a group's shipped history: the latest checkpoint (nil if
// none shipped yet) plus the updates appended after it, oldest first.
type Snapshot struct {
	Meta       Meta
	Checkpoint *Checkpoint
	Updates    []wal.Record
}

// Store is the shipping interface. Implementations must be safe for
// concurrent use: every node of the source domain may ship while a standby
// reads.
type Store interface {
	// PutMeta registers (or refreshes) a group definition.
	PutMeta(m Meta) error
	// PutCheckpoint ships a full-state snapshot, superseding any older one
	// and compacting away the updates it covers.
	PutCheckpoint(gid uint64, cp Checkpoint) error
	// AppendUpdate ships one update record (dropped when stale).
	AppendUpdate(gid uint64, rec wal.Record) error
	// Snapshot returns a group's shipped state (ok=false if unknown).
	Snapshot(gid uint64) (Snapshot, bool, error)
	// Groups lists shipped group ids, sorted.
	Groups() ([]uint64, error)
	// Close releases resources.
	Close() error
}

// ErrClosed is returned on use after Close.
var ErrClosed = errors.New("drstore: store closed")

// groupState is one group's shipped state.
type groupState struct {
	meta    Meta
	cp      *Checkpoint // nil until one is accepted
	updates []wal.Record
	lastMsg uint64       // highest update MsgID accepted (0 = none yet)
	seg     *wal.FileLog // DirStore's update segment (nil in a MemStore)
}

// acceptUpdate applies the staleness rule; reports whether rec was taken.
func (g *groupState) acceptUpdate(rec wal.Record) bool {
	if rec.MsgID <= g.lastMsg || (g.cp != nil && rec.MsgID <= g.cp.UpToMsgID) {
		return false
	}
	rec.Data = append([]byte(nil), rec.Data...)
	g.updates = append(g.updates, rec)
	g.lastMsg = rec.MsgID
	return true
}

// acceptCheckpoint applies the supersession rule; reports whether cp won.
func (g *groupState) acceptCheckpoint(cp Checkpoint) bool {
	if g.cp != nil && cp.UpToMsgID < g.cp.UpToMsgID {
		return false
	}
	cp.State = append([]byte(nil), cp.State...)
	cp.Covered = append([]byte(nil), cp.Covered...)
	g.cp = &cp
	g.updates = slices.DeleteFunc(g.updates, func(u wal.Record) bool { return u.MsgID <= cp.UpToMsgID })
	if g.lastMsg < cp.UpToMsgID {
		g.lastMsg = cp.UpToMsgID
	}
	return true
}

func (g *groupState) snapshot() Snapshot {
	s := Snapshot{Meta: g.meta}
	if g.cp != nil {
		cp := *g.cp
		cp.State, cp.Covered = append([]byte(nil), cp.State...), append([]byte(nil), cp.Covered...)
		s.Checkpoint = &cp
	}
	s.Updates = make([]wal.Record, len(g.updates))
	for i, u := range g.updates {
		u.Data = append([]byte(nil), u.Data...)
		s.Updates[i] = u
	}
	return s
}

// mirror is the group table both stores serve reads from. A DirStore's
// mirror has a directory, and its groups persist each accepted change.
type mirror struct {
	mu     sync.Mutex
	groups map[uint64]*groupState
	closed bool
	dir    string // "" for a MemStore, whose groups have no segment
}

// update runs fn on gid's state under the lock, creating the group first.
func (s *mirror) update(gid uint64, fn func(g *groupState) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	g, ok := s.groups[gid]
	if !ok {
		var err error
		if g, err = s.openGroup(gid); err != nil {
			return err
		}
		s.groups[gid] = g
	}
	return fn(g)
}

// PutMeta registers a group definition.
func (s *mirror) PutMeta(m Meta) error {
	return s.update(m.GroupID, func(g *groupState) error {
		if g.seg != nil {
			if err := writeGob(s.path(m.GroupID, metaFile), m); err != nil {
				return fmt.Errorf("drstore: write meta: %w", err)
			}
		}
		g.meta = m
		return nil
	})
}

// PutCheckpoint ships a snapshot. A DirStore writes the checkpoint file
// before it compacts the segment.
func (s *mirror) PutCheckpoint(gid uint64, cp Checkpoint) error {
	return s.update(gid, func(g *groupState) error {
		if !g.acceptCheckpoint(cp) || g.seg == nil {
			return nil
		}
		if err := writeGob(s.path(gid, ckptFile), g.cp); err != nil {
			return fmt.Errorf("drstore: write checkpoint: %w", err)
		}
		return g.seg.Rewrite(g.updates)
	})
}

// AppendUpdate ships one update record.
func (s *mirror) AppendUpdate(gid uint64, rec wal.Record) error {
	return s.update(gid, func(g *groupState) error {
		if !g.acceptUpdate(rec) || g.seg == nil {
			return nil
		}
		// The segment keeps the Data it is handed: give it the store's
		// own copy, not the caller's buffer.
		return g.seg.Append(g.updates[len(g.updates)-1])
	})
}

// Snapshot returns a group's shipped state.
func (s *mirror) Snapshot(gid uint64) (Snapshot, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Snapshot{}, false, ErrClosed
	}
	if g := s.groups[gid]; g != nil {
		return g.snapshot(), true, nil
	}
	return Snapshot{}, false, nil
}

// Groups lists shipped group ids, sorted.
func (s *mirror) Groups() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]uint64, 0, len(s.groups))
	for gid := range s.groups {
		out = append(out, gid)
	}
	slices.Sort(out)
	return out, nil
}

// Close marks the store closed (a DirStore syncs and closes its segments).
func (s *mirror) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for _, g := range s.groups {
		if g.seg != nil {
			errs = append(errs, g.seg.Close())
		}
	}
	return errors.Join(errs...)
}

// MemStore is the in-memory Store (tests, benchmarks, and same-process
// standby domains). The zero value is not usable; call NewMemStore.
type MemStore struct {
	mirror
}

var _ Store = (*MemStore)(nil)

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{mirror{groups: make(map[uint64]*groupState)}}
}
