// Package wal implements the logging-and-recovery mechanisms behind warm
// and cold passive replication: a log of state checkpoints interleaved with
// the update operations (or state deltas) applied since the last
// checkpoint. On failover, a backup loads the most recent checkpoint and
// replays the updates logged after it, so the checkpointing interval trades
// steady-state cost against recovery time (experiment E6). MemLog is what
// the simulated nodes use; FileLog is the same record list made durable by
// a segment file (segment.go), which the DR store's DirStore uses too.
package wal

import (
	"errors"
	"sync"
)

// Kind distinguishes log record types.
type Kind uint8

// Record kinds.
const (
	KindCheckpoint Kind = iota + 1
	KindUpdate
)

// Record is one log entry.
type Record struct {
	Kind Kind
	// MsgID is the ordered message id of the invocation that produced this
	// record; recovery uses it to resume duplicate detection correctly.
	MsgID uint64
	// Op names the operation for update records (diagnostic).
	Op string
	// Data is the checkpointed state or the update payload.
	Data []byte
}

// Log is the interface shared by MemLog and FileLog.
type Log interface {
	// Append adds a record and takes ownership of rec.Data: the log keeps
	// the slice itself, so the caller hands over a buffer nothing writes
	// again (a fresh snapshot or postimage, an encoded message, a
	// delivered payload). Readers of the log (Recover) see that buffer.
	Append(rec Record) error
	// Recover returns the most recent checkpoint record (zero Record and
	// false if none) and all update records appended after it, oldest
	// first.
	Recover() (cp Record, updates []Record, ok bool, err error)
	// Len returns the number of live records (since the last truncation).
	Len() int
	// TruncateAtCheckpoint drops every record before the most recent
	// checkpoint (log compaction after a successful checkpoint broadcast).
	TruncateAtCheckpoint() error
	// Close releases resources.
	Close() error
}

// ErrClosed is returned when appending to a closed log.
var ErrClosed = errors.New("wal: log closed")

// MemLog is an in-memory log. The zero value is ready to use.
type MemLog struct {
	mu     sync.Mutex
	recs   []Record
	closed bool
}

var _ Log = (*MemLog)(nil)

// Append adds a record, keeping rec.Data (see Log).
func (l *MemLog) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.recs = append(l.recs, rec)
	return nil
}

// Recover returns the latest checkpoint and subsequent updates.
func (l *MemLog) Recover() (Record, []Record, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return recoverFrom(l.recs)
}

// Len returns the number of retained records.
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// TruncateAtCheckpoint drops records preceding the latest checkpoint.
func (l *MemLog) TruncateAtCheckpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if idx := latestCheckpoint(l.recs); idx > 0 {
		l.recs = compact(l.recs, idx)
	}
	return nil
}

// Close marks the log closed.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

func latestCheckpoint(recs []Record) int {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == KindCheckpoint {
			return i
		}
	}
	return -1
}

// compact moves recs[idx:] to the front of recs in place and clears the
// vacated tail, so the dropped records' Data can be collected while the
// slice's storage is reused by later appends.
func compact(recs []Record, idx int) []Record {
	n := copy(recs, recs[idx:])
	clear(recs[n:])
	return recs[:n]
}

func recoverFrom(recs []Record) (Record, []Record, bool, error) {
	idx := latestCheckpoint(recs)
	if idx < 0 {
		updates := append([]Record(nil), recs...)
		return Record{}, updates, false, nil
	}
	updates := append([]Record(nil), recs[idx+1:]...)
	return recs[idx], updates, true, nil
}

// FileLog is a durable log: a MemLog's record list backed by a segment.
type FileLog struct {
	mem MemLog // mem.mu guards seg too
	seg *segment
}

var _ Log = (*FileLog)(nil)

// OpenFileLog opens (or creates) a file-backed log, loading its intact
// records.
func OpenFileLog(path string) (*FileLog, error) {
	seg, recs, err := openSegment(path)
	if err != nil {
		return nil, err
	}
	return &FileLog{mem: MemLog{recs: recs}, seg: seg}, nil
}

// Append adds and persists a record, keeping rec.Data (see Log).
func (l *FileLog) Append(rec Record) error {
	l.mem.mu.Lock()
	defer l.mem.mu.Unlock()
	if l.mem.closed {
		return ErrClosed
	}
	// Checkpoints are the recovery anchor: everything before one is about to
	// be compacted away, so it must actually be on disk before that happens.
	// Update records stay buffered (synced on Close) — losing a torn tail of
	// updates costs replay work, losing a checkpoint costs the whole state.
	if err := l.seg.append(rec, rec.Kind == KindCheckpoint); err != nil {
		return err
	}
	l.mem.recs = append(l.mem.recs, rec)
	return nil
}

// Recover returns the latest checkpoint and subsequent updates.
func (l *FileLog) Recover() (Record, []Record, bool, error) { return l.mem.Recover() }

// Len returns the number of retained records.
func (l *FileLog) Len() int { return l.mem.Len() }

// TruncateAtCheckpoint compacts the log file to start at the most recent
// checkpoint.
func (l *FileLog) TruncateAtCheckpoint() error {
	l.mem.mu.Lock()
	defer l.mem.mu.Unlock()
	idx := latestCheckpoint(l.mem.recs)
	if idx <= 0 {
		return nil
	}
	if l.mem.closed {
		return ErrClosed
	}
	if err := l.seg.rewrite(l.mem.recs[idx:]); err != nil {
		return err
	}
	l.mem.recs = compact(l.mem.recs, idx)
	return nil
}

// Rewrite replaces every record with recs in one crash-safe rewrite: a
// crash leaves either the old records or recs on disk. The log keeps recs'
// Data, which the caller must not modify afterwards.
func (l *FileLog) Rewrite(recs []Record) error {
	l.mem.mu.Lock()
	defer l.mem.mu.Unlock()
	if l.mem.closed {
		return ErrClosed
	}
	if err := l.seg.rewrite(recs); err != nil {
		return err
	}
	l.mem.recs = append([]Record(nil), recs...)
	return nil
}

// Close syncs and closes the file.
func (l *FileLog) Close() error {
	l.mem.mu.Lock()
	defer l.mem.mu.Unlock()
	if l.mem.closed {
		return nil
	}
	l.mem.closed = true
	return l.seg.close()
}
