package drstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wal"
)

func upd(msgID uint64, op string, data []byte) wal.Record {
	return wal.Record{Kind: wal.KindUpdate, MsgID: msgID, Op: op, Data: data}
}

// exercise drives one store through the idempotence + compaction contract.
func exercise(t *testing.T, s Store) {
	t.Helper()
	meta := Meta{GroupID: 7, Name: "acct", TypeID: "IDL:x:1.0", Style: 5, CheckpointEvery: 8, Shard: 2}
	if err := s.PutMeta(meta); err != nil {
		t.Fatalf("PutMeta: %v", err)
	}
	for _, m := range []uint64{3, 4, 5} {
		if err := s.AppendUpdate(7, upd(m, "inv:add", []byte{byte(m)})); err != nil {
			t.Fatalf("AppendUpdate(%d): %v", m, err)
		}
	}
	// Duplicate and stale appends must be dropped.
	if err := s.AppendUpdate(7, upd(5, "inv:add", []byte{99})); err != nil {
		t.Fatalf("dup append: %v", err)
	}
	if err := s.AppendUpdate(7, upd(2, "inv:add", []byte{2})); err != nil {
		t.Fatalf("stale append: %v", err)
	}
	snap, ok, err := s.Snapshot(7)
	if err != nil || !ok {
		t.Fatalf("Snapshot: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(snap.Meta, meta) {
		t.Fatalf("meta mismatch: %+v vs %+v", snap.Meta, meta)
	}
	if snap.Checkpoint != nil {
		t.Fatalf("unexpected checkpoint before PutCheckpoint")
	}
	if len(snap.Updates) != 3 || snap.Updates[0].MsgID != 3 || snap.Updates[2].MsgID != 5 {
		t.Fatalf("updates = %+v, want msgIDs 3,4,5", snap.Updates)
	}

	// Checkpoint at 4 compacts updates ≤ 4 and keeps 5.
	cp := Checkpoint{UpToMsgID: 4, State: []byte("state@4"), Covered: []byte("window:c1/1/2")}
	if err := s.PutCheckpoint(7, cp); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	snap, _, _ = s.Snapshot(7)
	if snap.Checkpoint == nil || snap.Checkpoint.UpToMsgID != 4 {
		t.Fatalf("checkpoint = %+v, want UpToMsgID 4", snap.Checkpoint)
	}
	if string(snap.Checkpoint.State) != "state@4" || !bytes.Equal(snap.Checkpoint.Covered, cp.Covered) {
		t.Fatalf("checkpoint content = %+v", snap.Checkpoint)
	}
	if len(snap.Updates) != 1 || snap.Updates[0].MsgID != 5 {
		t.Fatalf("post-compaction updates = %+v, want only msgID 5", snap.Updates)
	}

	// An older checkpoint (failover retransmission) must be dropped.
	if err := s.PutCheckpoint(7, Checkpoint{UpToMsgID: 3, State: []byte("old")}); err != nil {
		t.Fatalf("old checkpoint: %v", err)
	}
	snap, _, _ = s.Snapshot(7)
	if string(snap.Checkpoint.State) != "state@4" {
		t.Fatalf("older checkpoint overwrote newer: %q", snap.Checkpoint.State)
	}

	// Updates at or below the checkpoint stay dropped even with lastMsg reset.
	if err := s.AppendUpdate(7, upd(4, "inv:add", []byte{4})); err != nil {
		t.Fatalf("covered append: %v", err)
	}
	snap, _, _ = s.Snapshot(7)
	if len(snap.Updates) != 1 {
		t.Fatalf("covered update accepted: %+v", snap.Updates)
	}

	if _, ok, err := s.Snapshot(12345); ok || err != nil {
		t.Fatalf("unknown group: ok=%v err=%v", ok, err)
	}
	gids, err := s.Groups()
	if err != nil || len(gids) != 1 || gids[0] != 7 {
		t.Fatalf("Groups = %v, %v", gids, err)
	}
}

func TestMemStoreContract(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	exercise(t, s)
}

func TestDirStoreContract(t *testing.T) {
	s, err := OpenDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	exercise(t, s)
}

// TestDirStoreReopen verifies a reopened store serves the shipped state,
// including meta, checkpoint, covered window, and post-checkpoint updates.
func TestDirStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	exercise(t, s)
	before, _, _ := s.Snapshot(7)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	after, ok, err := s2.Snapshot(7)
	if err != nil || !ok {
		t.Fatalf("reopen snapshot: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("snapshot changed across reopen:\nbefore %+v\nafter  %+v", before, after)
	}
	// Idempotence survives reopen: re-shipping the covered update is a no-op.
	if err := s2.AppendUpdate(7, upd(5, "inv:add", []byte{5})); err != nil {
		t.Fatalf("reship: %v", err)
	}
	again, _, _ := s2.Snapshot(7)
	if len(again.Updates) != len(after.Updates) {
		t.Fatalf("reshipped duplicate accepted after reopen")
	}
}

// TestDirStoreLegacyMeta verifies a meta file written before Meta lost its
// CheckpointEveryBytes field still opens: gob skips the retired field and
// decodes the rest.
func TestDirStoreLegacyMeta(t *testing.T) {
	type legacyMeta struct {
		GroupID              uint64
		Name                 string
		TypeID               string
		Style                uint8
		CheckpointEvery      int
		CheckpointEveryBytes int
		Shard                int
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "g7"), 0o755); err != nil {
		t.Fatal(err)
	}
	old := legacyMeta{GroupID: 7, Name: "acct", TypeID: "IDL:x:1.0", Style: 5, CheckpointEvery: 8, CheckpointEveryBytes: 1 << 16, Shard: 2}
	if err := writeGob(filepath.Join(dir, "g7", metaFile), old); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	snap, ok, err := s.Snapshot(7)
	if err != nil || !ok {
		t.Fatalf("snapshot: ok=%v err=%v", ok, err)
	}
	want := Meta{GroupID: 7, Name: "acct", TypeID: "IDL:x:1.0", Style: 5, CheckpointEvery: 8, Shard: 2}
	if snap.Meta != want {
		t.Fatalf("meta = %+v, want %+v", snap.Meta, want)
	}
}

// TestDirStoreTornSegmentTail verifies a half-written segment frame (shipper
// crash mid-write) loses only that frame on reopen, not the whole segment.
func TestDirStoreTornSegmentTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := s.PutMeta(Meta{GroupID: 1, Name: "g"}); err != nil {
		t.Fatalf("meta: %v", err)
	}
	for _, m := range []uint64{1, 2, 3} {
		if err := s.AppendUpdate(1, upd(m, "inv:op", []byte("payload"))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	s.Close()

	seg := filepath.Join(dir, "g1", segFile)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	// Tear the last frame in half and follow it with a bogus length prefix.
	if err := os.WriteFile(seg, append(b[:len(b)-5], 0xFF, 0xFF, 0xFF, 0x01), 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}

	s2, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer s2.Close()
	snap, ok, _ := s2.Snapshot(1)
	if !ok || len(snap.Updates) != 2 || snap.Updates[1].MsgID != 2 {
		t.Fatalf("torn tail: updates = %+v, want msgIDs 1,2", snap.Updates)
	}
	// New appends after the truncation must be readable on the next open.
	if err := s2.AppendUpdate(1, upd(3, "inv:op", []byte("re-shipped"))); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	s2.Close()
	s3, err := OpenDirStore(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	snap, _, _ = s3.Snapshot(1)
	if len(snap.Updates) != 3 || string(snap.Updates[2].Data) != "re-shipped" {
		t.Fatalf("post-truncate append lost: %+v", snap.Updates)
	}
}
