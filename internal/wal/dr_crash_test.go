package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/drstore"
	"repro/internal/wal"
)

func update(msgID uint64) wal.Record {
	return wal.Record{Kind: wal.KindUpdate, MsgID: msgID, Op: "inv:add", Data: []byte{byte(msgID)}}
}

// describeStore reopens the store in dir and describes group 7.
func describeStore(dir string) string {
	s, err := drstore.OpenDirStore(dir)
	if err != nil {
		return "open failed: " + err.Error()
	}
	defer s.Close()
	snap, ok, err := s.Snapshot(7)
	out := fmt.Sprintf("known %v, err %v, meta %+v", ok, err, snap.Meta)
	if cp := snap.Checkpoint; cp != nil {
		out += fmt.Sprintf(", checkpoint @%d %q window %q", cp.UpToMsgID, cp.State, cp.Covered)
	}
	for _, u := range snap.Updates {
		out += fmt.Sprintf(", update @%d", u.MsgID)
	}
	return out
}

// TestDirStoreCrashMatrix crashes the DR store's checkpoint put and update
// append at every filesystem mutation they make. A reopened store must
// serve the group as it was before the call or as it is after it.
func TestDirStoreCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	setup := func() {
		s, err := drstore.OpenDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.PutMeta(drstore.Meta{GroupID: 7, Name: "acct"}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCheckpoint(7, drstore.Checkpoint{UpToMsgID: 2, State: []byte("state@2"), Covered: []byte("window@2")}); err != nil {
			t.Fatal(err)
		}
		for m := uint64(3); m <= 5; m++ {
			if err := s.AppendUpdate(7, update(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		op      func(s *drstore.DirStore)
		durable bool // update appends are synced only on Close
	}{
		{"checkpoint put", func(s *drstore.DirStore) {
			_ = s.PutCheckpoint(7, drstore.Checkpoint{UpToMsgID: 4, State: []byte("state@4"), Covered: []byte("window@4")})
		}, true},
		{"update append", func(s *drstore.DirStore) { _ = s.AppendUpdate(7, update(6)) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wal.CrashMatrix(t, setup, func() {
				if s, err := drstore.OpenDirStore(dir); err == nil {
					tc.op(s)
				}
			}, func() string { return describeStore(dir) }, tc.durable)
		})
	}
}

// A read error while the DR store loads a segment fails the open and leaves
// the segment as it was, where treating it as a torn tail would truncate
// durable updates away.
func TestDirStoreOpenFailsOnReadError(t *testing.T) {
	dir := t.TempDir()
	failReads, contents := wal.UseMemFS(t)
	s, err := drstore.OpenDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for m := uint64(1); m <= 3; m++ {
		if err := s.AppendUpdate(7, update(m)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "g7", "updates.seg")
	before := contents(seg)
	if len(before) == 0 {
		t.Fatal("no segment written")
	}

	failReads(seg, syscall.EIO)
	if _, err := drstore.OpenDirStore(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("open with a failing segment read: err = %v, want EIO", err)
	}
	if !bytes.Equal(contents(seg), before) {
		t.Fatalf("failed open changed the segment: %d bytes, want %d", len(contents(seg)), len(before))
	}
}
