package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
)

// describeLog reopens the log at path and describes what it recovers.
func describeLog(path string) string {
	l, err := OpenFileLog(path)
	if err != nil {
		return "open failed: " + err.Error()
	}
	defer l.Close()
	cp, updates, ok, err := l.Recover()
	s := fmt.Sprintf("%d records, checkpoint %v", l.Len(), ok)
	if ok {
		s += fmt.Sprintf(" @%d %q", cp.MsgID, cp.Data)
	}
	for _, u := range updates {
		s += fmt.Sprintf(", update @%d", u.MsgID)
	}
	if err != nil {
		s += ", error " + err.Error()
	}
	return s
}

// TestCrashMatrix crashes FileLog's append and compaction at every write,
// fsync, rename and truncate they make. A reopened log must hold what it
// held before the operation or what it holds after it; in particular it
// never loses the checkpoint it recovers from.
func TestCrashMatrix(t *testing.T) {
	path := filepath.Join(string(filepath.Separator)+"wal", "crash.wal")
	setup := func() {
		l, err := OpenFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, kind := range []Kind{KindUpdate, KindCheckpoint, KindUpdate, KindCheckpoint, KindUpdate} {
			if err := l.Append(Record{Kind: kind, MsgID: uint64(i + 1), Data: []byte(fmt.Sprintf("state-%d", i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		op      func(l *FileLog)
		durable bool // update appends are synced only on Close
	}{
		{"append update", func(l *FileLog) { _ = l.Append(Record{Kind: KindUpdate, MsgID: 6, Op: "inc"}) }, false},
		{"append checkpoint", func(l *FileLog) { _ = l.Append(Record{Kind: KindCheckpoint, MsgID: 6, Data: []byte("state-6")}) }, true},
		{"compaction", func(l *FileLog) { _ = l.TruncateAtCheckpoint() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crashMatrix(t, setup, func() {
				if l, err := OpenFileLog(path); err == nil {
					tc.op(l)
				}
			}, func() string { return describeLog(path) }, tc.durable)
		})
	}
}

// A read error other than a short read is not a torn tail: the open fails
// and the file keeps every byte.
func TestOpenFailsOnReadError(t *testing.T) {
	m := newMemFS()
	useDisk(t, m)
	path := filepath.Join(string(filepath.Separator)+"wal", "eio.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(Record{Kind: KindUpdate, MsgID: i, Data: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	before := append([]byte(nil), m.live[path].data...)

	m.readErr, m.readErrPath = syscall.EIO, path
	if _, err := OpenFileLog(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("open with a failing read: err = %v, want EIO", err)
	}
	if !bytes.Equal(m.live[path].data, before) {
		t.Fatalf("failed open changed the file: %d bytes, want %d", len(m.live[path].data), len(before))
	}
}

// A torn tail whose length prefix claims far more bytes than the file holds
// is treated as torn without allocating the claimed length.
func TestOpenBoundsTornLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindCheckpoint, MsgID: 1, Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0xFF, 0xFF, 0xF0, 1, 2}) // claims ~4 GiB, supplies 2 bytes
	f.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l2, err := OpenFileLog(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("open allocated %d bytes for a %d-byte file", alloc, st.Size())
	}
	if cp, _, ok, _ := l2.Recover(); !ok || string(cp.Data) != "ok" {
		t.Fatalf("recover = %+v ok=%v, want the checkpoint", cp, ok)
	}
}
