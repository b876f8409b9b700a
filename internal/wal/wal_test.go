package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func testLogs(t *testing.T) map[string]Log {
	t.Helper()
	fl, err := OpenFileLog(filepath.Join(t.TempDir(), "test.wal"))
	if err != nil {
		t.Fatal(err)
	}
	logs := map[string]Log{"mem": &MemLog{}, "file": fl}
	t.Cleanup(func() {
		for _, l := range logs {
			l.Close()
		}
	})
	return logs
}

func TestRecoverEmptyLog(t *testing.T) {
	for name, l := range testLogs(t) {
		cp, updates, ok, err := l.Recover()
		if err != nil || ok || len(updates) != 0 || cp.Kind != 0 {
			t.Errorf("%s: empty recover = %+v %v %v %v", name, cp, updates, ok, err)
		}
	}
}

func TestRecoverUpdatesOnly(t *testing.T) {
	for name, l := range testLogs(t) {
		for i := uint64(1); i <= 3; i++ {
			if err := l.Append(Record{Kind: KindUpdate, MsgID: i, Op: "inc", Data: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		_, updates, ok, err := l.Recover()
		if err != nil || ok {
			t.Fatalf("%s: %v ok=%v", name, err, ok)
		}
		if len(updates) != 3 || updates[2].MsgID != 3 {
			t.Errorf("%s: updates = %+v", name, updates)
		}
	}
}

func TestRecoverCheckpointAndSuffix(t *testing.T) {
	for name, l := range testLogs(t) {
		l.Append(Record{Kind: KindUpdate, MsgID: 1, Op: "a"})
		l.Append(Record{Kind: KindCheckpoint, MsgID: 2, Data: []byte("state-2")})
		l.Append(Record{Kind: KindUpdate, MsgID: 3, Op: "b", Data: []byte("x")})
		l.Append(Record{Kind: KindCheckpoint, MsgID: 4, Data: []byte("state-4")})
		l.Append(Record{Kind: KindUpdate, MsgID: 5, Op: "c"})
		l.Append(Record{Kind: KindUpdate, MsgID: 6, Op: "d"})

		cp, updates, ok, err := l.Recover()
		if err != nil || !ok {
			t.Fatalf("%s: %v ok=%v", name, err, ok)
		}
		if string(cp.Data) != "state-4" || cp.MsgID != 4 {
			t.Errorf("%s: cp = %+v", name, cp)
		}
		if len(updates) != 2 || updates[0].Op != "c" || updates[1].Op != "d" {
			t.Errorf("%s: updates = %+v", name, updates)
		}
	}
}

func TestTruncateAtCheckpoint(t *testing.T) {
	for name, l := range testLogs(t) {
		for i := uint64(1); i <= 10; i++ {
			kind := KindUpdate
			if i == 6 {
				kind = KindCheckpoint
			}
			l.Append(Record{Kind: kind, MsgID: i})
		}
		if err := l.TruncateAtCheckpoint(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if l.Len() != 5 { // checkpoint + 4 updates after it
			t.Errorf("%s: Len = %d, want 5", name, l.Len())
		}
		cp, updates, ok, _ := l.Recover()
		if !ok || cp.MsgID != 6 || len(updates) != 4 {
			t.Errorf("%s: post-truncate recover = %+v %d ok=%v", name, cp, len(updates), ok)
		}
	}
}

// Append takes ownership of rec.Data: the log keeps the caller's buffer
// instead of copying it, and Recover hands that same buffer back. Callers
// rely on this to log a snapshot, a postimage or a delivered payload
// without a second copy.
func TestAppendKeepsData(t *testing.T) {
	for name, l := range testLogs(t) {
		state := []byte("snapshot")
		update := []byte{1, 2, 3}
		l.Append(Record{Kind: KindCheckpoint, MsgID: 1, Data: state})
		l.Append(Record{Kind: KindUpdate, MsgID: 2, Op: "inc", Data: update})
		if err := l.TruncateAtCheckpoint(); err != nil {
			t.Fatal(err)
		}
		cp, updates, ok, err := l.Recover()
		if err != nil || !ok || len(updates) != 1 {
			t.Fatalf("%s: recover = %+v %d ok=%v err=%v", name, cp, len(updates), ok, err)
		}
		if &cp.Data[0] != &state[0] || &updates[0].Data[0] != &update[0] {
			t.Errorf("%s: the log copied the appended buffers", name)
		}
	}
}

// Compaction reuses the record slice: once it has grown, a steady cycle of
// updates and a checkpoint allocates nothing, and the dropped records'
// Data is cleared from the slice's tail so it can be collected.
func TestTruncateAtCheckpointAllocs(t *testing.T) {
	l := &MemLog{}
	state := make([]byte, 16<<10)
	update := make([]byte, 64)
	cycle := func() {
		for i := uint64(1); i <= 16; i++ {
			l.Append(Record{Kind: KindUpdate, MsgID: i, Op: "inc", Data: update})
		}
		l.Append(Record{Kind: KindCheckpoint, MsgID: 17, Data: state})
		l.TruncateAtCheckpoint()
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("%.1f allocations per append-and-compact cycle, want 0", n)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d after compaction, want the checkpoint alone", l.Len())
	}
	for i, rec := range l.recs[1:cap(l.recs)] {
		if rec.Data != nil {
			t.Fatalf("slot %d past the live records still holds %d bytes of Data", i+1, len(rec.Data))
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	for name, l := range testLogs(t) {
		l.Close()
		if err := l.Append(Record{Kind: KindUpdate}); err != ErrClosed {
			t.Errorf("%s: got %v, want ErrClosed", name, err)
		}
	}
}

func TestFileLogPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCheckpoint, MsgID: 10, Data: []byte("snap")})
	l.Append(Record{Kind: KindUpdate, MsgID: 11, Op: "inc", Data: []byte{1}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	cp, updates, ok, err := l2.Recover()
	if err != nil || !ok {
		t.Fatalf("recover: %v ok=%v", err, ok)
	}
	if string(cp.Data) != "snap" || len(updates) != 1 || updates[0].Op != "inc" {
		t.Errorf("got %+v / %+v", cp, updates)
	}
}

func TestFileLogToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCheckpoint, MsgID: 1, Data: []byte("ok")})
	l.Close()

	// Simulate a crash mid-append: write a length prefix with no body.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 50, 1, 2}) // claims 50 bytes, supplies 2
	f.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	cp, _, ok, _ := l2.Recover()
	if !ok || string(cp.Data) != "ok" {
		t.Errorf("torn tail corrupted earlier records: %+v ok=%v", cp, ok)
	}
}

// TestFileLogTruncatesTornTail injects corruption and verifies load()
// physically truncates the garbage: records appended after reopening a torn
// log must survive the NEXT reopen. (Before the fix, load() merely stopped
// reading, new appends landed after the garbage, and the torn record's
// length prefix swallowed them on the following recovery.)
func TestFileLogTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "truncate.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCheckpoint, MsgID: 1, Data: []byte("base")})
	l.Append(Record{Kind: KindUpdate, MsgID: 2, Op: "inc", Data: []byte{1}})
	l.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: half a record followed by nothing.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 40, 0xDE, 0xAD}) // claims 40 bytes, supplies 2
	f.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if l2.Len() != 2 {
		t.Fatalf("torn reopen Len = %d, want 2", l2.Len())
	}
	if err := l2.Append(Record{Kind: KindUpdate, MsgID: 3, Op: "inc", Data: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= len(intact) {
		t.Fatalf("append after torn reopen did not grow the file: %d <= %d", len(b), len(intact))
	}
	if string(b[:len(intact)]) != string(intact) {
		t.Fatalf("intact prefix damaged by truncation")
	}

	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	cp, updates, ok, err := l3.Recover()
	if err != nil || !ok {
		t.Fatalf("recover: %v ok=%v", err, ok)
	}
	if string(cp.Data) != "base" || len(updates) != 2 || updates[1].MsgID != 3 {
		t.Errorf("post-truncation append lost: cp=%+v updates=%+v", cp, updates)
	}
}

// TestFileLogTruncatesCorruptTail covers the undecodable-body case (bit rot
// or a torn write that happens to frame correctly).
func TestFileLogTruncatesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCheckpoint, MsgID: 5, Data: []byte("snap")})
	l.Close()

	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 2, 0xFF, 0xFF}) // well-framed, bad record kind
	f.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen corrupt: %v", err)
	}
	if l2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l2.Len())
	}
	l2.Append(Record{Kind: KindUpdate, MsgID: 6, Op: "inc"})
	l2.Close()

	l3, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	cp, updates, ok, _ := l3.Recover()
	if !ok || cp.MsgID != 5 || len(updates) != 1 || updates[0].MsgID != 6 {
		t.Errorf("recover after corrupt-tail truncation: cp=%+v updates=%+v ok=%v", cp, updates, ok)
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(kindBit bool, msgID uint64, op string, data []byte) bool {
		op = sanitize(op)
		kind := KindCheckpoint
		if kindBit {
			kind = KindUpdate
		}
		rec := Record{Kind: kind, MsgID: msgID, Op: op, Data: data}
		got, err := decodeRecord(encodeRecord(rec))
		if err != nil {
			return false
		}
		return got.Kind == rec.Kind && got.MsgID == rec.MsgID && got.Op == rec.Op &&
			string(got.Data) == string(rec.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRecoverEquivalenceQuick checks MemLog and FileLog recover identically
// for random record sequences.
func TestRecoverEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mem := &MemLog{}
		fl, err := OpenFileLog(filepath.Join(t.TempDir(), fmt.Sprintf("eq-%d.wal", seed&0xFFFF)))
		if err != nil {
			return false
		}
		defer fl.Close()
		n := r.Intn(20)
		for i := 0; i < n; i++ {
			rec := Record{Kind: KindUpdate, MsgID: uint64(i)}
			if r.Intn(4) == 0 {
				rec.Kind = KindCheckpoint
			}
			mem.Append(rec)
			fl.Append(rec)
		}
		c1, u1, ok1, _ := mem.Recover()
		c2, u2, ok2, _ := fl.Recover()
		if ok1 != ok2 || c1.MsgID != c2.MsgID || len(u1) != len(u2) {
			return false
		}
		for i := range u1 {
			if u1[i].MsgID != u2[i].MsgID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] == 0 {
			b[i] = '_'
		}
	}
	return string(b)
}
