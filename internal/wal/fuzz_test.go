package wal

import (
	"bytes"
	"io"
	"log"
	"os"
	"runtime"
	"testing"
)

// FuzzOpenSegment opens arbitrary file bytes as a segment. Open must not
// panic, must allocate in proportion to the file rather than to any length
// a frame claims, and must leave a file that, after one more append, reopens
// as the records it first recovered followed by the new one.
func FuzzOpenSegment(f *testing.F) {
	intact := appendFrame(nil, Record{Kind: KindCheckpoint, MsgID: 1, Data: []byte("base")})
	intact = appendFrame(intact, Record{Kind: KindUpdate, MsgID: 2, Op: "inc", Data: []byte{1}})
	f.Add(intact)
	// The torn tails of the FileLog tests: a short body, a bad record kind,
	// and lengths far beyond the file.
	for _, tail := range [][]byte{
		{0, 0, 0, 50, 1, 2},
		{0, 0, 0, 40, 0xDE, 0xAD},
		{0, 0, 0, 2, 0xFF, 0xFF},
		{0xFF, 0xFF, 0xFF, 0xF0, 1, 2},
		{0xFF, 0xFF, 0xFF, 0x01},
	} {
		f.Add(append(append([]byte(nil), intact...), tail...))
	}
	log.SetOutput(io.Discard) // every torn input logs its truncation
	f.Cleanup(func() { log.SetOutput(os.Stderr) })

	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMemFS()
		useDisk(t, m)
		const path = "/fuzz/seg"
		m.live[path] = &inode{data: append([]byte(nil), data...)}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seg, recs, err := openSegment(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+64<<10; alloc > limit {
			t.Fatalf("open allocated %d bytes for a %d-byte file (limit %d)", alloc, len(data), limit)
		}
		added := Record{Kind: KindUpdate, MsgID: 99, Op: "fuzz", Data: []byte("added")}
		if err := seg.append(added, false); err != nil {
			t.Fatal(err)
		}
		if err := seg.close(); err != nil {
			t.Fatal(err)
		}
		_, again, err := openSegment(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		want := append(recs, added)
		if len(again) != len(want) {
			t.Fatalf("reopen recovered %d records, want %d", len(again), len(want))
		}
		for i := range want {
			a, b := again[i], want[i]
			if a.Kind != b.Kind || a.MsgID != b.MsgID || a.Op != b.Op || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("record %d: reopened as %+v, want %+v", i, a, b)
			}
		}
	})
}
