package drstore

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzOpenDirStore loads a store directory whose one group holds arbitrary
// meta, checkpoint and segment bytes. Open and Snapshot must not panic and
// must allocate in proportion to the files rather than to any length they
// claim; a group that opens must report itself in Snapshot.
func FuzzOpenDirStore(f *testing.F) {
	seed := f.TempDir()
	s, err := OpenDirStore(seed)
	if err != nil {
		f.Fatal(err)
	}
	exercise(&testing.T{}, s)
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(seed, "g7", name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	meta, ckpt, seg := read(metaFile), read(ckptFile), read(segFile)
	f.Add(meta, ckpt, seg)
	f.Add(meta, []byte{}, seg[:len(seg)/2])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xF0}, ckpt, []byte{0xFF, 0xFF, 0xFF, 0xF0, 1})
	log.SetOutput(io.Discard) // every torn segment logs its truncation
	f.Cleanup(func() { log.SetOutput(os.Stderr) })

	f.Fuzz(func(t *testing.T, meta, ckpt, seg []byte) {
		dir := t.TempDir()
		group := filepath.Join(dir, "g9")
		if err := os.Mkdir(group, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{metaFile: meta, ckptFile: ckpt, segFile: seg} {
			if err := os.WriteFile(filepath.Join(group, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := OpenDirStore(dir)
		var ok bool
		if err == nil {
			_, ok, err = s.Snapshot(9)
			s.Close()
		}
		runtime.ReadMemStats(&after)
		size := uint64(len(meta) + len(ckpt) + len(seg))
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 16*size+256<<10; alloc > limit {
			t.Fatalf("open allocated %d bytes for %d bytes of files (limit %d)", alloc, size, limit)
		}
		if err == nil && !ok {
			t.Fatal("the group opened but Snapshot does not report it")
		}
	})
}
