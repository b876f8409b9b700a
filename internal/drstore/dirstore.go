package drstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/wal"
)

// DirStore is the durable Store: the MemStore mirror (which serves every
// read) plus one directory per group holding the shipped meta, the latest
// checkpoint, and a wal segment of the updates since it. Meta and
// checkpoint are written with wal.WriteFile, the checkpoint before the
// segment is compacted; a crash between the two leaves covered updates in
// the segment, which the next open drops by the mirror's staleness rule.
type DirStore struct {
	mirror
}

var _ Store = (*DirStore)(nil)

// File names inside a group directory.
const (
	metaFile = "meta"
	ckptFile = "ckpt"
	segFile  = "updates.seg"
)

// OpenDirStore opens (or creates) a directory-backed store and loads every
// group found under it.
func OpenDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("drstore: mkdir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("drstore: scan: %w", err)
	}
	s := &DirStore{mirror{groups: make(map[uint64]*groupState), dir: dir}}
	for _, ent := range ents {
		gid, perr := strconv.ParseUint(strings.TrimPrefix(ent.Name(), "g"), 10, 64)
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "g") || perr != nil {
			continue
		}
		if err := s.update(gid, func(*groupState) error { return nil }); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *mirror) path(gid uint64, name string) string {
	return filepath.Join(s.dir, fmt.Sprintf("g%d", gid), name)
}

// openGroup creates a group's state: empty in a MemStore, loaded from its
// files (its directory created on first use) in a DirStore.
func (s *mirror) openGroup(gid uint64) (*groupState, error) {
	g := &groupState{}
	if s.dir == "" {
		return g, nil
	}
	if err := os.MkdirAll(filepath.Dir(s.path(gid, segFile)), 0o755); err != nil {
		return nil, fmt.Errorf("drstore: mkdir group: %w", err)
	}
	if err := readGob(s.path(gid, metaFile), &g.meta); err != nil {
		return nil, fmt.Errorf("drstore: group %d meta: %w", gid, err)
	}
	if err := readGob(s.path(gid, ckptFile), &g.cp); err != nil {
		return nil, fmt.Errorf("drstore: group %d checkpoint: %w", gid, err)
	}
	seg, err := wal.OpenFileLog(s.path(gid, segFile))
	if err != nil {
		return nil, fmt.Errorf("drstore: group %d segment: %w", gid, err)
	}
	_, updates, _, _ := seg.Recover()
	for _, u := range updates {
		g.acceptUpdate(u)
	}
	g.seg = seg
	return g, nil
}

// writeGob durably replaces the file at path with v's gob encoding.
func writeGob(path string, v any) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return err
	}
	return wal.WriteFile(path, b.Bytes())
}

// readGob decodes the file at path into v, leaving v as it is when the file
// does not exist.
func readGob(path string, v any) error {
	b, err := wal.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := checkGobFraming(b); err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// checkGobFraming checks that every message of a gob stream fits in it.
// The decoder allocates a message at its claimed length before reading it,
// so a torn or corrupt file claiming megabytes would cost that much.
func checkGobFraming(b []byte) error {
	for len(b) > 0 {
		// A gob count is one byte below 0x80, else the negated byte
		// count of the big-endian value that follows.
		n, w := uint64(b[0]), 1
		if n >= 0x80 {
			w += 256 - int(b[0])
			if w > 9 || w > len(b) {
				return errBadFraming
			}
			n = 0
			for _, c := range b[1:w] {
				n = n<<8 | uint64(c)
			}
		}
		if n > uint64(len(b)-w) {
			return errBadFraming
		}
		b = b[w+int(n):]
	}
	return nil
}

var errBadFraming = errors.New("drstore: gob message longer than its file")
