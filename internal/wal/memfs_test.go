package wal

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// errCrash is what every filesystem call returns once memFS has crashed.
var errCrash = errors.New("memfs: crashed")

// memFS is an in-memory filesystem that models a power cut. The running process
// sees live: the names and contents its calls produced. The disk holds
// durable: each directory's names as of its last fsync, each pointing at a
// file whose contents are those of the file's last fsync. With crashAt > 0,
// the crashAt-th mutating call (create, truncate, write, fsync, rename)
// crashes the process: it and every later call fail, and a crashing write
// lands half its bytes.
type memFS struct {
	mu      sync.Mutex
	live    map[string]*inode
	durable map[string]*inode
	ops     []string // mutating calls made, in order
	crashAt int
	crashed bool
	// readErr, when set, fails every read of the file at readErrPath.
	readErr     error
	readErrPath string
}

type inode struct{ data, synced []byte }

type memFile struct {
	fs   *memFS
	path string
	n    *inode // nil for a directory
	off  int64
}

func newMemFS() *memFS {
	return &memFS{live: make(map[string]*inode), durable: make(map[string]*inode)}
}

// useDisk makes m the filesystem segments use until the test ends.
func useDisk(t testing.TB, m *memFS) {
	t.Helper()
	prevOpen, prevRename := openFile, rename
	setDisk(m)
	t.Cleanup(func() { openFile, rename = prevOpen, prevRename })
}

func setDisk(m *memFS) { openFile, rename = m.OpenFile, m.Rename }

// step records one mutating call and reports whether the process crashed
// at or before it.
func (m *memFS) step(op string) error {
	if m.crashed {
		return errCrash
	}
	m.ops = append(m.ops, op)
	if len(m.ops) == m.crashAt {
		m.crashed = true
		return errCrash
	}
	return nil
}

func (m *memFS) isDir(name string) bool {
	for p := range m.live {
		if strings.HasPrefix(p, name+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, errCrash
	}
	n, ok := m.live[name]
	off := int64(0)
	if ok && flag&os.O_APPEND != 0 {
		off = int64(len(n.data))
	}
	switch {
	case !ok && flag&os.O_CREATE != 0:
		if err := m.step("create " + filepath.Base(name)); err != nil {
			return nil, err
		}
		n = &inode{}
		m.live[name] = n
	case !ok && flag == os.O_RDONLY && m.isDir(name):
		return &memFile{fs: m, path: name}, nil
	case !ok:
		return nil, &iofs.PathError{Op: "open", Path: name, Err: iofs.ErrNotExist}
	case flag&os.O_TRUNC != 0:
		if err := m.step("truncate " + filepath.Base(name)); err != nil {
			return nil, err
		}
		n.data = nil
	}
	return &memFile{fs: m, path: name, n: n, off: off}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("rename " + filepath.Base(oldpath)); err != nil {
		return err
	}
	n, ok := m.live[oldpath]
	if !ok {
		return &iofs.PathError{Op: "rename", Path: oldpath, Err: iofs.ErrNotExist}
	}
	m.live[newpath] = n
	delete(m.live, oldpath)
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch {
	case f.fs.crashed:
		return 0, errCrash
	case f.fs.readErr != nil && f.path == f.fs.readErrPath:
		return 0, f.fs.readErr
	case f.off >= int64(len(f.n.data)):
		return 0, io.EOF
	}
	n := copy(p, f.n.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, errCrash
	}
	err := f.fs.step("write " + filepath.Base(f.path))
	if err != nil {
		p = p[:len(p)/2] // the crashing write is torn
	}
	if end := f.off + int64(len(p)); end > int64(len(f.n.data)) {
		f.n.data = append(f.n.data, make([]byte, end-int64(len(f.n.data)))...)
	}
	copy(f.n.data[f.off:], p)
	f.off += int64(len(p))
	return len(p), err
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, errCrash
	}
	switch whence {
	case io.SeekStart:
		f.off = offset
	case io.SeekCurrent:
		f.off += offset
	case io.SeekEnd:
		f.off = int64(len(f.n.data)) + offset
	}
	return f.off, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.step("truncate " + filepath.Base(f.path)); err != nil {
		return err
	}
	if size < int64(len(f.n.data)) {
		f.n.data = f.n.data[:size]
	}
	return nil
}

// Sync makes a file's contents durable, or a directory's names.
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.n != nil {
		if err := f.fs.step("fsync " + filepath.Base(f.path)); err != nil {
			return err
		}
		f.n.synced = append([]byte(nil), f.n.data...)
		return nil
	}
	if err := f.fs.step("fsync dir"); err != nil {
		return err
	}
	for p := range f.fs.durable {
		if filepath.Dir(p) == f.path && f.fs.live[p] == nil {
			delete(f.fs.durable, p)
		}
	}
	for p, n := range f.fs.live {
		if filepath.Dir(p) == f.path {
			f.fs.durable[p] = n
		}
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// image returns a fresh filesystem holding what survives a crash now: the
// durable state, or with flushed set everything the process wrote, as if
// the cache had reached the disk just before the crash.
func (m *memFS) image(flushed bool) *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := newMemFS()
	from := m.durable
	if flushed {
		from = m.live
	}
	for p, n := range from {
		b := n.synced
		if flushed {
			b = n.data
		}
		c := &inode{data: append([]byte(nil), b...), synced: append([]byte(nil), b...)}
		out.live[p], out.durable[p] = c, c
	}
	return out
}

// crashMatrix checks that op survives a crash at each of its filesystem
// mutations. setup builds the pre-operation files on an empty memFS and op
// then changes them; state opens what is on disk and describes it. After
// each crash, reopening either crash image must describe the state before
// op or the state after a crash-free run. An op that is durable promises
// that state once it has returned, so a crash just after a crash-free run
// must not lose it.
func crashMatrix(t *testing.T, setup, op func(), state func() string, durable bool) {
	t.Helper()
	base := newMemFS()
	useDisk(t, base)
	setup()
	base = base.image(true)

	setDisk(base.image(false))
	pre := state()
	clean := base.image(false)
	setDisk(clean)
	op()
	setDisk(clean.image(true))
	post := state()
	if pre == post {
		t.Fatalf("op changed nothing: %s", pre)
	}
	if durable {
		setDisk(clean.image(false))
		if got := state(); got != post {
			t.Errorf("crash after a clean run %v: reopened as\n  %s\nwant the post-operation state\n  %s", clean.ops, got, post)
		}
	}
	for k := 1; k <= len(clean.ops); k++ {
		run := base.image(false)
		run.crashAt = k
		setDisk(run)
		op()
		for _, flushed := range []bool{false, true} {
			setDisk(run.image(flushed))
			if got := state(); got != pre && got != post {
				t.Errorf("crash at %q (call %d of %v), flushed=%v: reopened as\n  %s\nwant the pre-operation state\n  %s\nor the post-operation state\n  %s",
					clean.ops[k-1], k, clean.ops, flushed, got, pre, post)
			}
		}
	}
}
