package wal

import "testing"

// Hooks for the external tests in this directory, which drive the DR store
// (an importer of this package) through the filesystem seam.

// CrashMatrix is crashMatrix.
func CrashMatrix(t *testing.T, setup, op func(), state func() string, durable bool) {
	crashMatrix(t, setup, op, state, durable)
}

// UseMemFS installs an empty memFS for the rest of the test. failReads
// makes every later read of one file fail; contents returns a file's bytes.
func UseMemFS(t *testing.T) (failReads func(path string, err error), contents func(path string) []byte) {
	m := newMemFS()
	useDisk(t, m)
	failReads = func(path string, err error) { m.readErrPath, m.readErr = path, err }
	contents = func(path string) []byte {
		if n := m.live[path]; n != nil {
			return append([]byte(nil), n.data...)
		}
		return nil
	}
	return failReads, contents
}
