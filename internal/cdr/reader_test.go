package cdr

import (
	"errors"
	"testing"
)

// A Reader keeps its first error: reads after it return zero values and
// leave the error as it was.
func TestReaderKeepsFirstError(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULongLong(7)
	e.WriteString("node")
	r := NewReader(e.Bytes(), BigEndian)
	if got := r.U64(); got != 7 {
		t.Fatalf("U64 = %d, want 7", got)
	}
	if got := r.Str(); got != "node" {
		t.Fatalf("Str = %q, want node", got)
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v after reading what was written", r.Err())
	}
	if got := r.U64(); got != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("U64 past the end = %d, Err %v; want 0, ErrTruncated", got, r.Err())
	}
	if r.Octets() != nil || r.Str() != "" || r.Bool() || r.Count(1) != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("reads after an error returned values or replaced the error (%v)", r.Err())
	}
}

// Count refuses a count whose elements cannot fit in the bytes left, so no
// caller sizes an allocation by it.
func TestReaderCountBoundedByBytesLeft(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(3)
	e.WriteRaw(make([]byte, 24))
	r := NewReader(e.Bytes(), BigEndian)
	if n := r.Count(8); n != 3 || r.Err() != nil {
		t.Fatalf("Count(8) over 24 bytes = %d, %v; want 3", n, r.Err())
	}
	r = NewReader(e.Bytes(), BigEndian)
	if n := r.Count(9); n != 0 || r.Err() == nil {
		t.Fatalf("Count(9) over 24 bytes = %d, %v; want an error", n, r.Err())
	}
}
