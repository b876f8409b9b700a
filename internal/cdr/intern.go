package cdr

import (
	"sync"
	"sync/atomic"
)

// The protocol layers above CDR read the same small vocabulary of
// strings over and over on their hot paths: node names, group names,
// operation names, client identifiers. Decoding each occurrence
// allocates a fresh string; across a token rotation or a coalesced data
// batch those add up to a large share of the garbage the receive path
// produces. The intern table maps each distinct spelling to one shared
// string, so steady-state decoding allocates nothing for strings.
//
// The table is capped: an adversarial or merely unbounded vocabulary
// (say, per-request identifiers routed through an interned field) must
// not pin memory forever, so once full the table stops growing and
// lookups that miss simply allocate like before.
//
// Lookups take no lock: every decoder on every core reads the table on its
// hot path, and even a read lock's reader count is a shared cache line
// they would all write. The table is copy-on-write instead: a hit is one
// atomic load and a map lookup. A miss goes to a mutex-guarded dirty copy
// that holds every entry plus the new ones, and the dirty copy is published
// once the misses since the last publish reach its size — so copying the
// table costs amortized O(1) per miss, however large the vocabulary grows
// up to the cap.
var internTab struct {
	read   atomic.Pointer[map[string]string] // immutable once published
	mu     sync.Mutex
	dirty  map[string]string // read's entries plus newer ones; nil when equal
	misses int               // slow-path lookups since the last publish
}

// maxInterned bounds the table. Node, group, and operation vocabularies
// are far smaller in practice; the cap only matters if a caller routes
// high-cardinality data through an interned read by mistake.
const maxInterned = 4096

// Intern returns a canonical string equal to b. The fast path (the
// spelling is already published) performs no allocation and takes no
// lock: the map lookup with a byte-slice key conversion does not escape.
func Intern(b []byte) string {
	if m := internTab.read.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
		if len(*m) >= maxInterned {
			return string(b) // full: a miss allocates like before
		}
	}
	return internSlow(b)
}

func internSlow(b []byte) string {
	t := &internTab
	t.mu.Lock()
	defer t.mu.Unlock()
	var read map[string]string
	if m := t.read.Load(); m != nil {
		read = *m
	}
	if s, ok := read[string(b)]; ok {
		return s
	}
	if t.dirty == nil {
		if len(read) >= maxInterned {
			return string(b)
		}
		t.dirty = make(map[string]string, len(read)+1)
		for k, v := range read {
			t.dirty[k] = v
		}
	}
	s, ok := t.dirty[string(b)]
	if !ok {
		s = string(b)
		if len(t.dirty) < maxInterned {
			t.dirty[s] = s
		}
	}
	if t.misses++; t.misses >= len(t.dirty) {
		m := t.dirty
		t.read.Store(&m)
		t.dirty, t.misses = nil, 0
	}
	return s
}

// ReadStringInterned is ReadString through the intern table: use it for
// fields drawn from a small fixed vocabulary (protocol names, node and
// group identifiers), where it makes steady-state decoding allocation
// free. Do not use it for unbounded user data.
func (d *Decoder) ReadStringInterned() (string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return "", err
	}
	if n == 0 || n > MaxSeqLen {
		if n == 0 {
			return "", nil
		}
		return "", ErrSeqTooLong
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if b[len(b)-1] != 0 {
		return "", ErrBadString
	}
	return Intern(b[:len(b)-1]), nil
}
