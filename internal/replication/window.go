package replication

import (
	"encoding/binary"
	"errors"

	"repro/internal/cdr"
)

// A checkpoint's duplicate-suppression window (msgCheckpoint.Covered) lists
// the keys of the executed operations its state includes, in dedup-FIFO
// order. It travels as one compact octet sequence:
//
//	uvarint C                    number of distinct client ids
//	C × (uvarint len, len bytes) client table, in first-use order
//	uvarint N                    number of keys
//	N × (uvarint client index, uvarint ParentSeq, varint OpSeq delta)
//
// The OpSeq delta is taken from the previous key (the first key's from
// zero) and zigzag-encoded, so a window of one client's consecutive
// operations costs 3 B per key. An empty window is zero bytes.
//
// Receivers keep the bytes as delivered and parse them only when they adopt
// the checkpoint, so the window costs an operational member nothing.

// errBadWindow reports a malformed window encoding.
var errBadWindow = errors.New("replication: malformed checkpoint window")

// minWindowKey is the smallest encoded key: three one-byte varints.
const minWindowKey = 3

// windowEncoder encodes a window in one pass over its keys.
type windowEncoder struct {
	clients []string
	index   map[string]uint64
	last    uint64 // table index of the previous key's client
	keys    []byte // encoded per-key records
	n       uint64
	prevOp  uint64
}

func (w *windowEncoder) add(k opKey) {
	w.keys = binary.AppendUvarint(w.keys, w.clientIndex(k.ClientID))
	w.keys = binary.AppendUvarint(w.keys, k.ParentSeq)
	w.keys = binary.AppendVarint(w.keys, int64(k.OpSeq-w.prevOp))
	w.prevOp = k.OpSeq
	w.n++
}

// clientIndex returns c's table index, adding c on first use. Consecutive
// keys mostly share a client, so the map is consulted only on a switch.
func (w *windowEncoder) clientIndex(c string) uint64 {
	if w.last < uint64(len(w.clients)) && w.clients[w.last] == c {
		return w.last
	}
	i, ok := w.index[c]
	if !ok {
		if w.index == nil {
			w.index = make(map[string]uint64)
		}
		i = uint64(len(w.clients))
		w.clients = append(w.clients, c)
		w.index[c] = i
	}
	w.last = i
	return i
}

// bytes returns the finished window encoding (nil for an empty window).
func (w *windowEncoder) bytes() []byte {
	if w.n == 0 {
		return nil
	}
	size := 2*binary.MaxVarintLen64 + len(w.keys)
	for _, c := range w.clients {
		size += binary.MaxVarintLen64 + len(c)
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, uint64(len(w.clients)))
	for _, c := range w.clients {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
	}
	out = binary.AppendUvarint(out, w.n)
	return append(out, w.keys...)
}

// windowReader walks a window encoding; the first failure sticks.
type windowReader struct {
	b   []byte
	err error
}

func (r *windowReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errBadWindow
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *windowReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errBadWindow
		return 0
	}
	r.b = r.b[n:]
	return v
}

// decodeWindow parses a window encoding back into its keys, in order. The
// bytes come off the network, so every count and index is checked against
// what remains before anything is allocated.
func decodeWindow(b []byte) ([]opKey, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := windowReader{b: b}
	nc := r.uvarint()
	if r.err != nil || nc > uint64(len(r.b)) { // each entry is ≥ 1 byte
		return nil, errBadWindow
	}
	clients := make([]string, nc)
	for i := range clients {
		l := r.uvarint()
		if r.err != nil || l > uint64(len(r.b)) {
			return nil, errBadWindow
		}
		clients[i] = cdr.Intern(r.b[:l])
		r.b = r.b[l:]
	}
	nk := r.uvarint()
	if r.err != nil || nk > uint64(len(r.b)/minWindowKey) {
		return nil, errBadWindow
	}
	keys := make([]opKey, nk)
	var prevOp uint64
	for i := range keys {
		ci := r.uvarint()
		parent := r.uvarint()
		delta := r.varint()
		if r.err != nil || ci >= nc {
			return nil, errBadWindow
		}
		prevOp += uint64(delta)
		keys[i] = opKey{ClientID: clients[ci], ParentSeq: parent, OpSeq: prevOp}
	}
	if len(r.b) != 0 {
		return nil, errBadWindow
	}
	return keys, nil
}
