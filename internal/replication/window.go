package replication

import (
	"encoding/binary"
	"errors"

	"repro/internal/cdr"
)

// A checkpoint's duplicate-suppression window (msgCheckpoint.Covered) lists
// the keys of the executed operations its state includes, oldest record
// first, and a trailer with every root client's horizons (dedup.go). It
// travels as one compact octet sequence:
//
//	uvarint C                    number of distinct client ids
//	C × (uvarint len, len bytes) client table, in first-use order
//	uvarint N                    number of keys
//	N × (uvarint client index, uvarint ParentSeq, varint OpSeq delta)
//	uvarint H                    number of horizon entries
//	H × (uvarint client index, uvarint retired, uvarint evicted)
//
// The OpSeq delta is taken from the previous key (the first key's from
// zero) and zigzag-encoded, so a window of one client's consecutive
// operations costs 3 B per key. A window with neither keys nor horizons is
// zero bytes.
//
// Receivers keep the bytes as delivered and parse them only when they adopt
// the checkpoint, so the window costs an operational member nothing.

// errBadWindow reports a malformed window encoding.
var errBadWindow = errors.New("replication: malformed checkpoint window")

// minWindowKey is the smallest encoded key, and minWindowHorizon the
// smallest horizon entry: three one-byte varints each.
const (
	minWindowKey     = 3
	minWindowHorizon = 3
)

// window is a decoded checkpoint window.
type window struct {
	keys     []opKey
	horizons []horizon
}

// horizon is one root client's retired horizon and eviction mark.
type horizon struct {
	ClientID string
	Retired  uint64
	Evicted  uint64
}

// windowEncoder encodes a window in one pass over its keys.
type windowEncoder struct {
	clients []string
	index   map[string]uint64
	last    uint64 // table index of the previous key's client
	keys    []byte // encoded per-key records
	n       uint64
	prevOp  uint64
	hz      []byte // encoded horizon entries
	nh      uint64
}

func (w *windowEncoder) add(k opKey) {
	w.keys = binary.AppendUvarint(w.keys, w.clientIndex(k.ClientID))
	w.keys = binary.AppendUvarint(w.keys, k.ParentSeq)
	w.keys = binary.AppendVarint(w.keys, int64(k.OpSeq-w.prevOp))
	w.prevOp = k.OpSeq
	w.n++
}

// addHorizon appends c's horizons; a client with neither is skipped.
func (w *windowEncoder) addHorizon(c *clientTrack) {
	if c.retired == 0 && c.evicted == 0 {
		return
	}
	w.hz = binary.AppendUvarint(w.hz, w.clientIndex(c.id))
	w.hz = binary.AppendUvarint(w.hz, c.retired)
	w.hz = binary.AppendUvarint(w.hz, c.evicted)
	w.nh++
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
	if w.n == 0 && w.nh == 0 {
		return nil
	}
	size := 3*binary.MaxVarintLen64 + len(w.keys) + len(w.hz)
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
	out = append(out, w.keys...)
	out = binary.AppendUvarint(out, w.nh)
	return append(out, w.hz...)
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

// decodeWindow parses a window encoding back into its keys, in order, and
// its horizons. The bytes come off the network, so every count and index
// is checked against what remains before anything is allocated.
func decodeWindow(b []byte) (window, error) {
	var win window
	if len(b) == 0 {
		return win, nil
	}
	r := windowReader{b: b}
	nc := r.uvarint()
	if r.err != nil || nc > uint64(len(r.b)) { // each entry is ≥ 1 byte
		return win, errBadWindow
	}
	clients := make([]string, nc)
	for i := range clients {
		l := r.uvarint()
		if r.err != nil || l > uint64(len(r.b)) {
			return win, errBadWindow
		}
		clients[i] = cdr.Intern(r.b[:l])
		r.b = r.b[l:]
	}
	nk := r.uvarint()
	if r.err != nil || nk > uint64(len(r.b)/minWindowKey) {
		return win, errBadWindow
	}
	if nk > 0 {
		win.keys = make([]opKey, nk)
	}
	var prevOp uint64
	for i := range win.keys {
		ci := r.uvarint()
		parent := r.uvarint()
		delta := r.varint()
		if r.err != nil || ci >= nc {
			return window{}, errBadWindow
		}
		prevOp += uint64(delta)
		win.keys[i] = opKey{ClientID: clients[ci], ParentSeq: parent, OpSeq: prevOp}
	}
	nh := r.uvarint()
	if r.err != nil || nh > uint64(len(r.b)/minWindowHorizon) {
		return window{}, errBadWindow
	}
	if nh > 0 {
		win.horizons = make([]horizon, nh)
	}
	for i := range win.horizons {
		ci := r.uvarint()
		retired := r.uvarint()
		evicted := r.uvarint()
		if r.err != nil || ci >= nc || retired == 0 && evicted == 0 {
			return window{}, errBadWindow // (an entry with neither mark is never sent)
		}
		win.horizons[i] = horizon{ClientID: clients[ci], Retired: retired, Evicted: evicted}
	}
	if len(r.b) != 0 {
		return window{}, errBadWindow
	}
	return win, nil
}
