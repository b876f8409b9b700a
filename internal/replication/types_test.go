package replication

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// encodeWindow encodes keys the way a checkpoint sender does.
func encodeWindow(keys []opKey) []byte { return encodeWindowWith(keys, nil) }

// encodeWindowWith encodes keys followed by a horizon trailer.
func encodeWindowWith(keys []opKey, hz []horizon) []byte {
	var w windowEncoder
	for _, k := range keys {
		w.add(k)
	}
	for _, h := range hz {
		w.addHorizon(&clientTrack{id: h.ClientID, retired: h.Retired, evicted: h.Evicted})
	}
	return w.bytes()
}

// interleavedWindow is a full dedupRetain-sized window alternating between
// two root clients, as a group with two active callers accumulates.
func interleavedWindow() []opKey {
	keys := make([]opKey, dedupRetain)
	for i := range keys {
		client := "c:n1"
		if i%2 == 1 {
			client = "c:n2"
		}
		keys[i] = opKey{ClientID: client, OpSeq: uint64(i/2 + 1)}
	}
	return keys
}

// The checkpoint message carries the sender's duplicate-suppression window
// (Covered) so state-transfer adopters cannot re-execute covered
// operations; the round trip must preserve it exactly, order included, and
// the encoding must stay compact.
func TestCheckpointWireRoundTrip(t *testing.T) {
	nested := make([]opKey, 512)
	for i := range nested {
		nested[i] = opKey{ClientID: "g:7", ParentSeq: 90000 + uint64(i/3), OpSeq: uint64(i%3 + 1)}
	}
	cases := []struct {
		name string
		keys []opKey
		hz   []horizon
	}{
		{"empty", nil, nil},
		{"two clients", []opKey{
			{ClientID: "client-a", ParentSeq: 3, OpSeq: 17},
			{ClientID: "client-b", OpSeq: 1},
		}, nil},
		{"interleaved 4096", interleavedWindow(), nil},
		{"nested", nested, nil},
		{"opseq goes down", []opKey{
			{ClientID: "c:n1", OpSeq: 100},
			{ClientID: "c:n1", OpSeq: 5},
			{ClientID: "c:n1", OpSeq: 6},
			{ClientID: "c:n1", OpSeq: math.MaxUint64},
			{ClientID: "c:n1", OpSeq: 0},
		}, nil},
		{"horizons only", nil, []horizon{
			{ClientID: "c:n1.a", Retired: 41},
			{ClientID: "c:n2.b", Retired: 7, Evicted: 9},
			{ClientID: "c:n3.c", Evicted: math.MaxUint64},
		}},
		{"keys and horizons", []opKey{
			{ClientID: "c:n1.a", OpSeq: 42},
			{ClientID: "g:3", ParentSeq: 5, OpSeq: 1},
		}, []horizon{
			{ClientID: "c:n1.a", Retired: 41},
			{ClientID: "c:n9.z", Retired: 1 << 40},
		}},
	}
	for _, tc := range cases {
		in := &msgCheckpoint{
			GroupID: 9, Reason: ckptPeriodic, UpToMsgID: 1000, State: []byte{0, 1, 2},
			Covered: encodeWindowWith(tc.keys, tc.hz), LfSeq: 4,
		}
		raw, err := encodeWire(in)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got, err := decodeWire(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		out, ok := got.(*msgCheckpoint)
		if !ok {
			t.Fatalf("%s: decoded %T, want *msgCheckpoint", tc.name, got)
		}
		if out.GroupID != in.GroupID || out.Reason != in.Reason || out.UpToMsgID != in.UpToMsgID ||
			out.LfSeq != in.LfSeq || !bytes.Equal(out.State, in.State) || !bytes.Equal(out.Covered, in.Covered) {
			t.Errorf("%s: message mismatch: got %+v want %+v", tc.name, out, in)
		}
		win, err := decodeWindow(out.Covered)
		if err != nil {
			t.Fatalf("%s: decode window: %v", tc.name, err)
		}
		if !reflect.DeepEqual(win.keys, tc.keys) {
			t.Errorf("%s: window mismatch: got %d keys, want %d", tc.name, len(win.keys), len(tc.keys))
		}
		if !reflect.DeepEqual(win.horizons, tc.hz) {
			t.Errorf("%s: horizons mismatch: got %v, want %v", tc.name, win.horizons, tc.hz)
		}
		if n := len(tc.keys); n >= 256 && len(out.Covered) > 8*n {
			t.Errorf("%s: window is %d B for %d keys, want ≤ 8 B per key", tc.name, len(out.Covered), n)
		}
	}
}

// Window bytes come off the network: a malformed encoding must be
// rejected before any count read from it sizes an allocation.
func TestDecodeWindowRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"truncated varint", []byte{0x80}},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11)},
		{"client count past end", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"string length past end", []byte{1, 10, 'c'}},
		{"key count past end", []byte{1, 1, 'c', 100, 0, 0, 1}},
		{"huge key count", []byte{1, 1, 'c', 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 1}},
		{"client index outside table", []byte{1, 1, 'c', 1, 1, 0, 2}},
		{"truncated key", []byte{1, 1, 'c', 1, 0, 0}},
		{"missing horizon count", []byte{1, 1, 'c', 1, 0, 0, 2}},
		{"horizon count past end", []byte{1, 1, 'c', 0, 5, 0, 1, 1}},
		{"huge horizon count", []byte{1, 1, 'c', 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 1, 1}},
		{"horizon client outside table", []byte{1, 1, 'c', 0, 1, 1, 1, 1}},
		{"truncated horizon", []byte{1, 1, 'c', 0, 1, 0, 1}},
		{"horizon with neither mark", []byte{1, 1, 'c', 0, 1, 0, 0, 0}},
		{"trailing bytes", []byte{1, 1, 'c', 1, 0, 0, 2, 0, 9}},
	}
	for _, tc := range cases {
		if win, err := decodeWindow(tc.b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, win)
		}
	}
	if win, err := decodeWindow([]byte{1, 1, 'c', 1, 0, 0, 2, 0}); err != nil ||
		!reflect.DeepEqual(win, window{keys: []opKey{{ClientID: "c", OpSeq: 1}}}) {
		t.Errorf("well-formed window: got %+v, %v", win, err)
	}
	if win, err := decodeWindow([]byte{1, 1, 'c', 0, 1, 0, 3, 4}); err != nil ||
		!reflect.DeepEqual(win, window{horizons: []horizon{{ClientID: "c", Retired: 3, Evicted: 4}}}) {
		t.Errorf("well-formed horizon trailer: got %+v, %v", win, err)
	}
}

// wireSamples is one message of every wire kind.
func wireSamples() []any {
	k := opKey{ClientID: "c:n1", ParentSeq: 2, OpSeq: 9}
	return []any{
		&msgInvocation{GroupID: 1, Key: k, Operation: "add", Args: []byte{1, 2}, Oneway: true, Done: 8},
		&msgReply{GroupID: 1, Key: k, Status: replyOK, Body: []byte{3}, Node: "n1", ExecMsgID: 5, Update: []byte{4}, UpdateFull: true},
		&msgCheckpoint{GroupID: 1, Reason: ckptJoin, UpToMsgID: 7, State: []byte("state"), Covered: encodeWindow(interleavedWindow()), LfSeq: 3},
		&msgCheckpoint{GroupID: 1, Reason: ckptPeriodic, UpToMsgID: 9, State: []byte("s"), Covered: encodeWindowWith(
			[]opKey{{ClientID: "c:n1.a", OpSeq: 12}}, []horizon{{ClientID: "c:n1.a", Retired: 11}, {ClientID: "c:n2.b", Retired: 3, Evicted: 5}})},
		&msgCheckpoint{GroupID: 1, Reason: ckptMarker, UpToMsgID: 11},
		&msgStateReq{GroupID: 1, From: "n2", LastExec: 6},
		&msgLfOrder{GroupID: 1, Epoch: 2, Seq: 3, Leader: "n1", Key: k, Operation: "add", Args: []byte{5}, Done: 8},
		&msgLfSubmit{GroupID: 1, Key: k, Operation: "get", Args: []byte{}, ReadOnly: true, MinSeq: 4, From: "c", Done: 8},
		&msgReply{GroupID: 1, Key: k, Status: replyRedirect, Body: []byte("n1"), Node: "n2", ExecMsgID: 8},
		&msgLfLease{GroupID: 1, Epoch: 2, Leader: "n1", Dur: 150 * time.Millisecond},
	}
}

// decodeWire parses bytes from the network and the WAL: it must never
// panic, and whatever it accepts must survive a re-encode unchanged. A
// checkpoint's window, parsed only on adoption, gets the same property.
func FuzzDecodeWire(f *testing.F) {
	for _, m := range wireSamples() {
		raw, err := encodeWire(m)
		if err != nil {
			f.Fatalf("encode %T: %v", m, err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeWire(raw)
		if err != nil {
			return
		}
		again, err := encodeWire(m)
		if err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		back, err := decodeWire(again)
		if err != nil {
			t.Fatalf("re-decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the message: %+v → %+v", m, back)
		}
		ck, ok := m.(*msgCheckpoint)
		if !ok {
			return
		}
		win, err := decodeWindow(ck.Covered)
		if err != nil {
			return
		}
		if got, err := decodeWindow(encodeWindowWith(win.keys, win.horizons)); err != nil || !reflect.DeepEqual(got, win) {
			t.Fatalf("window round trip: got %+v, %v; want %+v", got, err, win)
		}
	})
}
