package replication

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// encodeWindow encodes keys the way a checkpoint sender does.
func encodeWindow(keys []opKey) []byte {
	var w windowEncoder
	for _, k := range keys {
		w.add(k)
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
	}{
		{"empty", nil},
		{"two clients", []opKey{
			{ClientID: "client-a", ParentSeq: 3, OpSeq: 17},
			{ClientID: "client-b", OpSeq: 1},
		}},
		{"interleaved 4096", interleavedWindow()},
		{"nested", nested},
		{"opseq goes down", []opKey{
			{ClientID: "c:n1", OpSeq: 100},
			{ClientID: "c:n1", OpSeq: 5},
			{ClientID: "c:n1", OpSeq: 6},
			{ClientID: "c:n1", OpSeq: math.MaxUint64},
			{ClientID: "c:n1", OpSeq: 0},
		}},
	}
	for _, tc := range cases {
		in := &msgCheckpoint{
			GroupID: 9, Reason: ckptPeriodic, UpToMsgID: 1000, State: []byte{0, 1, 2},
			Covered: encodeWindow(tc.keys), LfSeq: 4,
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
		keys, err := decodeWindow(out.Covered)
		if err != nil {
			t.Fatalf("%s: decode window: %v", tc.name, err)
		}
		if !reflect.DeepEqual(keys, tc.keys) {
			t.Errorf("%s: window mismatch: got %d keys, want %d", tc.name, len(keys), len(tc.keys))
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
		{"trailing bytes", []byte{1, 1, 'c', 1, 0, 0, 2, 9}},
	}
	for _, tc := range cases {
		if keys, err := decodeWindow(tc.b); err == nil {
			t.Errorf("%s: decoded %v, want an error", tc.name, keys)
		}
	}
	if keys, err := decodeWindow([]byte{1, 1, 'c', 1, 0, 0, 2}); err != nil ||
		!reflect.DeepEqual(keys, []opKey{{ClientID: "c", OpSeq: 1}}) {
		t.Errorf("well-formed window: got %v, %v", keys, err)
	}
}

// wireSamples is one message of every wire kind.
func wireSamples() []any {
	k := opKey{ClientID: "c:n1", ParentSeq: 2, OpSeq: 9}
	return []any{
		&msgInvocation{GroupID: 1, Key: k, Operation: "add", Args: []byte{1, 2}, Oneway: true},
		&msgReply{GroupID: 1, Key: k, Status: replyOK, Body: []byte{3}, Node: "n1", ExecMsgID: 5, Update: []byte{4}, UpdateFull: true},
		&msgCheckpoint{GroupID: 1, Reason: ckptJoin, UpToMsgID: 7, State: []byte("state"), Covered: encodeWindow(interleavedWindow()), LfSeq: 3},
		&msgStateReq{GroupID: 1, From: "n2", LastExec: 6},
		&msgLfOrder{GroupID: 1, Epoch: 2, Seq: 3, Leader: "n1", Key: k, Operation: "add", Args: []byte{5}},
		&msgLfSubmit{GroupID: 1, Key: k, Operation: "get", Args: []byte{}, ReadOnly: true, MinSeq: 4, From: "c"},
		&msgLfReply{GroupID: 1, Key: k, Status: replyRedirect, Body: []byte{6}, Node: "n2", Seq: 8, Redirect: "n1"},
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
		keys, err := decodeWindow(ck.Covered)
		if err != nil {
			return
		}
		if got, err := decodeWindow(encodeWindow(keys)); err != nil || !reflect.DeepEqual(got, keys) {
			t.Fatalf("window round trip: got %v, %v; want %v", got, err, keys)
		}
	})
}
