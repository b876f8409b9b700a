package totem

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenPackets returns one packet of every kind the ring sends, named as
// in testdata/wire_golden.txt.
func goldenPackets() map[string]any {
	rid := RingID{Epoch: 4, Coord: "n1"}
	old := RingID{Epoch: 3, Coord: "n2"}
	return map[string]any{
		"hello":   &hello{From: "n2", MaxEpoch: 9},
		"propose": &propose{Ring: rid, Members: []string{"n1", "n2", "n3"}},
		"accept": &accept{Ring: rid, From: "n2", OldRing: old, Delivered: 17,
			Stored: []storedMsg{{Seq: 18, Group: "g", Sender: "n3", Payload: []byte{1, 2, 3}}},
			Groups: []string{"g", "og/7"}},
		"install": &install{Ring: rid, Members: []string{"n1", "n2"},
			Recovery: []recoverySet{{OldRing: old,
				Msgs: []storedMsg{{Seq: 18, Group: "g", Sender: "n3", Payload: []byte{1, 2}}}}},
			Subs: []groupSub{{Node: "n1", Group: "g"}, {Node: "n2", Group: "og/7"}}},
		"token": &token{Ring: rid, Round: 7, Seq: 100, Aru: 90, LastAru: 80, Rtr: []uint64{91, 95}},
		"frame": &dataBatch{Ring: rid, Sender: "n3", FirstSeq: 101,
			Groups: []string{"g", "og/7", ""}, Payloads: [][]byte{[]byte("alpha"), nil, {0xff}}},
		"nudge":  &nudge{Ring: rid, From: "n3"},
		"direct": &direct{From: "n3", Group: "g", Payload: []byte("reply")},
	}
}

// TestWireGolden pins the totem wire encoding of every packet kind byte
// for byte against testdata/wire_golden.txt, and checks that each pinned
// encoding decodes back to its packet. Rings of different builds share
// one wire, so a change here must be deliberate.
func TestWireGolden(t *testing.T) {
	f, err := os.Open("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hexed, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		if want[name], err = hex.DecodeString(hexed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	pkts := goldenPackets()
	if len(want) != len(pkts) {
		t.Fatalf("golden file holds %d packets, the table %d", len(want), len(pkts))
	}
	for name, p := range pkts {
		raw := mustEncodePacket(t, p)
		if !bytes.Equal(raw, want[name]) {
			t.Errorf("%s: encoding changed\n got %x\nwant %x", name, raw, want[name])
			continue
		}
		got, err := decodePacketIn(raw, false, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(normalized(got), normalized(p)) {
			t.Errorf("%s: decodes to %+v, want %+v", name, got, p)
		}
	}
}
