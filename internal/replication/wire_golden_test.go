package replication

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
)

// goldenCase is one wire message whose encoding is pinned byte for byte.
// An invocation with call set is written the way a proxy writes one (its
// arguments as the Args body); a reply with exec set is written the way an
// execution writes one (results or error as the Body); anything else goes
// through encodeWire.
type goldenCase struct {
	name    string
	msg     any
	call    bool // msg is a *msgInvocation carrying args
	args    []cdr.Value
	exec    bool // msg is a *msgReply carrying results/err
	results []cdr.Value
	err     error
}

func goldenCases() []goldenCase {
	k := opKey{ClientID: "c:n1.k3", ParentSeq: 0, OpSeq: 41}
	nested := opKey{ClientID: "g:12", ParentSeq: 77, OpSeq: 2}
	mixed := []cdr.Value{
		cdr.ULongLong(0x0102030405060708),
		cdr.Double(-2.75),
		cdr.Str("ledger"),
		cdr.OctetSeq([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}),
		cdr.Long(-9),
		cdr.Bool(true),
		cdr.Short(-3),
		cdr.Seq(cdr.ULong(7), cdr.OctetSeq(nil), cdr.LongLong(-1)),
		cdr.Float(1.5),
		cdr.Octet(9),
		cdr.UShort(65000),
		cdr.Void(),
	}
	return []goldenCase{
		{name: "invocation/mixed", call: true, msg: &msgInvocation{GroupID: 12, Key: k, Operation: "put", Done: 40}, args: mixed},
		{name: "invocation/octets", call: true, msg: &msgInvocation{GroupID: 3, Key: k, Operation: "echo", Done: 7},
			args: []cdr.Value{cdr.OctetSeq(bytes.Repeat([]byte{0x5a}, 37))}},
		{name: "invocation/no-args", call: true, msg: &msgInvocation{GroupID: 3, Key: k, Operation: "size"}, args: []cdr.Value{}},
		{name: "invocation/nil-args", call: true, msg: &msgInvocation{GroupID: 3, Key: k, Operation: "sync"}, args: nil},
		{name: "invocation/oneway-nested", call: true, msg: &msgInvocation{GroupID: 9, Key: nested, Operation: "settle", Oneway: true},
			args: []cdr.Value{cdr.ULongLong(5), cdr.Double(0.5)}},
		{name: "invocation/fulfillment", call: true, msg: &msgInvocation{GroupID: 9, Key: opKey{ClientID: "f:n3", OpSeq: 4}, Operation: "sellOrBackOrder", Fulfillment: true},
			args: []cdr.Value{cdr.Str("widget"), cdr.ULongLong(3)}},
		{name: "invocation/encoded", msg: &msgInvocation{GroupID: 12, Key: k, Operation: "put", Args: []byte{0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, Done: 40}},
		{name: "reply/results", msg: &msgReply{GroupID: 12, Key: k, Node: "n2", ExecMsgID: 1<<40 | 99}, exec: true, results: mixed},
		{name: "reply/octets", msg: &msgReply{GroupID: 3, Key: k, Node: "n3", ExecMsgID: 5},
			exec: true, results: []cdr.Value{cdr.OctetSeq(bytes.Repeat([]byte{0xa5}, 19))}},
		{name: "reply/void", msg: &msgReply{GroupID: 3, Key: k, Node: "n1", ExecMsgID: 6}, exec: true},
		{name: "reply/warm-update", msg: &msgReply{GroupID: 4, Key: k, Node: "n1", ExecMsgID: 8, Update: []byte("delta-bytes"), UpdateFull: true},
			exec: true, results: []cdr.Value{cdr.ULongLong(17)}},
		{name: "reply/user-exception", msg: &msgReply{GroupID: 12, Key: k, Node: "n2", ExecMsgID: 10}, exec: true,
			err: &orb.UserException{Name: "IDL:bank/Insufficient:1.0", Info: []cdr.Value{cdr.LongLong(-250), cdr.Str("short"), cdr.Double(3.25)}}},
		{name: "reply/system-exception", msg: &msgReply{GroupID: 12, Key: k, Node: "n3", ExecMsgID: 11}, exec: true,
			err: giop.SystemException{RepoID: giop.ExcTimeout, Minor: 3, Completed: giop.CompletedMaybe}},
		{name: "reply/internal-error", msg: &msgReply{GroupID: 12, Key: k, Node: "n3", ExecMsgID: 12}, exec: true,
			err: errors.New("servant failed")},
		{name: "reply/encoded", msg: &msgReply{GroupID: 1, Key: k, Status: replyOK, Body: []byte{0, 0, 0, 1, 7, 0, 0, 0, 4}, Node: "n1", ExecMsgID: 5}},
		{name: "checkpoint", msg: &msgCheckpoint{GroupID: 1, Reason: ckptJoin, UpToMsgID: 7, State: []byte("state"),
			Covered: encodeWindowWith([]opKey{{ClientID: "c:n1.a", OpSeq: 12}}, []horizon{{ClientID: "c:n1.a", Retired: 11}}), LfSeq: 3}},
		{name: "checkpoint/marker", msg: &msgCheckpoint{GroupID: 4, Reason: ckptMarker, UpToMsgID: 1<<40 | 77}},
		{name: "state-request", msg: &msgStateReq{GroupID: 1, From: "n2", LastExec: 6}},
		{name: "lf-order", msg: &msgLfOrder{GroupID: 1, Epoch: 2, Seq: 3, Leader: "n1", Key: k, Operation: "add", Args: []byte{0, 0, 0, 1, 6, 0, 0, 0, 0, 0, 0, 0, 9}, Done: 8}},
		{name: "lf-submit", msg: &msgLfSubmit{GroupID: 1, Key: k, Operation: "get", Args: []byte{0, 0, 0, 0}, ReadOnly: true, MinSeq: 4, From: "c", Done: 8}},
		{name: "lf-lease", msg: &msgLfLease{GroupID: 1, Epoch: 2, Leader: "n1", Dur: 150 * time.Millisecond}},
	}
}

// TestWireGolden pins the wire encoding of every message kind byte for
// byte against testdata/wire_golden.txt, captured from the encoders that
// built each body in a buffer of its own and copied it into the message
// (orb.EncodeRequestBody, then encodeWire; the reply body, then
// encodeReply). The typed writers now encode bodies in place, as regions
// of the message; totem deliveries, WAL records and DR segments carry
// these bytes, so they must not move. Invocation bodies here start at an
// offset that is not a multiple of 8 and hold 8-byte values, so a region
// aligned from the message start instead of its own first byte would
// differ. (A reply body always starts 8-aligned: the op key ends with two
// 8-byte values, then come the 4-byte status and the 4-byte length.)
func TestWireGolden(t *testing.T) {
	f, err := os.Open("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
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
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("golden file holds %d messages, the table %d", len(want), len(cases))
	}
	for _, c := range cases {
		var raw, body []byte
		switch {
		case c.call:
			raw, body = encodeInvocation(c.msg.(*msgInvocation), c.args)
			if c.name == "invocation/mixed" && (len(raw)-len(body))%8 == 0 {
				t.Errorf("%s: Args body is 8-aligned in the message; the case no longer checks region alignment", c.name)
			}
		case c.exec:
			v := c.msg.(*msgReply)
			raw, _ = encodeExecReply(v, c.results, c.err)
			body = v.Body
		default:
			raw, err = encodeWire(c.msg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if !bytes.Equal(raw, want[c.name]) {
			t.Errorf("%s: encoding changed\n got %x\nwant %x", c.name, raw, want[c.name])
			continue
		}
		m, err := decodeWire(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		switch v := m.(type) {
		case *msgInvocation:
			if c.call && !bytes.Equal(v.Args, body) {
				t.Errorf("%s: returned Args body %x, the message decodes to %x", c.name, body, v.Args)
			}
			if c.call {
				if args, err := orb.DecodeRequestBody(v.Args); err != nil || !cdr.Seq(args...).Equal(cdr.Seq(c.args...)) {
					t.Errorf("%s: args decode to %v, %v; want %v", c.name, args, err, c.args)
				}
			}
		case *msgReply:
			if c.exec {
				if !bytes.Equal(v.Body, body) || v.Status != c.msg.(*msgReply).Status {
					t.Errorf("%s: reply set Status %d Body %x, the message decodes to %d %x",
						c.name, c.msg.(*msgReply).Status, body, v.Status, v.Body)
				}
				results, err := wireToOutcome(v.Status, v.Body)
				if !cdr.Seq(results...).Equal(cdr.Seq(c.results...)) || (err == nil) != (c.err == nil) {
					t.Errorf("%s: outcome decodes to %v, %v; want %v, %v", c.name, results, err, c.results, c.err)
				}
			}
		}
	}
}
