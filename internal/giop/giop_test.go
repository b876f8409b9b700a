package giop

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/cdr"
)

func sampleRequest() *Request {
	return &Request{
		RequestID:     77,
		ResponseFlags: ResponseExpected,
		ObjectKey:     []byte("group-42/replica-1"),
		Operation:     "deposit",
		Contexts: []ServiceContext{
			{ID: SvcFTRequest, Data: FTRequest{ClientID: "c1", RetentionID: 9, ExpirationTicks: 100}.Encode()},
			{ID: SvcOperationID, Data: OperationID{MsgSeq: 100, ParentSeq: 75, OpSeq: 4}.Encode()},
		},
		Body: []byte{1, 2, 3, 4, 5},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	m, err := Unmarshal(Marshal(req))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got, ok := m.(*Request)
	if !ok {
		t.Fatalf("got %T", m)
	}
	if got.RequestID != req.RequestID || got.Operation != req.Operation ||
		!bytes.Equal(got.ObjectKey, req.ObjectKey) || !bytes.Equal(got.Body, req.Body) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, req)
	}
	if len(got.Contexts) != 2 {
		t.Fatalf("contexts = %d", len(got.Contexts))
	}
	ft, err := DecodeFTRequest(FindContext(got.Contexts, SvcFTRequest))
	if err != nil || ft.ClientID != "c1" || ft.RetentionID != 9 {
		t.Errorf("FT_REQUEST = %+v, %v", ft, err)
	}
	op, err := DecodeOperationID(FindContext(got.Contexts, SvcOperationID))
	if err != nil || op.MsgSeq != 100 || op.ParentSeq != 75 || op.OpSeq != 4 {
		t.Errorf("OperationID = %+v, %v", op, err)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rep := &Reply{
		RequestID: 77,
		Status:    ReplyNoException,
		Contexts:  []ServiceContext{{ID: SvcFTGroupVersion, Data: FTGroupVersion{Version: 3}.Encode()}},
		Body:      []byte{9, 9, 9},
	}
	m, err := Unmarshal(Marshal(rep))
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Reply)
	if got.RequestID != 77 || got.Status != ReplyNoException || !bytes.Equal(got.Body, rep.Body) {
		t.Errorf("reply mismatch: %+v", got)
	}
	gv, err := DecodeFTGroupVersion(FindContext(got.Contexts, SvcFTGroupVersion))
	if err != nil || gv.Version != 3 {
		t.Errorf("group version = %+v, %v", gv, err)
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	msgs := []Message{
		&Request{RequestID: 1, Operation: "op", ObjectKey: []byte("k")},
		&Reply{RequestID: 2, Status: ReplySystemException, Body: SystemException{RepoID: ExcCommFailure, Minor: 1, Completed: CompletedMaybe}.Encode()},
		&CancelRequest{RequestID: 3},
		&LocateRequest{RequestID: 4, ObjectKey: []byte("where")},
		&LocateReply{RequestID: 5, Status: LocateHere},
		&LocateReply{RequestID: 6, Status: LocateForward, Body: []byte("ref")},
		&CloseConnection{},
		&MessageError{},
	}
	for _, m := range msgs {
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(m) {
			t.Errorf("type changed: %T -> %T", m, got)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("GIO")); err != cdr.ErrTruncated {
		t.Errorf("short: %v", err)
	}
	bad := Marshal(&CancelRequest{RequestID: 1})
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	bad2 := Marshal(&CancelRequest{RequestID: 1})
	bad2[4] = 9
	if _, err := Unmarshal(bad2); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	bad3 := Marshal(&CancelRequest{RequestID: 1})
	bad3[7] = 99
	if _, err := Unmarshal(bad3); err == nil {
		t.Error("bad type: want error")
	}
}

func TestStreamSingleFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	req := sampleRequest()
	if err := w.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	m, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Request); got.Operation != "deposit" {
		t.Errorf("operation = %q", got.Operation)
	}
}

func TestStreamFragmentation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.MaxFrame = 64 // force many fragments
	big := make([]byte, 1000)
	for i := range big {
		big[i] = byte(i)
	}
	req := &Request{RequestID: 5, Operation: "bulk", ObjectKey: []byte("k"), Body: big}
	if err := w.WriteMessage(req); err != nil {
		t.Fatal(err)
	}
	// More than one frame must have been emitted.
	if buf.Len() <= HeaderLen+64+len(big)-64 {
		t.Logf("stream length %d", buf.Len())
	}
	r := NewReader(&buf)
	m, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Request)
	if !bytes.Equal(got.Body, big) {
		t.Fatalf("fragmented body corrupted: %d vs %d bytes", len(got.Body), len(big))
	}
	if got.RequestID != 5 || got.Operation != "bulk" {
		t.Errorf("header fields corrupted: %+v", got)
	}
}

// A frame larger than DefaultMaxFrame, as a peer with a larger frame
// limit sends it, reads whole, through both read paths; cut short, it
// fails.
func TestStreamLargeFrame(t *testing.T) {
	big := make([]byte, 5*DefaultMaxFrame+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.MaxFrame = len(big) + 1024 // one frame
	if err := w.WriteMessage(&Request{RequestID: 9, Operation: "bulk", ObjectKey: []byte("k"), Body: big}); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	m, err := NewReader(bytes.NewReader(stream)).ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Request); !bytes.Equal(got.Body, big) {
		t.Fatalf("body of %d bytes read back as %d", len(big), len(got.Body))
	}
	m, frame, err := NewReader(bytes.NewReader(stream)).ReadMessagePooled()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Request); !bytes.Equal(got.Body, big) {
		t.Fatalf("pooled read: body of %d bytes read back as %d", len(big), len(got.Body))
	}
	ReleaseFrame(frame)
	if _, err := NewReader(bytes.NewReader(stream[:len(stream)-1])).ReadMessage(); err == nil {
		t.Fatal("a frame cut short read without error")
	}
}

func TestStreamMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint32(0); i < 10; i++ {
		if err := w.WriteMessage(&CancelRequest{RequestID: i}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := uint32(0); i < 10; i++ {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*CancelRequest); got.RequestID != i {
			t.Fatalf("message %d: id %d", i, got.RequestID)
		}
	}
}

func TestOrphanFragmentRejected(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	writeHeader(e, MsgFragment, 0, false)
	frame := e.Bytes()
	patchSize(frame)
	r := NewReader(bytes.NewReader(frame))
	if _, err := r.ReadMessage(); err != ErrOrphanFrag {
		t.Fatalf("got %v, want ErrOrphanFrag", err)
	}
}

func TestSystemExceptionRoundTrip(t *testing.T) {
	exc := SystemException{RepoID: ExcObjectNotExist, Minor: 2, Completed: CompletedNo}
	got, err := DecodeSystemException(exc.Encode(), cdr.BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if got != exc {
		t.Errorf("got %+v, want %+v", got, exc)
	}
	if exc.Error() == "" {
		t.Error("empty Error()")
	}
}

func TestOperationIDKeyEquality(t *testing.T) {
	// Duplicate invocations differ in MsgSeq but share the operation key —
	// the core of Eternal's duplicate suppression.
	a := OperationID{MsgSeq: 100, ParentSeq: 75, OpSeq: 5}
	b := OperationID{MsgSeq: 152, ParentSeq: 75, OpSeq: 5}
	if a.Key() != b.Key() {
		t.Error("duplicates must share operation key")
	}
	c := OperationID{MsgSeq: 100, ParentSeq: 75, OpSeq: 6}
	if a.Key() == c.Key() {
		t.Error("distinct operations must not share key")
	}
	if a.String() != "<100 75 5>" {
		t.Errorf("String = %q", a.String())
	}
}

func TestFTContextRoundTripQuick(t *testing.T) {
	f := func(client string, retention, exp, msgSeq, parentSeq uint64, opSeq, ver uint32) bool {
		client = sanitize(client)
		ft := FTRequest{ClientID: client, RetentionID: retention, ExpirationTicks: exp}
		gotFT, err := DecodeFTRequest(ft.Encode())
		if err != nil || gotFT != ft {
			return false
		}
		op := OperationID{MsgSeq: msgSeq, ParentSeq: parentSeq, OpSeq: opSeq}
		gotOp, err := DecodeOperationID(op.Encode())
		if err != nil || gotOp != op {
			return false
		}
		gv := FTGroupVersion{Version: ver}
		gotGV, err := DecodeFTGroupVersion(gv.Encode())
		return err == nil && gotGV == gv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] == 0 {
			b[i] = '_'
		}
	}
	return string(b)
}

func TestFindContextMissing(t *testing.T) {
	if FindContext(nil, SvcFTRequest) != nil {
		t.Error("want nil for missing context")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgRequest.String() != "Request" || MsgFragment.String() != "Fragment" {
		t.Error("names wrong")
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type name empty")
	}
}

// A reply that claims more service contexts than its bytes can hold fails
// before anything is sized by the claim: 24 bytes (the header, the request
// id, the status and a count of 4096) must not allocate the 128 KiB that
// 4096 contexts would take.
func TestContextCountBoundedByBytesLeft(t *testing.T) {
	frame := Marshal(&Reply{RequestID: 1})
	if len(frame) != 24 {
		t.Fatalf("a reply with no contexts is %d bytes, want 24", len(frame))
	}
	frame[20], frame[21], frame[22], frame[23] = 0, 0, 0x10, 0 // 4096 contexts, big-endian
	if _, err := Unmarshal(frame); err == nil {
		t.Fatal("4096 contexts in 0 bytes decoded")
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = Unmarshal(frame)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4<<10 {
		t.Fatalf("a refused 24-byte reply allocated %d bytes", perRun)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestMarshalAllocs pins Marshal of a request to the frame it returns: a
// 256-byte body with an FT_REQUEST context and a 16 KiB body each take that
// one allocation, since the encoder is sized for the frame up front. A
// copy of the finished frame, or a seed buffer replaced by a larger one,
// would add one to each.
func TestMarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	small := &Request{
		RequestID:     7,
		ResponseFlags: ResponseExpected,
		ObjectKey:     []byte("og/42"),
		Operation:     "deposit",
		Contexts: []ServiceContext{
			{ID: SvcFTRequest, Data: FTRequest{ClientID: "c1", RetentionID: 9}.Encode()},
		},
		Body: make([]byte, 256),
	}
	large := &Request{
		RequestID:     7,
		ResponseFlags: ResponseExpected,
		ObjectKey:     []byte("og/42"),
		Operation:     "deposit",
		Body:          make([]byte, 16<<10),
	}
	for _, tc := range []struct {
		name   string
		req    *Request
		budget float64
	}{{"256B+FT_REQUEST", small, 1}, {"16KiB", large, 1}} {
		if got := testing.AllocsPerRun(200, func() { Marshal(tc.req) }); got > tc.budget {
			t.Errorf("Marshal %s request: %.0f allocs, want ≤ %.0f", tc.name, got, tc.budget)
		}
	}
}
