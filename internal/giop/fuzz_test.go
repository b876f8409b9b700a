package giop

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cdr"
)

// FuzzUnmarshal runs the GIOP frame decoder over arbitrary bytes. The
// copying decode (Unmarshal) and the zero-copy decode of the pooled read
// path must agree field for field on every input, error or not; a decoded
// message must survive a Marshal/Unmarshal round trip; nothing may panic.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range []Message{
		sampleRequest(),
		&Reply{RequestID: 2, Status: ReplySystemException, Body: SystemException{RepoID: ExcCommFailure, Minor: 1, Completed: CompletedMaybe}.Encode()},
		&Reply{RequestID: 3, Contexts: []ServiceContext{{ID: SvcFTGroupVersion, Data: FTGroupVersion{Version: 3}.Encode()}}},
		&CancelRequest{RequestID: 3},
		&LocateRequest{RequestID: 4, ObjectKey: []byte("where")},
		&LocateReply{RequestID: 6, Status: LocateForward, Body: []byte("ref")},
		&CloseConnection{},
		&MessageError{},
	} {
		f.Add(Marshal(m))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		ref, refErr := Unmarshal(frame)
		zc, zcErr := unmarshal(bytes.Clone(frame), true)
		if (refErr == nil) != (zcErr == nil) {
			t.Fatalf("zero-copy decode error %v, copying decode error %v", zcErr, refErr)
		}
		if refErr != nil {
			return
		}
		if !reflect.DeepEqual(normalized(zc), normalized(ref)) {
			t.Fatalf("zero-copy decode disagrees:\n got %+v\nwant %+v", zc, ref)
		}
		again, err := Unmarshal(Marshal(ref))
		if err != nil {
			t.Fatalf("re-marshalled %T does not decode: %v", ref, err)
		}
		if !reflect.DeepEqual(normalized(again), normalized(ref)) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, ref)
		}
	})
}

// normalized returns a deep copy of a decoded message with every empty
// slice set to nil: decoders may leave either, and the difference is not a
// field value.
func normalized(m Message) any {
	v := reflect.New(reflect.TypeOf(m).Elem())
	v.Elem().Set(normalize(reflect.ValueOf(m).Elem()))
	return v.Interface()
}

func normalize(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return reflect.Zero(v.Type())
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(normalize(v.Index(i)))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(normalize(v.Field(i)))
		}
		return out
	}
	return v
}

// FuzzFTContexts runs the FT service-context and system-exception body
// decoders over arbitrary bytes: nothing may panic, and whatever one of
// them decodes must re-encode to bytes that decode to the same value.
func FuzzFTContexts(f *testing.F) {
	for _, b := range [][]byte{
		FTRequest{ClientID: "client-7", RetentionID: 42, ExpirationTicks: 9}.Encode(),
		FTGroupVersion{Version: 3}.Encode(),
		OperationID{MsgSeq: 100, ParentSeq: 75, OpSeq: 5}.Encode(),
		SystemException{RepoID: ExcCommFailure, Minor: 1, Completed: CompletedMaybe}.Encode(),
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, err := DecodeFTRequest(b); err == nil {
			if again, err := DecodeFTRequest(v.Encode()); err != nil || again != v {
				t.Fatalf("FT_REQUEST %+v re-decodes as %+v, %v", v, again, err)
			}
		}
		if v, err := DecodeFTGroupVersion(b); err == nil {
			if again, err := DecodeFTGroupVersion(v.Encode()); err != nil || again != v {
				t.Fatalf("FT_GROUP_VERSION %+v re-decodes as %+v, %v", v, again, err)
			}
		}
		if v, err := DecodeOperationID(b); err == nil {
			if again, err := DecodeOperationID(v.Encode()); err != nil || again != v {
				t.Fatalf("OperationID %+v re-decodes as %+v, %v", v, again, err)
			}
		}
		for _, order := range []byte{cdr.BigEndian, cdr.LittleEndian} {
			if v, err := DecodeSystemException(b, order); err == nil {
				if again, err := DecodeSystemException(v.Encode(), cdr.BigEndian); err != nil || again != v {
					t.Fatalf("system exception %+v re-decodes as %+v, %v", v, again, err)
				}
			}
		}
	})
}

// FuzzReadMessage reads GIOP messages from an arbitrary byte stream until
// the reader fails, fragment reassembly included. Nothing may panic, and
// the reader must allocate in proportion to the stream, not to the sizes
// its headers claim.
func FuzzReadMessage(f *testing.F) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	w.MaxFrame = 16
	for _, m := range []Message{sampleRequest(), &Reply{RequestID: 2, Body: bytes.Repeat([]byte{7}, 40)}, &CloseConnection{}} {
		if err := w.WriteMessage(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	huge := Marshal(&CancelRequest{RequestID: 1})
	huge[8], huge[9], huge[10], huge[11] = 0x0F, 0xFF, 0xFF, 0xFF // claims 256 MiB
	f.Add(huge)
	orphan := Marshal(&CancelRequest{RequestID: 1})
	orphan[7] = byte(MsgFragment)
	f.Add(orphan)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.ReadMessage(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(data))+256<<10; alloc > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), alloc, limit)
		}
	})
}
