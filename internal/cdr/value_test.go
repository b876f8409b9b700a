package cdr

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func allScalarValues() []Value {
	return []Value{
		Void(),
		Bool(true), Bool(false),
		Octet(0), Octet(255),
		Short(-32768), Short(32767),
		UShort(0), UShort(65535),
		Long(-2147483648), Long(2147483647),
		ULong(0), ULong(4294967295),
		LongLong(-9223372036854775808), LongLong(9223372036854775807),
		ULongLong(0), ULongLong(18446744073709551615),
		Float(3.5), Float(-0.25),
		Double(2.718281828), Double(-1e300),
		Str(""), Str("invocation"),
		OctetSeq(nil), OctetSeq([]byte{1, 2, 3}),
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := allScalarValues()
	vals = append(vals, Seq(Long(1), Str("nested"), Seq(Bool(true))))
	for _, order := range []byte{BigEndian, LittleEndian} {
		for _, v := range vals {
			e := NewEncoder(order)
			EncodeValue(e, v)
			d := NewDecoder(e.Bytes(), order)
			got, err := DecodeValue(d)
			if err != nil {
				t.Fatalf("DecodeValue(%v): %v", v, err)
			}
			if !got.Equal(v) {
				t.Errorf("round trip of %v gave %v", v, got)
			}
		}
	}
}

func TestValuesRoundTrip(t *testing.T) {
	body := []Value{Str("deposit"), Double(12.5), Long(-3), OctetSeq([]byte{0xCA, 0xFE})}
	e := NewEncoder(BigEndian)
	EncodeValues(e, body)
	d := NewDecoder(e.Bytes(), BigEndian)
	got, err := DecodeValues(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(body) {
		t.Fatalf("got %d values, want %d", len(got), len(body))
	}
	for i := range body {
		if !got[i].Equal(body[i]) {
			t.Errorf("value %d: got %v, want %v", i, got[i], body[i])
		}
	}
}

func TestDecodeValueUnknownKind(t *testing.T) {
	d := NewDecoder([]byte{0xEE}, BigEndian)
	if _, err := DecodeValue(d); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestValueAccessors(t *testing.T) {
	if Short(-7).AsShort() != -7 {
		t.Error("AsShort")
	}
	if Long(-70000).AsLong() != -70000 {
		t.Error("AsLong")
	}
	if LongLong(-1<<40).AsLongLong() != -1<<40 {
		t.Error("AsLongLong")
	}
	if ULong(4000000000).AsULong() != 4000000000 {
		t.Error("AsULong")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat")
	}
	if Str("x").AsString() != "x" {
		t.Error("AsString")
	}
	if Octet(9).AsOctet() != 9 {
		t.Error("AsOctet")
	}
	if UShort(99).AsUShort() != 99 {
		t.Error("AsUShort")
	}
	if Double(0.5).AsDouble() != 0.5 {
		t.Error("AsDouble")
	}
	if ULongLong(12).AsULongLong() != 12 {
		t.Error("AsULongLong")
	}
	if !Bool(true).AsBool() {
		t.Error("AsBool")
	}
	if len(OctetSeq([]byte{1}).AsOctetSeq()) != 1 {
		t.Error("AsOctetSeq")
	}
	if len(Seq(Void()).AsSeq()) != 1 {
		t.Error("AsSeq")
	}
}

func TestValueEqualDifferentKinds(t *testing.T) {
	if Long(1).Equal(ULong(1)) {
		t.Error("different kinds must not be equal")
	}
	if Seq(Long(1)).Equal(Seq(Long(2))) {
		t.Error("different nested payloads must not be equal")
	}
	if Seq(Long(1)).Equal(Seq(Long(1), Long(2))) {
		t.Error("different lengths must not be equal")
	}
	if OctetSeq([]byte{1}).Equal(OctetSeq([]byte{2})) {
		t.Error("different bytes must not be equal")
	}
	if OctetSeq([]byte{1}).Equal(OctetSeq([]byte{1, 2})) {
		t.Error("different byte lengths must not be equal")
	}
}

func TestValueStringNonEmpty(t *testing.T) {
	vals := allScalarValues()
	vals = append(vals, Seq(Long(1)))
	for _, v := range vals {
		if v.String() == "" {
			t.Errorf("empty String() for kind %v", v.Kind)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind String() empty")
	}
}

// randomValue builds a random Value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(14)
	if depth <= 0 && k == 13 {
		k = 5
	}
	switch k {
	case 0:
		return Void()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Octet(byte(r.Uint32()))
	case 3:
		return Short(int16(r.Uint32()))
	case 4:
		return UShort(uint16(r.Uint32()))
	case 5:
		return Long(int32(r.Uint32()))
	case 6:
		return ULong(r.Uint32())
	case 7:
		return LongLong(int64(r.Uint64()))
	case 8:
		return ULongLong(r.Uint64())
	case 9:
		return Float(r.Float32())
	case 10:
		return Double(r.Float64())
	case 11:
		b := make([]byte, r.Intn(32))
		r.Read(b)
		return Str(string(b))
	case 12:
		b := make([]byte, r.Intn(64))
		r.Read(b)
		return OctetSeq(b)
	default:
		n := r.Intn(4)
		seq := make([]Value, n)
		for i := range seq {
			seq[i] = randomValue(r, depth-1)
		}
		return Value{Kind: KindSeq, Seq: seq}
	}
}

// TestValueRoundTripQuick property-tests EncodeValue/DecodeValue over
// randomly generated (possibly nested) values.
func TestValueRoundTripQuick(t *testing.T) {
	f := func(seed int64, littleOrder bool) bool {
		r := rand.New(rand.NewSource(seed))
		order := byte(BigEndian)
		if littleOrder {
			order = LittleEndian
		}
		v := randomValue(r, 3)
		e := NewEncoder(order)
		EncodeValue(e, v)
		d := NewDecoder(e.Bytes(), order)
		got, err := DecodeValue(d)
		return err == nil && got.Equal(v) && d.Remaining() == 0
	}
	cfg := &quick.Config{MaxCount: 400}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestValueEqualReflexiveQuick checks Equal is reflexive and agrees with
// reflect.DeepEqual on freshly decoded copies.
func TestValueEqualReflexiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 2)
		if !v.Equal(v) {
			return false
		}
		e := NewEncoder(BigEndian)
		EncodeValue(e, v)
		d := NewDecoder(e.Bytes(), BigEndian)
		got, err := DecodeValue(d)
		if err != nil {
			return false
		}
		// Decoded copy must be structurally identical apart from nil/empty
		// slice normalization.
		return got.Equal(v) && v.Equal(got) || reflect.DeepEqual(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeValuesRefusesUnbackedCount: a sequence count the remaining
// bytes cannot hold is refused before anything is sized by it.
func TestDecodeValuesRefusesUnbackedCount(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(1 << 20) // a million values promised, none present
	top := e.Bytes()
	nested := append([]byte{0, 0, 0, 1, byte(KindSeq), 0, 0, 0}, top...) // one seq value, padded to its count
	for name, b := range map[string][]byte{"values": top, "nested seq": nested} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeValues(NewDecoder(b, BigEndian))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err %v, want ErrTruncated", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(b), grew)
		}
	}
}

// encodeValues is the canonical encoding of vs.
func encodeValues(vs []Value, order byte) []byte {
	e := NewEncoder(order)
	EncodeValues(e, vs)
	return e.Bytes()
}

// FuzzDecodeValues runs the value-sequence decoder (a request body or
// reply result) over arbitrary bytes in both byte orders. The copying and
// zero-copy decodes must agree, and a decoded sequence must re-encode to
// bytes that decode back to the same encoding; nothing may panic.
func FuzzDecodeValues(f *testing.F) {
	vals := append(allScalarValues(), Seq(Long(1), Str("nested"), Seq(Bool(true), OctetSeq([]byte{9}))))
	for _, order := range []byte{BigEndian, LittleEndian} {
		f.Add(encodeValues(vals, order), order == LittleEndian)
		f.Add(encodeValues(nil, order), order == LittleEndian)
	}
	f.Fuzz(func(t *testing.T, b []byte, little bool) {
		order := byte(BigEndian)
		if little {
			order = LittleEndian
		}
		vs, err := DecodeValues(NewDecoder(b, order))
		zd := NewDecoder(b, order)
		zd.SetZeroCopy(true)
		zvs, zerr := DecodeValues(zd)
		if (err == nil) != (zerr == nil) {
			t.Fatalf("copying decode error %v, zero-copy decode error %v", err, zerr)
		}
		if err != nil {
			return
		}
		enc := encodeValues(vs, order)
		if zenc := encodeValues(zvs, order); !bytes.Equal(enc, zenc) {
			t.Fatalf("zero-copy decode disagrees:\n got %v\nwant %v", zvs, vs)
		}
		again, err := DecodeValues(NewDecoder(enc, order))
		if err != nil {
			t.Fatalf("re-encoded values do not decode: %v", err)
		}
		if enc2 := encodeValues(again, order); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", enc, enc2)
		}
	})
}

// TestRegionMatchesSeparateEncoding: values encoded in place as a region
// produce the bytes of encoding them into a buffer of their own and
// writing that with WriteOctetSeq, at every offset modulo 8 the region
// can start at, in both byte orders, with a region nested inside it and
// 8-aligned fields after both.
func TestRegionMatchesSeparateEncoding(t *testing.T) {
	body := append(allScalarValues(), Seq(Long(1), Str("nested"), Seq(Bool(true), OctetSeq([]byte{9}))))
	for _, order := range []byte{BigEndian, LittleEndian} {
		sep := NewEncoder(order)
		EncodeValues(sep, body)
		sep.WriteOctetSeq(encodeValues(body[:3], order))
		sep.WriteDouble(0.5)
		for prefix := 0; prefix < 8; prefix++ {
			want := NewEncoder(order)
			want.WriteRaw(make([]byte, prefix))
			want.WriteOctetSeq(sep.Bytes())
			want.WriteULongLong(7)

			got := GetEncoder(order)
			got.WriteRaw(make([]byte, prefix))
			outer := got.BeginRegion()
			EncodeValues(got, body)
			inner := got.BeginRegion()
			EncodeValues(got, body[:3])
			got.EndRegion(inner)
			got.WriteDouble(0.5)
			start, end := got.EndRegion(outer)
			got.WriteULongLong(7)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("order %d, prefix %d: region encoding\n got %x\nwant %x", order, prefix, got.Bytes(), want.Bytes())
			}
			if !bytes.Equal(got.Bytes()[start:end], sep.Bytes()) {
				t.Fatalf("order %d, prefix %d: region offsets [%d,%d) do not frame the contents", order, prefix, start, end)
			}
			got.Release()
		}
	}
}

// TestAppendValuesIntoRoom: decoding into a slice with room, zero-copy,
// allocates nothing (octet sequences alias the input); without room it
// allocates the slice once; with a nil destination it is DecodeValues.
func TestAppendValuesIntoRoom(t *testing.T) {
	vals := []Value{ULongLong(9), OctetSeq([]byte{1, 2, 3}), Double(0.5)}
	b := encodeValues(vals, BigEndian)
	var room [4]Value
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(b, BigEndian)
		d.SetZeroCopy(true)
		got, err := AppendValues(room[:0], d)
		if err != nil || len(got) != len(vals) || &got[0] != &room[0] {
			t.Fatalf("AppendValues = %v, %v; want the values in room", got, err)
		}
	})
	if allocs != 0 {
		t.Errorf("zero-copy AppendValues into room: %.0f allocs, want 0", allocs)
	}
	got, err := AppendValues(room[:2], NewDecoder(b, BigEndian))
	if err != nil || len(got) != 5 || !got[4].Equal(vals[2]) {
		t.Fatalf("AppendValues past room = %v, %v", got, err)
	}
	if empty, err := AppendValues(nil, NewDecoder(encodeValues(nil, BigEndian), BigEndian)); err != nil || empty == nil {
		t.Fatalf("AppendValues(nil) of no values = %#v, %v; want an empty non-nil slice like DecodeValues", empty, err)
	}
}
