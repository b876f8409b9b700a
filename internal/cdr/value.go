package cdr

import (
	"errors"
	"fmt"
)

// Kind identifies the dynamic type of a Value, a simplified analogue of a
// CORBA TypeCode. Request and reply bodies are sequences of tagged Values so
// the infrastructure can marshal invocations without generated stubs.
type Kind uint8

// Supported value kinds. The set covers what the examples, experiments, and
// the FT infrastructure itself (state blobs, identifiers) need.
const (
	KindVoid Kind = iota + 1
	KindBool
	KindOctet
	KindShort
	KindUShort
	KindLong
	KindULong
	KindLongLong
	KindULongLong
	KindFloat
	KindDouble
	KindString
	KindOctetSeq
	KindSeq // sequence<Value>
)

var kindNames = map[Kind]string{
	KindVoid:      "void",
	KindBool:      "boolean",
	KindOctet:     "octet",
	KindShort:     "short",
	KindUShort:    "ushort",
	KindLong:      "long",
	KindULong:     "ulong",
	KindLongLong:  "longlong",
	KindULongLong: "ulonglong",
	KindFloat:     "float",
	KindDouble:    "double",
	KindString:    "string",
	KindOctetSeq:  "sequence<octet>",
	KindSeq:       "sequence<any>",
}

// String returns the IDL-ish name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrBadKind reports an unknown kind tag in marshaled data.
var ErrBadKind = errors.New("cdr: unknown value kind")

// Value is a self-describing datum: one wire-typed field is valid according
// to Kind. Values are small and passed by value.
type Value struct {
	Kind  Kind
	Bool  bool
	U64   uint64 // octet, ushort, ulong, ulonglong and signed widths (two's complement)
	F64   float64
	Str   string
	Bytes []byte
	Seq   []Value
}

// Constructors for each kind.

// Void returns the void value (used for result-less replies).
func Void() Value { return Value{Kind: KindVoid} }

// Bool wraps a boolean.
func Bool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// Octet wraps a byte.
func Octet(v byte) Value { return Value{Kind: KindOctet, U64: uint64(v)} }

// Short wraps an int16.
func Short(v int16) Value { return Value{Kind: KindShort, U64: uint64(uint16(v))} }

// UShort wraps a uint16.
func UShort(v uint16) Value { return Value{Kind: KindUShort, U64: uint64(v)} }

// Long wraps an int32.
func Long(v int32) Value { return Value{Kind: KindLong, U64: uint64(uint32(v))} }

// ULong wraps a uint32.
func ULong(v uint32) Value { return Value{Kind: KindULong, U64: uint64(v)} }

// LongLong wraps an int64.
func LongLong(v int64) Value { return Value{Kind: KindLongLong, U64: uint64(v)} }

// ULongLong wraps a uint64.
func ULongLong(v uint64) Value { return Value{Kind: KindULongLong, U64: v} }

// Float wraps a float32.
func Float(v float32) Value { return Value{Kind: KindFloat, F64: float64(v)} }

// Double wraps a float64.
func Double(v float64) Value { return Value{Kind: KindDouble, F64: v} }

// String wraps a string.
func Str(v string) Value { return Value{Kind: KindString, Str: v} }

// OctetSeq wraps a byte slice. The slice is referenced, not copied.
func OctetSeq(v []byte) Value { return Value{Kind: KindOctetSeq, Bytes: v} }

// Seq wraps a sequence of values. The slice is referenced, not copied.
func Seq(v ...Value) Value { return Value{Kind: KindSeq, Seq: v} }

// Accessors with two's-complement reinterpretation for signed kinds.

// AsBool returns the boolean payload.
func (v Value) AsBool() bool { return v.Bool }

// AsOctet returns the octet payload.
func (v Value) AsOctet() byte { return byte(v.U64) }

// AsShort returns the short payload.
func (v Value) AsShort() int16 { return int16(uint16(v.U64)) }

// AsUShort returns the unsigned short payload.
func (v Value) AsUShort() uint16 { return uint16(v.U64) }

// AsLong returns the long payload.
func (v Value) AsLong() int32 { return int32(uint32(v.U64)) }

// AsULong returns the unsigned long payload.
func (v Value) AsULong() uint32 { return uint32(v.U64) }

// AsLongLong returns the long long payload.
func (v Value) AsLongLong() int64 { return int64(v.U64) }

// AsULongLong returns the unsigned long long payload.
func (v Value) AsULongLong() uint64 { return v.U64 }

// AsFloat returns the float payload.
func (v Value) AsFloat() float32 { return float32(v.F64) }

// AsDouble returns the double payload.
func (v Value) AsDouble() float64 { return v.F64 }

// AsString returns the string payload.
func (v Value) AsString() string { return v.Str }

// AsOctetSeq returns the byte-sequence payload without copying.
func (v Value) AsOctetSeq() []byte { return v.Bytes }

// AsSeq returns the nested sequence without copying.
func (v Value) AsSeq() []Value { return v.Seq }

// Equal reports deep equality of two values (used by tests and voting).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindVoid:
		return true
	case KindBool:
		return v.Bool == o.Bool
	case KindFloat, KindDouble:
		return v.F64 == o.F64
	case KindString:
		return v.Str == o.Str
	case KindOctetSeq:
		if len(v.Bytes) != len(o.Bytes) {
			return false
		}
		for i := range v.Bytes {
			if v.Bytes[i] != o.Bytes[i] {
				return false
			}
		}
		return true
	case KindSeq:
		if len(v.Seq) != len(o.Seq) {
			return false
		}
		for i := range v.Seq {
			if !v.Seq[i].Equal(o.Seq[i]) {
				return false
			}
		}
		return true
	default:
		return v.U64 == o.U64
	}
}

// String renders the value for logs and error messages.
func (v Value) String() string {
	switch v.Kind {
	case KindVoid:
		return "void"
	case KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case KindFloat, KindDouble:
		return fmt.Sprintf("%g", v.F64)
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindOctetSeq:
		return fmt.Sprintf("octets[%d]", len(v.Bytes))
	case KindSeq:
		return fmt.Sprintf("seq[%d]", len(v.Seq))
	case KindShort:
		return fmt.Sprintf("%d", v.AsShort())
	case KindLong:
		return fmt.Sprintf("%d", v.AsLong())
	case KindLongLong:
		return fmt.Sprintf("%d", v.AsLongLong())
	default:
		return fmt.Sprintf("%d", v.U64)
	}
}

// EncodeValue writes the kind tag followed by the payload.
func EncodeValue(e *Encoder, v Value) {
	e.WriteOctet(byte(v.Kind))
	switch v.Kind {
	case KindVoid:
	case KindBool:
		e.WriteBool(v.Bool)
	case KindOctet:
		e.WriteOctet(byte(v.U64))
	case KindShort, KindUShort:
		e.WriteUShort(uint16(v.U64))
	case KindLong, KindULong:
		e.WriteULong(uint32(v.U64))
	case KindLongLong, KindULongLong:
		e.WriteULongLong(v.U64)
	case KindFloat:
		e.WriteFloat(float32(v.F64))
	case KindDouble:
		e.WriteDouble(v.F64)
	case KindString:
		e.WriteString(v.Str)
	case KindOctetSeq:
		e.WriteOctetSeq(v.Bytes)
	case KindSeq:
		e.WriteULong(uint32(len(v.Seq)))
		for _, elem := range v.Seq {
			EncodeValue(e, elem)
		}
	default:
		// Encoding an invalid kind is a programming error in the caller;
		// emit void so the stream stays decodable.
		e.buf[len(e.buf)-1] = byte(KindVoid)
	}
}

// DecodeValue reads one tagged value.
func DecodeValue(d *Decoder) (Value, error) {
	tag, err := d.ReadOctet()
	if err != nil {
		return Value{}, err
	}
	k := Kind(tag)
	switch k {
	case KindVoid:
		return Void(), nil
	case KindBool:
		b, err := d.ReadBool()
		return Bool(b), err
	case KindOctet:
		b, err := d.ReadOctet()
		return Octet(b), err
	case KindShort:
		v, err := d.ReadShort()
		return Short(v), err
	case KindUShort:
		v, err := d.ReadUShort()
		return UShort(v), err
	case KindLong:
		v, err := d.ReadLong()
		return Long(v), err
	case KindULong:
		v, err := d.ReadULong()
		return ULong(v), err
	case KindLongLong:
		v, err := d.ReadLongLong()
		return LongLong(v), err
	case KindULongLong:
		v, err := d.ReadULongLong()
		return ULongLong(v), err
	case KindFloat:
		v, err := d.ReadFloat()
		return Float(v), err
	case KindDouble:
		v, err := d.ReadDouble()
		return Double(v), err
	case KindString:
		v, err := d.ReadString()
		return Str(v), err
	case KindOctetSeq:
		v, err := d.ReadOctetSeq()
		return OctetSeq(v), err
	case KindSeq:
		n, err := readValueCount(d)
		if err != nil {
			return Value{}, err
		}
		seq := make([]Value, 0, n)
		for i := uint32(0); i < n; i++ {
			elem, err := DecodeValue(d)
			if err != nil {
				return Value{}, err
			}
			seq = append(seq, elem)
		}
		return Value{Kind: KindSeq, Seq: seq}, nil
	default:
		return Value{}, fmt.Errorf("%w: tag %d", ErrBadKind, tag)
	}
}

// readValueCount reads the count of a value sequence. It refuses a count
// the remaining bytes cannot hold — every value takes at least its tag
// byte — before the caller sizes an allocation by it: a five-byte input
// must not reserve gigabytes.
func readValueCount(d *Decoder) (uint32, error) {
	n, err := d.ReadULong()
	if err != nil {
		return 0, err
	}
	if n > MaxSeqLen {
		return 0, ErrSeqTooLong
	}
	if int(n) > d.Remaining() {
		return 0, ErrTruncated
	}
	return n, nil
}

// EncodeValues writes a counted sequence of values (a request body).
func EncodeValues(e *Encoder, vs []Value) {
	e.WriteULong(uint32(len(vs)))
	for _, v := range vs {
		EncodeValue(e, v)
	}
}

// DecodeValues reads a counted sequence of values.
func DecodeValues(d *Decoder) ([]Value, error) { return AppendValues(nil, d) }

// AppendValues reads a counted sequence of values and appends them to dst,
// allocating only when dst lacks the room: a caller decoding into storage
// it owns pays nothing for the slice. With a nil dst it is DecodeValues.
func AppendValues(dst []Value, d *Decoder) ([]Value, error) {
	n, err := readValueCount(d)
	if err != nil {
		return nil, err
	}
	if dst == nil || cap(dst)-len(dst) < int(n) {
		grown := make([]Value, len(dst), len(dst)+int(n))
		copy(grown, dst)
		dst = grown
	}
	for i := uint32(0); i < n; i++ {
		v, err := DecodeValue(d)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
