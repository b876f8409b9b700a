// Package cdr implements a Common Data Representation (CDR) style codec,
// the on-the-wire encoding used by GIOP/IIOP in CORBA systems.
//
// CDR encodes primitive values at naturally aligned offsets relative to the
// start of the enclosing message (or encapsulation) and supports both
// big-endian and little-endian byte orders; the producer writes in its
// native order and flags the order in the message header, so the consumer
// byte-swaps only when the orders differ ("receiver makes it right").
//
// The package provides an Encoder that appends to an internal buffer and a
// Decoder that consumes a byte slice, plus encapsulation helpers
// (EncodeEncapsulation / DecodeEncapsulation) used for tagged profile and
// service-context bodies.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Byte-order flags as carried in GIOP headers and encapsulations.
const (
	BigEndian    = 0x00
	LittleEndian = 0x01
)

// MaxSeqLen bounds decoded sequence/string lengths to guard against
// corrupt or hostile length prefixes allocating unbounded memory.
const MaxSeqLen = 1 << 26 // 64 Mi elements

// Errors returned by the Decoder.
var (
	ErrTruncated  = errors.New("cdr: truncated data")
	ErrBadString  = errors.New("cdr: string not NUL-terminated")
	ErrSeqTooLong = errors.New("cdr: sequence length exceeds limit")
	ErrBadBool    = errors.New("cdr: boolean not 0 or 1")
	ErrBadOrder   = errors.New("cdr: invalid byte-order flag")
)

// Encoder marshals values in CDR format. The zero value is ready to use and
// encodes big-endian; use NewEncoder to choose the byte order.
//
// Alignment is computed relative to the start of the buffer, so an Encoder
// used for a GIOP message body must be seeded with the 12-byte header (or
// the header must be accounted for with Align) before body fields are
// written. GIOP helpers in package giop handle this. Inside a region
// (BeginRegion) alignment is relative to the region's first byte instead.
type Encoder struct {
	buf    []byte
	little bool
	origin int // offset alignment is computed from: 0, or an open region's start
}

// NewEncoder returns an Encoder writing in the given byte order
// (BigEndian or LittleEndian).
func NewEncoder(order byte) *Encoder {
	return &Encoder{little: order == LittleEndian}
}

// Order reports the encoder's byte-order flag.
func (e *Encoder) Order() byte {
	if e.little {
		return LittleEndian
	}
	return BigEndian
}

// Bytes returns the encoded buffer. The returned slice aliases the
// encoder's internal buffer; callers that keep encoding must copy it first.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards encoded data, retaining the allocation and byte order.
func (e *Encoder) Reset() { e.buf, e.origin = e.buf[:0], 0 }

// Region is an open length-prefixed region of an Encoder's buffer (see
// BeginRegion).
type Region struct {
	at     int // offset of the region's ulong length prefix
	origin int // the enclosing alignment origin, restored by EndRegion
}

// BeginRegion opens a sequence<octet> whose bytes are encoded in place: it
// writes a placeholder length and makes the region's first byte the
// alignment origin, as if its contents were encoded into a buffer of their
// own. EndRegion patches the length and restores the enclosing origin.
// The encoding is byte-identical to encoding the contents separately and
// writing them with WriteOctetSeq, without the second buffer and the copy.
func (e *Encoder) BeginRegion() Region {
	e.WriteULong(0)
	r := Region{at: len(e.buf) - 4, origin: e.origin}
	e.origin = len(e.buf)
	return r
}

// EndRegion closes r, patching its length prefix with the number of bytes
// written since BeginRegion, and returns the offsets of the region's
// contents in the buffer. A caller that needs the contents slices them
// out of the finished buffer (TakeBytes): later writes may move it.
func (e *Encoder) EndRegion(r Region) (start, end int) {
	start, end = r.at+4, len(e.buf)
	if e.little {
		binary.LittleEndian.PutUint32(e.buf[r.at:], uint32(end-start))
	} else {
		binary.BigEndian.PutUint32(e.buf[r.at:], uint32(end-start))
	}
	e.origin = r.origin
	return start, end
}

// Align pads the buffer with zero bytes so the next write begins at a
// multiple of n (n must be a power of two: 1, 2, 4, or 8) from the
// alignment origin.
func (e *Encoder) Align(n int) {
	rem := (len(e.buf) - e.origin) & (n - 1)
	if rem == 0 {
		return
	}
	for i := rem; i < n; i++ {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a single octet (no alignment).
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBool appends a boolean as one octet (1 = true, 0 = false).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteUShort appends a uint16 at 2-byte alignment.
func (e *Encoder) WriteUShort(v uint16) {
	e.Align(2)
	if e.little {
		e.buf = append(e.buf, byte(v), byte(v>>8))
	} else {
		e.buf = append(e.buf, byte(v>>8), byte(v))
	}
}

// WriteShort appends an int16 at 2-byte alignment.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong appends a uint32 at 4-byte alignment.
func (e *Encoder) WriteULong(v uint32) {
	e.Align(4)
	if e.little {
		e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	} else {
		e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// WriteLong appends an int32 at 4-byte alignment.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULongLong appends a uint64 at 8-byte alignment.
func (e *Encoder) WriteULongLong(v uint64) {
	e.Align(8)
	if e.little {
		e.buf = append(e.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	} else {
		e.buf = append(e.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// WriteLongLong appends an int64 at 8-byte alignment.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat appends a float32 at 4-byte alignment.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends a float64 at 8-byte alignment.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: ulong length including the terminating
// NUL, the bytes, then a NUL octet.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq appends a sequence<octet>: ulong length then raw bytes.
func (e *Encoder) WriteOctetSeq(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteRaw appends bytes verbatim with no length prefix or alignment.
// It is used for pre-encoded encapsulations and message bodies.
func (e *Encoder) WriteRaw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder unmarshals CDR data produced by an Encoder (or a foreign ORB).
// The zero value decodes an empty big-endian buffer; use NewDecoder.
type Decoder struct {
	buf      []byte
	pos      int
	little   bool
	zeroCopy bool
}

// NewDecoder returns a Decoder reading buf in the given byte order.
func NewDecoder(buf []byte, order byte) *Decoder {
	return &Decoder{buf: buf, little: order == LittleEndian}
}

// SetZeroCopy switches ReadOctetSeq and ReadRaw to return views into the
// decode buffer instead of copies. Views share the buffer's lifetime: a
// caller enabling this owns the discipline that nothing aliasing the buffer
// outlives it (the giop pooled read path pairs this with ReleaseFrame).
func (d *Decoder) SetZeroCopy(on bool) { d.zeroCopy = on }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the current read offset from the start of the buffer.
func (d *Decoder) Pos() int { return d.pos }

// Align advances the read position to a multiple of n (power of two).
func (d *Decoder) Align(n int) error {
	rem := d.pos & (n - 1)
	if rem == 0 {
		return nil
	}
	skip := n - rem
	if d.pos+skip > len(d.buf) {
		return ErrTruncated
	}
	d.pos += skip
	return nil
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return ErrTruncated
	}
	return nil
}

// ReadOctet consumes one octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBool consumes one octet and maps 0/1 to false/true.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadOctet()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, ErrBadBool
	}
}

// ReadUShort consumes a uint16 at 2-byte alignment.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.Align(2); err != nil {
		return 0, err
	}
	if err := d.need(2); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 2
	if d.little {
		return uint16(b[0]) | uint16(b[1])<<8, nil
	}
	return uint16(b[1]) | uint16(b[0])<<8, nil
}

// ReadShort consumes an int16 at 2-byte alignment.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong consumes a uint32 at 4-byte alignment.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.Align(4); err != nil {
		return 0, err
	}
	if err := d.need(4); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 4
	if d.little {
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	return uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24, nil
}

// ReadLong consumes an int32 at 4-byte alignment.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong consumes a uint64 at 8-byte alignment.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.Align(8); err != nil {
		return 0, err
	}
	if err := d.need(8); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 8
	if d.little {
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
	}
	return uint64(b[7]) | uint64(b[6])<<8 | uint64(b[5])<<16 | uint64(b[4])<<24 |
		uint64(b[3])<<32 | uint64(b[2])<<40 | uint64(b[1])<<48 | uint64(b[0])<<56, nil
}

// ReadLongLong consumes an int64 at 8-byte alignment.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat consumes a float32 at 4-byte alignment.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble consumes a float64 at 8-byte alignment.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString consumes a CDR string (length includes the NUL terminator).
func (d *Decoder) ReadString() (string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return "", err
	}
	if n == 0 || n > MaxSeqLen {
		if n == 0 {
			// A zero length is produced by some ORBs for empty strings
			// (omitting the NUL); tolerate it on input.
			return "", nil
		}
		return "", ErrSeqTooLong
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if b[len(b)-1] != 0 {
		return "", ErrBadString
	}
	return string(b[:len(b)-1]), nil
}

// ReadOctetSeq consumes a sequence<octet>. The returned slice is a copy,
// safe to retain after further decoding — unless SetZeroCopy is on, in
// which case it is a capped view into the decode buffer.
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > MaxSeqLen {
		return nil, ErrSeqTooLong
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	if d.zeroCopy {
		out := d.buf[d.pos : d.pos+int(n) : d.pos+int(n)]
		d.pos += int(n)
		return out, nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:])
	d.pos += int(n)
	return out, nil
}

// ReadRaw consumes exactly n bytes with no alignment, returning a copy
// (or a capped view when SetZeroCopy is on).
func (d *Decoder) ReadRaw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("cdr: negative raw length %d", n)
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	if d.zeroCopy {
		out := d.buf[d.pos : d.pos+n : d.pos+n]
		d.pos += n
		return out, nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:])
	d.pos += n
	return out, nil
}

// EncodeEncapsulation wraps body-building in a CDR encapsulation: a fresh
// alignment context whose first octet is the byte-order flag. The result is
// suitable for embedding as a sequence<octet> (tagged components, service
// contexts, profile bodies).
func EncodeEncapsulation(order byte, build func(*Encoder)) []byte {
	e := GetEncoder(order)
	e.WriteOctet(order)
	build(e)
	out := e.TakeBytes()
	e.Release()
	return out
}

// DecodeEncapsulation opens an encapsulation produced by
// EncodeEncapsulation (or a foreign ORB) and returns a Decoder positioned
// after the byte-order flag.
func DecodeEncapsulation(b []byte) (*Decoder, error) {
	if len(b) < 1 {
		return nil, ErrTruncated
	}
	order := b[0]
	if order != BigEndian && order != LittleEndian {
		return nil, ErrBadOrder
	}
	d := NewDecoder(b, order)
	if _, err := d.ReadOctet(); err != nil {
		return nil, err
	}
	return d, nil
}
