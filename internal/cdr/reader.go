package cdr

import "fmt"

// Reader reads a message's fields in wire order and keeps the first error:
// every read after it returns the zero value, so a decoder checks once, at
// the end (Err), instead of after every field. It embeds the Decoder for
// everything else (SetZeroCopy, ReadOctet for a leading kind byte, ...).
type Reader struct {
	Decoder
	err error
}

// NewReader returns a Reader over buf in the given byte order.
func NewReader(buf []byte, order byte) Reader {
	return Reader{Decoder: Decoder{buf: buf, little: order == LittleEndian}}
}

// Err returns the first error any read met, or nil.
func (r *Reader) Err() error { return r.err }

// Octet reads one octet.
func (r *Reader) Octet() byte {
	if r.err != nil {
		return 0
	}
	v, err := r.ReadOctet()
	r.err = err
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	v, err := r.ReadBool()
	r.err = err
	return v
}

// U32 reads an unsigned long.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	v, err := r.ReadULong()
	r.err = err
	return v
}

// U64 reads an unsigned long long.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := r.ReadULongLong()
	r.err = err
	return v
}

// Str reads an interned string (ReadStringInterned): names on the wire
// come from a small vocabulary.
func (r *Reader) Str() string {
	if r.err != nil {
		return ""
	}
	v, err := r.ReadStringInterned()
	r.err = err
	return v
}

// Octets reads a sequence<octet>: a copy, or a view into the buffer when
// SetZeroCopy is on.
func (r *Reader) Octets() []byte {
	if r.err != nil {
		return nil
	}
	v, err := r.ReadOctetSeq()
	r.err = err
	return v
}

// Count reads a sequence length (ReadCount).
func (r *Reader) Count(min int) int {
	if r.err != nil {
		return 0
	}
	n, err := r.ReadCount(min)
	r.err = err
	return n
}

// ReadCount reads a sequence length. A count whose elements, at least min
// bytes each, overrun what is left of the buffer is an error, so a corrupt
// count never sizes an allocation.
func (d *Decoder) ReadCount(min int) (int, error) {
	n, err := d.ReadULong()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(min) > int64(d.Remaining()) {
		return 0, fmt.Errorf("cdr: count %d overruns the %d bytes left", n, d.Remaining())
	}
	return int(n), nil
}
