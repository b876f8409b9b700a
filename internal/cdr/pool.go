package cdr

import "sync"

// maxPooledBuf bounds the capacity of buffers retained by the encoder
// pool; releasing an encoder whose buffer grew beyond this drops the
// buffer so one giant state transfer does not pin memory forever.
const maxPooledBuf = 1 << 20

var encPool = sync.Pool{
	New: func() any { return new(Encoder) },
}

// initialBufCap seeds encoders whose buffer was detached by TakeBytes.
// Most frames (GIOP requests/replies, totem control packets) fit, so a
// marshal costs exactly one allocation — the result buffer itself —
// instead of a chain of append doublings from nil.
const initialBufCap = 512

// GetEncoder returns a pooled Encoder reset to the given byte order. Pair
// it with Release on every path; encoders whose buffer was detached with
// TakeBytes may (and should) still be Released.
func GetEncoder(order byte) *Encoder {
	e := encPool.Get().(*Encoder)
	e.little = order == LittleEndian
	e.origin = 0
	if e.buf == nil {
		e.buf = make([]byte, 0, initialBufCap)
	} else {
		e.buf = e.buf[:0]
	}
	return e
}

// GetEncoderSized is GetEncoder with a capacity hint: the returned
// encoder's buffer holds at least capHint bytes. A marshal whose size is
// known up front costs one allocation of roughly that size — an
// exact-size buffer for a large coalesced frame instead of a chain of
// append doublings, a small buffer for a packet much smaller than the
// 512-byte seed (the circulating token) instead of the seed. A hint of 0
// behaves exactly like GetEncoder. Underestimated hints stay correct:
// the buffer grows by append like any other.
func GetEncoderSized(order byte, capHint int) *Encoder {
	e := encPool.Get().(*Encoder)
	e.little = order == LittleEndian
	e.origin = 0
	switch {
	case capHint <= 0:
		capHint = initialBufCap
	case capHint < 64:
		capHint = 64
	}
	if cap(e.buf) < capHint {
		e.buf = make([]byte, 0, capHint)
	} else {
		e.buf = e.buf[:0]
	}
	return e
}

// Grow ensures capacity for at least n further bytes, so callers that know
// the rough frame size up front (e.g. a GIOP message wrapping an existing
// body) pay a single allocation instead of successive doublings.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	nb := make([]byte, len(e.buf), len(e.buf)+n)
	copy(nb, e.buf)
	e.buf = nb
}

// Release returns the encoder to the pool. The caller must not use the
// encoder, nor any slice still aliasing its internal buffer (Bytes), after
// Release; buffers handed off with TakeBytes are unaffected.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	encPool.Put(e)
}

// TakeBytes detaches and returns the encoded buffer, transferring
// ownership to the caller: the encoder forgets the buffer, so a
// subsequent Release recycles only the Encoder struct and later encoding
// starts a fresh buffer. This is the zero-copy replacement for the
// Bytes-then-copy idiom on paths whose result outlives the encoder (e.g.
// a marshalled frame handed to the network layer).
func (e *Encoder) TakeBytes() []byte {
	b := e.buf
	e.buf, e.origin = nil, 0
	return b
}
