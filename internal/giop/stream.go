package giop

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/cdr"
)

// Writer emits GIOP messages on a byte stream, fragmenting bodies larger
// than MaxFrame into an initial message plus Fragment messages, as GIOP 1.2
// allows. Writer is not safe for concurrent use; connections serialize
// writes above this layer.
type Writer struct {
	w        io.Writer
	MaxFrame int // largest frame body emitted; 0 means DefaultMaxFrame
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (w *Writer) maxFrame() int {
	if w.MaxFrame <= 0 {
		return DefaultMaxFrame
	}
	return w.MaxFrame
}

// WriteMessage encodes and writes m, fragmenting if necessary. The frame
// is built in a pooled buffer that is recycled after the io.Writer call
// returns (io.Writer implementations must not retain p), so steady-state
// writes on a connection allocate nothing for framing.
func (w *Writer) WriteMessage(m Message) error {
	e := cdr.GetEncoder(cdr.BigEndian)
	defer e.Release()
	writeHeader(e, m.msgType(), 0, false)
	m.encodeBody(e)
	frame := e.Bytes()
	patchSize(frame)
	limit := w.maxFrame() + HeaderLen
	if len(frame) <= limit {
		_, err := w.w.Write(frame)
		return err
	}

	// Fragment: first frame carries the header with the more-fragments flag
	// and the leading body chunk; subsequent frames are Fragment messages.
	// GIOP 1.2 fragments carry the request id first so receivers can
	// interleave; we keep the simpler whole-stream reassembly since our
	// connections never interleave fragmented messages.
	first := frame[:limit]
	hdr := make([]byte, HeaderLen)
	copy(hdr, first[:HeaderLen])
	hdr[6] |= flagMoreFrags
	body := first[HeaderLen:]
	out := append(hdr, body...)
	patchSize(out)
	if _, err := w.w.Write(out); err != nil {
		return err
	}

	rest := frame[limit:]
	for len(rest) > 0 {
		n := len(rest)
		more := false
		if n > w.maxFrame() {
			n = w.maxFrame()
			more = true
		}
		fe := cdr.GetEncoder(cdr.BigEndian)
		writeHeader(fe, MsgFragment, 0, more)
		fe.WriteRaw(rest[:n])
		frag := fe.Bytes()
		patchSize(frag)
		_, err := w.w.Write(frag)
		fe.Release()
		if err != nil {
			return err
		}
		rest = rest[n:]
	}
	return nil
}

// --- read-side frame pool ----------------------------------------------------

// framePool recycles read-side frame buffers, mirroring the encoder pool in
// package cdr (GetEncoder/Release): a steady-state server reads every
// request into a recycled buffer instead of allocating one per frame.
// Buffers above maxPooledFrame are left to the GC so one huge state-transfer
// frame does not stay pinned in the pool forever.
const maxPooledFrame = 1 << 17

var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getFrame(n int) []byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// ReleaseFrame returns a frame obtained from ReadMessagePooled to the pool.
// The message decoded from it — and every byte slice aliasing it (Body,
// ObjectKey, service context data) — must be dead by then. nil is a no-op.
func ReleaseFrame(frame []byte) {
	if frame == nil || cap(frame) > maxPooledFrame {
		return
	}
	frame = frame[:0]
	framePool.Put(&frame)
}

// Reader decodes GIOP messages from a byte stream, reassembling fragments.
type Reader struct {
	r   io.Reader
	hdr [HeaderLen]byte
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMessage reads the next complete message, transparently stitching
// Fragment continuations onto their initial frame. The frame is heap
// allocated and owned by the message: use this when the message escapes to
// callers with no lifecycle (client replies). Dispatch loops with a clear
// end-of-request point should prefer ReadMessagePooled.
func (r *Reader) ReadMessage() (Message, error) {
	m, _, err := r.readMessage(func(n int) []byte { return make([]byte, n) }, false)
	return m, err
}

// ReadMessagePooled is ReadMessage with the frame taken from the package
// frame pool and decoded zero-copy: the message's byte fields are views
// into the returned frame. The caller must hand the frame to ReleaseFrame
// once the message and everything aliasing it are dead. On error no frame
// is retained and there is nothing to release.
func (r *Reader) ReadMessagePooled() (Message, []byte, error) {
	return r.readMessage(getFrame, true)
}

func (r *Reader) readMessage(alloc func(int) []byte, zc bool) (Message, []byte, error) {
	frame, more, err := r.readFrame(alloc)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (Message, []byte, error) {
		ReleaseFrame(frame)
		return nil, nil, err
	}
	if MsgType(frame[7]) == MsgFragment {
		return fail(ErrOrphanFrag)
	}
	for more {
		// Fragment continuations append past the pooled buffer's capacity;
		// the reallocation abandons it. Reassembly is the rare path — per
		// frame pooling is aimed at the steady single-frame case.
		frag, m, err := r.readFrame(getFrame)
		if err != nil {
			return fail(err)
		}
		if MsgType(frag[7]) != MsgFragment {
			ReleaseFrame(frag)
			return fail(fmt.Errorf("giop: expected Fragment, got %v", MsgType(frag[7])))
		}
		if len(frame)+len(frag) > 2*HeaderLen+MaxMessageSize {
			ReleaseFrame(frag)
			return fail(ErrTooLarge)
		}
		frame = append(frame, frag[HeaderLen:]...)
		ReleaseFrame(frag)
		more = m
	}
	frame[6] &^= flagMoreFrags
	patchSize(frame)
	m, err := unmarshal(frame, zc)
	if err != nil {
		return fail(err)
	}
	return m, frame, nil
}

func (r *Reader) readFrame(alloc func(int) []byte) (frame []byte, moreFrags bool, err error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return nil, false, err
	}
	if string(r.hdr[0:4]) != "GIOP" {
		return nil, false, ErrBadMagic
	}
	if r.hdr[4] != 1 {
		return nil, false, ErrBadVersion
	}
	little := r.hdr[6]&flagLittleEndian != 0
	size := uint32(r.hdr[8])<<24 | uint32(r.hdr[9])<<16 | uint32(r.hdr[10])<<8 | uint32(r.hdr[11])
	if little {
		size = uint32(r.hdr[11])<<24 | uint32(r.hdr[10])<<16 | uint32(r.hdr[9])<<8 | uint32(r.hdr[8])
	}
	if size > MaxMessageSize {
		return nil, false, ErrTooLarge
	}
	// The frame grows, doubling, as its bytes arrive, so a header claiming
	// far more than the stream holds cannot make the reader allocate it. A
	// body up to DefaultMaxFrame is read at once, into alloc's buffer.
	n := HeaderLen + int(size)
	frame = alloc(HeaderLen + min(int(size), DefaultMaxFrame))
	copy(frame, r.hdr[:])
	for read := HeaderLen; ; {
		if _, err := io.ReadFull(r.r, frame[read:]); err != nil {
			return nil, false, err
		}
		if read = len(frame); read == n {
			return frame, r.hdr[6]&flagMoreFrags != 0, nil
		}
		frame = slices.Grow(frame, min(n-read, read))[:min(n, 2*read)]
	}
}
