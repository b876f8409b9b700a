package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/cdr"
)

// A segment is the on-disk format of FileLog, and so of DirStore's update
// files: frames of a 4-byte big-endian length and one CDR-encoded Record.
// Open keeps the longest intact prefix. A frame cut short, longer than the
// rest of the file, or undecodable is a torn tail (a crash mid-append) and
// is truncated away, so the next append cannot land behind garbage that
// would swallow it on the following open; any other read error fails the
// open. Compaction replaces the file through WriteFile, so a crash leaves
// the old records or the new.

// file is the part of *os.File a segment uses.
type file interface {
	io.ReadWriteSeeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// The filesystem calls segments make: the seam the crash tests substitute.
var (
	openFile = func(name string, flag int, perm os.FileMode) (file, error) { return os.OpenFile(name, flag, perm) }
	rename   = os.Rename
)

type segment struct {
	path string
	f    file
}

// openSegment opens (or creates) the segment at path and returns its intact
// records, positioned for the next append. Frame lengths are checked
// against the bytes read: a corrupt length never sizes an allocation.
func openSegment(path string) (*segment, []Record, error) {
	f, err := openFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	var recs []Record
	good := 0
	for len(buf)-good >= 4 {
		body := int(binary.BigEndian.Uint32(buf[good:]))
		if body > len(buf)-good-4 {
			break
		}
		rec, derr := decodeRecord(buf[good+4 : good+4+body])
		if derr != nil {
			break
		}
		recs = append(recs, rec)
		good += 4 + body
	}
	if good < len(buf) {
		log.Printf("wal: %s: torn record at offset %d; truncating tail", path, good)
		err = f.Truncate(int64(good))
	}
	if err == nil {
		_, err = f.Seek(int64(good), io.SeekStart)
	}
	if err == nil {
		err = syncDir(path) // make a newly created file's name durable
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &segment{path: path, f: f}, recs, nil
}

// append writes one record, fsyncing it when sync is set.
func (s *segment) append(rec Record, sync bool) error {
	_, err := s.f.Write(appendFrame(nil, rec))
	if err == nil && sync {
		err = s.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return nil
}

// rewrite replaces the segment's records with recs (compaction).
func (s *segment) rewrite(recs []Record) error {
	var buf []byte
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	err := WriteFile(s.path, buf)
	// Reopen even after a failure: if the rename happened, later appends
	// belong in the new file.
	f, oerr := openFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	if oerr != nil {
		return fmt.Errorf("wal: compact: %w", errors.Join(err, oerr))
	}
	s.f.Close()
	s.f = f
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	return nil
}

func (s *segment) close() error {
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile durably replaces the file at path with data: it writes a temp
// file, fsyncs it, renames it over path and fsyncs the directory, so a
// crash leaves either the old contents or data.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := openFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(tmp, path)
	}
	if err == nil {
		err = syncDir(path)
	}
	return err
}

// ReadFile reads the file at path through the filesystem the logs use.
func ReadFile(path string) ([]byte, error) {
	f, err := openFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// syncDir fsyncs path's directory, making a create or rename of it durable.
func syncDir(path string) error {
	d, err := openFile(filepath.Dir(path), os.O_RDONLY, 0)
	if err == nil {
		err = d.Sync()
		d.Close() // read-only handle: nothing to lose
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

func appendFrame(buf []byte, rec Record) []byte {
	body := encodeRecord(rec)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	return append(buf, body...)
}

func encodeRecord(rec Record) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(byte(rec.Kind))
	e.WriteULongLong(rec.MsgID)
	e.WriteString(rec.Op)
	e.WriteOctetSeq(rec.Data)
	return e.Bytes()
}

func decodeRecord(b []byte) (Record, error) {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	k, err := d.ReadOctet()
	rec := Record{Kind: Kind(k)}
	if err == nil && rec.Kind != KindCheckpoint && rec.Kind != KindUpdate {
		err = fmt.Errorf("wal: bad record kind %d", k)
	}
	if err == nil {
		rec.MsgID, err = d.ReadULongLong()
	}
	if err == nil {
		rec.Op, err = d.ReadString()
	}
	if err == nil {
		rec.Data, err = d.ReadOctetSeq()
	}
	return rec, err
}
