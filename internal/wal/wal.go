// Package wal implements the write-ahead log that protects memtable
// contents (and, reused verbatim, the MANIFEST metadata log). The format is
// LevelDB's: the file is a sequence of 32 KiB blocks; a logical record is
// split into fragments, each framed as
//
//	masked CRC-32C (4B) | length (2B LE) | type (1B) | payload
//
// where type is full / first / middle / last. Only a block tail too short
// for a header is zero-padded, so a zero header with room for a real one is
// a hole (a page that never reached the disk). Torn tails (a crash
// mid-write) and holes decode as corruption and recovery stops at the last
// complete record before them.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"unikv/internal/codec"
	"unikv/internal/vfs"
)

const (
	// BlockSize is the physical framing unit.
	BlockSize = 32 * 1024
	headerLen = 7
)

const (
	typeFull   = 1
	typeFirst  = 2
	typeMiddle = 3
	typeLast   = 4
)

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("wal: closed")

// maxRetainedBuf bounds the staging buffer a Writer keeps between calls;
// one oversized record does not pin its size for the writer's lifetime.
const maxRetainedBuf = 1 << 20

// zeroPad fills a block tail too short for a fragment header.
var zeroPad [headerLen]byte

// Writer appends logical records to a log file.
type Writer struct {
	f           vfs.File
	blockOffset int // bytes used in the current block
	buf         []byte
	closed      bool
	err         error // sticky: a failed write left bytes in the file
	written     int64
}

// NewWriter creates a log writer over f, assuming f is empty or that the
// caller wants to continue at a block boundary (we always start fresh files).
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f, buf: make([]byte, 0, 4096)}
}

// AddRecord appends one logical record. Every fragment of the record —
// headers, payload, block padding — is assembled in the writer's buffer
// and handed to the file as ONE Write, so a rejected write leaves the log
// exactly as it was and the writer stays usable. If the file grew anyway
// (a partial write on a real file system) the torn tail cannot be appended
// over: the writer turns sticky-failed and the owner must start a new log
// (replay stops at the torn record, so nothing after it would be read).
func (w *Writer) AddRecord(rec []byte) error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	buf := w.buf[:0]
	off := w.blockOffset
	first := true
	for {
		leftover := BlockSize - off
		if leftover < headerLen {
			// Pad the tail of the block with zeros; readers skip it.
			buf = append(buf, zeroPad[:leftover]...)
			off = 0
			leftover = BlockSize
		}
		frag := rec[:min(len(rec), leftover-headerLen)]
		rec = rec[len(frag):]

		var typ byte
		switch {
		case first && len(rec) == 0:
			typ = typeFull
		case first:
			typ = typeFirst
		case len(rec) == 0:
			typ = typeLast
		default:
			typ = typeMiddle
		}

		// The checksum covers type byte + payload, which sit next to each
		// other in the frame: checksum them in place, then fill in the header.
		h := len(buf)
		buf = append(buf, 0, 0, 0, 0, byte(len(frag)), byte(len(frag)>>8), typ)
		buf = append(buf, frag...)
		crc := codec.MaskChecksum(codec.Checksum(buf[h+headerLen-1:]))
		binary.LittleEndian.PutUint32(buf[h:], crc)
		off += headerLen + len(frag)

		first = false
		if len(rec) == 0 {
			break
		}
	}
	if cap(buf) <= maxRetainedBuf {
		w.buf = buf
	}
	if _, err := w.f.Write(buf); err != nil {
		if sz, serr := w.f.Size(); serr != nil || sz != w.written {
			w.err = fmt.Errorf("wal: log torn by a failed write: %w", err)
		}
		return err
	}
	w.written += int64(len(buf))
	w.blockOffset = off
	return nil
}

// Torn reports whether a failed write left partial bytes in the file. A
// torn writer rejects every further AddRecord; the owner switches to a
// fresh log.
func (w *Writer) Torn() bool { return w.err != nil }

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error {
	if w.closed {
		return ErrClosed
	}
	return w.f.Sync()
}

// Size returns the bytes written so far.
func (w *Writer) Size() int64 { return w.written }

// Close closes the underlying file (without a final sync; call Sync first
// if durability of the tail matters).
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// Reader replays logical records from a log file. Corruption (torn tail,
// bad CRC) terminates iteration without error: everything before the
// corruption is returned, matching recovery semantics. Damaged tells the
// two apart afterwards.
type Reader struct {
	f         vfs.File
	off       int64
	block     [BlockSize]byte
	blockLen  int
	blockPos  int
	rec       []byte
	badRecord bool
	damaged   bool
}

// NewReader returns a reader positioned at the start of f.
func NewReader(f vfs.File) *Reader {
	return &Reader{f: f}
}

// nextFragment returns the next fragment (type, payload); io.EOF at end.
func (r *Reader) nextFragment() (byte, []byte, error) {
	for {
		if r.blockPos+headerLen > r.blockLen {
			// Load the next block.
			n, err := r.f.ReadAt(r.block[:], r.off)
			if n == 0 {
				if err == io.EOF || err == nil {
					return 0, nil, io.EOF
				}
				return 0, nil, err
			}
			r.off += int64(n)
			r.blockLen = n
			r.blockPos = 0
			continue
		}
		hdr := r.block[r.blockPos : r.blockPos+headerLen]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		typ := hdr[6]
		if typ == 0 && length == 0 {
			// A hole: the writer pads only tails too short for a header.
			// Zeros to the end of the log are a tail the crash left
			// unwritten; anything behind the hole is damage.
			zeros, err := r.zerosToEnd()
			if err != nil {
				return 0, nil, err
			}
			if zeros {
				return 0, nil, errTorn
			}
			return 0, nil, errDamaged
		}
		if end := r.blockPos + headerLen + length; end > r.blockLen {
			// A fragment never crosses its block: one that runs past a full
			// block, or past the block size, is damage. Past the short last
			// block it is a tail a crash cut off — unless a complete fragment
			// follows it, which a crash never leaves behind the cut.
			if r.blockLen == BlockSize || end > BlockSize || r.fragmentAfter() {
				return 0, nil, errDamaged
			}
			return 0, nil, errTorn
		}
		payload := r.block[r.blockPos+headerLen : r.blockPos+headerLen+length]
		want := codec.UnmaskChecksum(binary.LittleEndian.Uint32(hdr[0:4]))
		// Type byte and payload are adjacent in the block: no temporary.
		got := codec.Checksum(r.block[r.blockPos+headerLen-1 : r.blockPos+headerLen+length])
		if want != got {
			return 0, nil, errDamaged // a crash leaves a prefix, never a complete bad fragment
		}
		r.blockPos += headerLen + length
		return typ, payload, nil
	}
}

// zerosToEnd reports whether every byte from the current header to the end
// of the log is zero.
func (r *Reader) zerosToEnd() (bool, error) {
	for {
		for _, b := range r.block[r.blockPos:r.blockLen] {
			if b != 0 {
				return false, nil
			}
		}
		n, err := r.f.ReadAt(r.block[:], r.off)
		if n == 0 {
			if err == io.EOF || err == nil {
				return true, nil
			}
			return false, err
		}
		r.off += int64(n)
		r.blockLen, r.blockPos = n, 0
	}
}

// fragmentAfter reports whether a complete fragment with a good checksum
// starts anywhere behind the current header in the loaded block.
func (r *Reader) fragmentAfter() bool {
	for p := r.blockPos + headerLen; p+headerLen <= r.blockLen; p++ {
		hdr := r.block[p : p+headerLen]
		end := p + headerLen + int(binary.LittleEndian.Uint16(hdr[4:6]))
		if hdr[6] >= typeFull && hdr[6] <= typeLast && end <= r.blockLen &&
			codec.UnmaskChecksum(binary.LittleEndian.Uint32(hdr)) == codec.Checksum(r.block[p+headerLen-1:end]) {
			return true
		}
	}
	return false
}

var (
	errTorn    = fmt.Errorf("wal: torn record")
	errDamaged = fmt.Errorf("wal: damaged record")
)

// Damaged reports whether the records Next returned stop at damage rather
// than at the end of the log or a torn tail: a complete fragment whose
// checksum fails, one out of sequence, one that crosses its block, one
// whose length runs past the end of the log while a complete fragment lies
// behind it, or a hole with non-zero bytes behind it. A crash mid-append leaves only a tail cut short, so a log whose
// writer synced every record (the manifest) is damaged when a record it
// acknowledged is unreadable — with one exception: a final fragment whose
// length grew reads exactly like a crash's cut, and Damaged reports false.
func (r *Reader) Damaged() bool { return r.damaged }

// Torn reports whether the records Next returned stop at a tail cut short,
// as a crash mid-append leaves it (or as a grown final length reads), or at
// a hole with only zeros behind it to the end of the log.
func (r *Reader) Torn() bool { return r.badRecord && !r.damaged }

// Next returns the next logical record, or io.EOF when the log is
// exhausted (including the everything-after-corruption case).
func (r *Reader) Next() ([]byte, error) {
	if r.badRecord {
		return nil, io.EOF
	}
	// Each returned record owns its buffer: callers retain records across
	// Next calls during recovery.
	r.rec = nil
	inRecord := false
	for {
		typ, payload, err := r.nextFragment()
		if err == errTorn || err == errDamaged {
			r.badRecord, r.damaged = true, err == errDamaged
			return nil, io.EOF
		}
		if err != nil {
			if err == io.EOF && inRecord {
				// Truncated multi-fragment record: drop it.
				r.badRecord = true
				return nil, io.EOF
			}
			return nil, err
		}
		// A full or first fragment starts a record, a middle or last one
		// continues it.
		starts := typ == typeFull || typ == typeFirst
		if typ < typeFull || typ > typeLast || starts == inRecord {
			r.badRecord, r.damaged = true, true
			return nil, io.EOF
		}
		r.rec = append(r.rec, payload...)
		if typ == typeFull || typ == typeLast {
			return r.rec, nil
		}
		inRecord = true
	}
}
