// Package blocklog is the block framing and file-durability discipline the
// on-disk formats share: the station's segment store and the sensor's
// outbox both write a magic preamble followed by CRC32C-framed blocks
//
//	block  := len₄ crc32c₄ payload            (little endian, crc over payload)
//
// and both replace whole files only by atomic install. What each format
// puts in a payload — the kind tag and its fields — and how it scans a
// file stays with the format; this package owns only the framing, the
// torn-tail detection, the truncation that heals a torn tail and the
// install that replaces a file.
//
// A crash mid-append leaves a block whose length field or checksum cannot
// be satisfied: Read reports it as ErrTorn, the scanner stops at the last
// whole block, and TruncateSync cuts the file back to it so appends can
// resume.
package blocklog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// MaxBlock bounds block payloads so a corrupt length field cannot drive an
// unbounded allocation.
const MaxBlock = 1 << 28

// castagnoli is the CRC32C polynomial table of every block checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a block that cannot be completed from the remaining
// bytes: a torn or corrupt tail, recoverable by truncation.
var ErrTorn = errors.New("blocklog: torn or corrupt block")

// Append frames payload and appends the block to buf.
func Append(buf, payload []byte) []byte {
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, head[:]...)
	return append(buf, payload...)
}

// Read reads one framed block from r, where avail is the number of bytes
// left in the file from the block's start. It returns ErrTorn for any
// shape of incomplete or corrupt block, io.EOF only at a clean boundary.
func Read(r io.Reader, avail int64) ([]byte, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(head[0:4])
	// A declared length past the end of the file is a torn or corrupt
	// header; reject it before allocating anything.
	if n > MaxBlock || int64(n) > avail-8 {
		return nil, ErrTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ErrTorn
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(head[4:8]) {
		return nil, ErrTorn
	}
	return payload, nil
}

// Cut is Read over a file held in memory: it parses the block at the head
// of b and returns its payload, in place, and the bytes after the block.
// It fails as Read does: ErrTorn for any incomplete or corrupt block,
// io.EOF only when b is empty.
func Cut(b []byte) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, io.EOF
	}
	if len(b) < 8 {
		return nil, nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxBlock || int64(n) > int64(len(b)-8) {
		return nil, nil, ErrTorn
	}
	payload = b[8 : 8+n : 8+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, ErrTorn
	}
	return payload, b[8+n:], nil
}

// TruncateSync cuts the file at path back to size — the end of its last
// whole block — and fsyncs it, so the healed file is durable before any
// new append lands after it.
func TruncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("blocklog: truncating torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("blocklog: truncating torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("blocklog: fsync after truncate: %w", err)
	}
	return nil
}

// Install atomically replaces the file at path with data: write path.tmp,
// fsync it, rename it over path, fsync the directory. A crash at any point
// leaves either the old file or the new one, never a mix — at worst beside
// a stale path.tmp, which the next Install of path overwrites. sync=false
// keeps the atomic rename but skips both fsyncs, for stores that forfeit
// durability.
func Install(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("blocklog: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("blocklog: writing %s: %w", tmp, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("blocklog: syncing %s: %w", tmp, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("blocklog: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("blocklog: installing %s: %w", path, err)
	}
	if !sync {
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("blocklog: syncing dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("blocklog: syncing dir: %w", err)
	}
	return nil
}
