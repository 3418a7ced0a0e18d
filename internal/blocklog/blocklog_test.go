package blocklog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestBlockLayout pins the byte layout both on-disk formats depend on:
// LE32 payload length, LE32 CRC32C of the payload, then the payload. The
// payload is the CRC-32C check string, whose checksum is the standard
// check value 0xE3069283 — so this vector also pins the polynomial.
func TestBlockLayout(t *testing.T) {
	got := Append([]byte("pre"), []byte("123456789"))
	want, err := hex.DecodeString("707265" + "09000000" + "839206e3" + hex.EncodeToString([]byte("123456789")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("block bytes %x, want %x", got, want)
	}
	block := got[3:]
	payload, err := Read(bytes.NewReader(block), int64(len(block)))
	if err != nil || string(payload) != "123456789" {
		t.Fatalf("Read = %q, %v", payload, err)
	}
	if empty := Append(nil, nil); !bytes.Equal(empty, []byte{0, 0, 0, 0, 0, 0, 0, 0}) {
		t.Errorf("empty block %x, want eight zero bytes", empty)
	}
}

// TestReadTornShapes: every way a block can be incomplete or corrupt reads
// as ErrTorn; only a clean boundary reads as io.EOF.
func TestReadTornShapes(t *testing.T) {
	block := Append(nil, []byte("payload bytes"))
	flip := func(i int) []byte {
		b := append([]byte(nil), block...)
		b[i] ^= 0x01
		return b
	}
	if _, err := Read(bytes.NewReader(nil), 0); err != io.EOF {
		t.Errorf("empty input: %v, want io.EOF", err)
	}
	for name, data := range map[string][]byte{
		"short header":  block[:5],
		"short payload": block[:len(block)-1],
		"length bit":    flip(0),
		"crc bit":       flip(5),
		"payload bit":   flip(len(block) - 1),
	} {
		if _, err := Read(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrTorn) {
			t.Errorf("%s: %v, want ErrTorn", name, err)
		}
	}
	// A length that fits the reader but not the file's remaining bytes is
	// rejected before the payload is allocated or read.
	if _, err := Read(bytes.NewReader(block), int64(len(block)-1)); !errors.Is(err, ErrTorn) {
		t.Errorf("length past avail: %v, want ErrTorn", err)
	}
}

// TestCutMatchesRead: Cut, the in-memory reader, gives the payload and the
// verdict Read gives on the same bytes, for whole, torn and corrupt
// blocks alike, and hands back the bytes after a whole block.
func TestCutMatchesRead(t *testing.T) {
	block := Append(nil, []byte("payload bytes"))
	two := Append(append([]byte(nil), block...), []byte("next"))
	flip := func(i int) []byte {
		b := append([]byte(nil), block...)
		b[i] ^= 0x01
		return b
	}
	for name, data := range map[string][]byte{
		"empty":         nil,
		"whole":         block,
		"two blocks":    two,
		"short header":  block[:5],
		"short payload": block[:len(block)-1],
		"length bit":    flip(0),
		"crc bit":       flip(5),
		"payload bit":   flip(len(block) - 1),
	} {
		want, werr := Read(bytes.NewReader(data), int64(len(data)))
		got, rest, err := Cut(data)
		if err != werr || !bytes.Equal(got, want) {
			t.Errorf("%s: Cut = %q, %v; Read = %q, %v", name, got, err, want, werr)
		}
		if err == nil && len(rest) != len(data)-8-len(got) {
			t.Errorf("%s: %d bytes after the block, want %d", name, len(rest), len(data)-8-len(got))
		}
	}
}

func TestTruncateSyncAndInstall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	whole := Append(nil, []byte("kept"))
	if err := Install(path, append(append([]byte(nil), whole...), "torn"...), true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("install left its temporary file behind: %v", err)
	}
	if err := TruncateSync(path, int64(len(whole))); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("after truncation %x (%v), want %x", got, err, whole)
	}
	// Install replaces the content wholesale, with or without fsync.
	for _, sync := range []bool{true, false} {
		if err := Install(path, []byte("next"), sync); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != "next" {
			t.Errorf("sync=%v: installed %q, want %q", sync, got, "next")
		}
	}
	if err := TruncateSync(filepath.Join(dir, "missing"), 0); err == nil {
		t.Error("truncating a missing file succeeded")
	}
}
