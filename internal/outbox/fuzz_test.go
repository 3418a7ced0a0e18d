package outbox

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds arbitrary file bytes to the outbox scanner: whatever a
// crashed disk leaves behind, Open must either refuse the file or recover
// it — never panic, never cut more than the file holds — and what it
// recovers must be intact: the healed file reopens to the same pending
// frames and nonce with nothing left to cut.
func FuzzOpen(f *testing.F) {
	// Seed with a real outbox — header, nonce, frames and an ack — and
	// mutations of it, so the fuzzer starts past the magic/header checks.
	path := filepath.Join(f.TempDir(), "seed.outbox")
	o, err := Open(path, Options{Sensor: "node", CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := o.SetNonce(0xfeed); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := o.Append(i, frameBytes(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := o.Ack(0); err != nil {
		f.Fatal(err)
	}
	o.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(obMagic[:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.outbox")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := Open(path, Options{Sensor: "node", CompactEvery: -1})
		if err != nil {
			return // an unusable preamble or header is refused, not healed
		}
		if o.TornBytes < 0 || o.TornBytes > int64(len(data)) {
			t.Fatalf("TornBytes %d outside input of %d bytes", o.TornBytes, len(data))
		}
		if o.Size() != int64(len(data))-o.TornBytes {
			t.Fatalf("size %d after cutting %d of %d bytes", o.Size(), o.TornBytes, len(data))
		}
		pending, nonce := o.Pending(), o.Nonce()
		for _, p := range pending {
			if len(p.Bytes) == 0 {
				t.Fatalf("pending seq %d recovered with no frame bytes", p.Seq)
			}
		}
		o.Close()

		again, err := Open(path, Options{Sensor: "node", CompactEvery: -1})
		if err != nil {
			t.Fatalf("healed outbox does not reopen: %v", err)
		}
		defer again.Close()
		if again.TornBytes != 0 || again.Nonce() != nonce {
			t.Fatalf("reopen cut %d bytes, nonce %x; want 0 and %x", again.TornBytes, again.Nonce(), nonce)
		}
		got := again.Pending()
		if len(got) != len(pending) {
			t.Fatalf("reopen recovered %d pending frames, want %d", len(got), len(pending))
		}
		for i := range got {
			if got[i].Seq != pending[i].Seq || !bytes.Equal(got[i].Bytes, pending[i].Bytes) {
				t.Fatalf("pending frame %d changed across reopen", i)
			}
		}
	})
}
