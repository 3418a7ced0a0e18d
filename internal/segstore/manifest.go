package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sbr/internal/blocklog"
)

// segMeta is one sealed segment's manifest entry.
type segMeta struct {
	File       string `json:"file"` // store-relative path
	FirstChunk int    `json:"first_chunk"`
	LastChunk  int    `json:"last_chunk"`
	Bytes      int64  `json:"bytes"`
	MinUnix    int64  `json:"min_unix"`
	MaxUnix    int64  `json:"max_unix"`
}

// sensorManifest is one sensor's slice of the manifest.
type sensorManifest struct {
	// PurgedThrough is the retention watermark: chunks [0, PurgedThrough)
	// are gone from the archive.
	PurgedThrough int       `json:"purged_through"`
	Segments      []segMeta `json:"segments"`
}

// manifest is the store's authoritative index of sealed segments, always
// replaced by atomic rename.
type manifest struct {
	Version int                        `json:"version"`
	Sensors map[string]*sensorManifest `json:"sensors"`
}

const manifestVersion = 1
const manifestName = "MANIFEST.json"

// loadManifest reads the manifest (absent: empty store). Open reads each
// sealed segment's footer next, which proves the files it names exist.
func (s *Store) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("segstore: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("segstore: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("segstore: unsupported manifest version %d", m.Version)
	}
	for id, sm := range m.Sensors {
		ss := &sensorSegs{purged: sm.PurgedThrough, sealed: sm.Segments}
		sort.Slice(ss.sealed, func(i, j int) bool {
			return ss.sealed[i].FirstChunk < ss.sealed[j].FirstChunk
		})
		s.sensors[id] = ss
	}
	return nil
}

// writeManifest atomically replaces the manifest with the current sealed
// index. The caller must hold s.mu.
func (s *Store) writeManifest() error {
	m := manifest{Version: manifestVersion, Sensors: make(map[string]*sensorManifest, len(s.sensors))}
	for id, ss := range s.sensors {
		m.Sensors[id] = &sensorManifest{PurgedThrough: ss.purged, Segments: ss.sealed}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("segstore: encoding manifest: %w", err)
	}
	if err := blocklog.Install(filepath.Join(s.dir, manifestName), data, !s.opts.NoSync); err != nil {
		return fmt.Errorf("segstore: manifest: %w", err)
	}
	return nil
}
