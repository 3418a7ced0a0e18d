package station

import (
	"testing"

	"sbr/internal/core"
	"sbr/internal/segstore"
)

// The recovery benchmark measures a restart: Open reads each older
// segment's footer and the sensor's newest file, and Recover restores the
// sensor from that file's header and replays its records — none after a
// clean shutdown, the chunks archived since the last checkpoint after a
// crash. Both restore the same queryable state.

const (
	benchChunks   = 768 // archived history size
	benchBatchLen = 64  // samples per chunk
	benchTail     = 16  // chunks archived after the last checkpoint
)

// benchDatadir ingests benchChunks frames into a fresh datadir and closes
// the store. clean checkpoints after the last frame, as stationd's
// shutdown does; otherwise the checkpoint comes benchTail chunks before
// the end, and Close seals those chunks into the newest file, as a crash
// right after their seal would leave them.
func benchDatadir(b *testing.B, cfg core.Config, clean bool) string {
	b.Helper()
	dir := b.TempDir()
	store, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 32})
	if err != nil {
		b.Fatal(err)
	}
	st, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st.SetArchive(store, 16)
	checkpointAt := benchChunks - benchTail
	if clean {
		checkpointAt = benchChunks
	}
	frames := encodeTestFrames(b, cfg, benchChunks, benchBatchLen)
	for i, frame := range frames {
		if err := st.ReceiveFrameFrom("s", 1, frame); err != nil {
			b.Fatal(err)
		}
		if i == checkpointAt-1 {
			if err := st.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchRecover(b *testing.B, dir string, cfg core.Config, wantReplayed int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store, err := segstore.Open(segstore.Options{Dir: dir, Config: cfg, SegmentChunks: 32})
		if err != nil {
			b.Fatal(err)
		}
		st, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st.SetArchive(store, 16)
		rec, err := st.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if rec.Replayed != wantReplayed {
			b.Fatalf("replayed %d frames, want %d", rec.Replayed, wantReplayed)
		}
		store.Close()
	}
}

// BenchmarkRecoverCleanAndCrashTail restarts one sensor's archive of 768
// chunks: "clean" after a shutdown that checkpointed, replaying nothing,
// and "crash-tail" with the 16 chunks archived since the last checkpoint
// to replay.
func BenchmarkRecoverCleanAndCrashTail(b *testing.B) {
	cfg := restoreConfig()
	for _, tc := range []struct {
		name     string
		clean    bool
		replayed int
	}{{"clean", true, 0}, {"crash-tail", false, benchTail}} {
		b.Run(tc.name, func(b *testing.B) {
			dir := benchDatadir(b, cfg, tc.clean)
			b.ResetTimer()
			benchRecover(b, dir, cfg, tc.replayed)
		})
	}
}
