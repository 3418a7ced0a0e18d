package httpapi

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/obs"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/timeseries"
)

func testConfig() core.Config {
	return core.Config{TotalBand: 120, MBase: 64, Metric: metrics.SSE}
}

// newStation builds a station with `files` transmissions of one stock
// sensor already received, and returns the transmissions for cross-checks.
func newStation(t testing.TB, files int) (*station.Station, *datagen.Dataset) {
	t.Helper()
	st, err := station.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(1, 64, files)
	feed(t, st, "node-1", ds, files)
	return st, ds
}

func feed(t testing.TB, st *station.Station, id string, ds *datagen.Dataset, files int) {
	t.Helper()
	comp, err := core.NewCompressor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < files; f++ {
		tr, err := comp.Encode(ds.File(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive(id, tr); err != nil {
			t.Fatal(err)
		}
	}
}

// get performs one request against the handler and decodes the JSON body.
func get(t testing.TB, api *API, url string, wantStatus int) map[string]any {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", url, rec.Code, wantStatus, rec.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body, err)
	}
	return out
}

func TestSensorsEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	out := get(t, api, "/v1/sensors", http.StatusOK)
	sensors := out["sensors"].([]any)
	if len(sensors) != 1 {
		t.Fatalf("%d sensors, want 1", len(sensors))
	}
	info := sensors[0].(map[string]any)
	if info["id"] != "node-1" || info["transmissions"].(float64) != 4 {
		t.Fatalf("sensor info %v wrong", info)
	}
	if info["history_len"].(float64) != 4*64 {
		t.Fatalf("history_len %v, want %d", info["history_len"], 4*64)
	}
}

func TestPointEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	want, _ := st.At("node-1", 0, 17)
	out := get(t, api, "/v1/point?sensor=node-1&row=0&idx=17", http.StatusOK)
	if got := out["value"].(float64); got != want {
		t.Fatalf("point value %v, want %v", got, want)
	}
}

func TestRangeEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	want, _ := st.Range("node-1", 0, 10, 30)
	out := get(t, api, "/v1/range?sensor=node-1&row=0&from=10&to=30", http.StatusOK)
	vals := out["values"].([]any)
	if len(vals) != len(want) {
		t.Fatalf("%d values, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if v.(float64) != want[i] {
			t.Fatalf("value[%d] = %v, want %v", i, v, want[i])
		}
	}
	// to omitted → whole history.
	out = get(t, api, "/v1/range?sensor=node-1&row=0", http.StatusOK)
	if len(out["values"].([]any)) != 4*64 {
		t.Fatalf("full-range length %d, want %d", len(out["values"].([]any)), 4*64)
	}
}

func TestAggregateEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	for _, kind := range []string{"avg", "sum", "min", "max"} {
		url := fmt.Sprintf("/v1/aggregate?sensor=node-1&row=0&from=5&to=200&kind=%s", kind)
		out := get(t, api, url, http.StatusOK)
		hist, _ := st.Range("node-1", 0, 5, 200)
		var want float64
		switch kind {
		case "avg":
			want = hist.Mean()
		case "sum":
			want = hist.Sum()
		case "min":
			want = hist.Min()
		case "max":
			want = hist.Max()
		}
		if got := out["value"].(float64); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("%s = %v, want %v", kind, got, want)
		}
	}
	// Omitted `to` aggregates to the end of the history.
	out := get(t, api, "/v1/aggregate?sensor=node-1&row=0&kind=sum", http.StatusOK)
	if out["to"].(float64) != 4*64 {
		t.Fatalf("sentinel to = %v, want %d", out["to"], 4*64)
	}
}

// TestAggregateBoundMaxAbs checks the deterministic error interval: under
// the MaxAbs metric the answer ± bound must contain the true aggregate of
// the original (uncompressed) samples.
func TestAggregateBoundMaxAbs(t *testing.T) {
	cfg := core.Config{TotalBand: 200, MBase: 64, Metric: metrics.MaxAbs}
	st, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(3, 64, 4)
	comp, err := core.NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var original timeseries.Series
	for f := 0; f < 4; f++ {
		rows := ds.File(f)
		tr, err := comp.Encode(rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive("mx", tr); err != nil {
			t.Fatal(err)
		}
		original = append(original, rows[0]...)
	}
	api := New(st, 0)
	out := get(t, api, "/v1/aggregate?sensor=mx&row=0&from=3&to=250&kind=avg", http.StatusOK)
	value, bound := out["value"].(float64), out["bound"].(float64)
	if bound <= 0 {
		t.Fatalf("MaxAbs sensor must report a positive bound, got %v", bound)
	}
	truth := original[3:250].Mean()
	if math.Abs(value-truth) > bound+1e-9 {
		t.Fatalf("avg %v outside guaranteed interval %v ± %v (truth %v)", value, value, bound, truth)
	}
}

func TestDownsampleEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	want, _ := st.Downsample("node-1", 0, 16)
	out := get(t, api, "/v1/downsample?sensor=node-1&row=0&points=16", http.StatusOK)
	vals := out["values"].([]any)
	if len(vals) != len(want) {
		t.Fatalf("%d values, want %d", len(vals), len(want))
	}
	for i, v := range vals {
		if v.(float64) != want[i] {
			t.Fatalf("value[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestExceedancesEndpoint(t *testing.T) {
	st, _ := newStation(t, 4)
	api := New(st, 0)
	hist, _ := st.History("node-1", 0)
	threshold := hist.Mean()
	want, _ := st.Exceedances("node-1", 0, 0, 0, threshold)
	url := fmt.Sprintf("/v1/exceedances?sensor=node-1&row=0&threshold=%v", threshold)
	out := get(t, api, url, http.StatusOK)
	runs := out["runs"].([]any)
	if len(runs) != len(want) {
		t.Fatalf("%d runs, want %d", len(runs), len(want))
	}
	for i, r := range runs {
		run := r.(map[string]any)
		if int(run["start"].(float64)) != want[i].Start ||
			int(run["end"].(float64)) != want[i].End ||
			run["peak"].(float64) != want[i].Peak {
			t.Fatalf("run[%d] = %v, want %+v", i, run, want[i])
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	st, _ := newStation(t, 2)
	api := New(st, 0)
	get(t, api, "/v1/point?sensor=ghost&row=0&idx=0", http.StatusNotFound)
	get(t, api, "/v1/point?sensor=node-1&row=99&idx=0", http.StatusBadRequest)
	get(t, api, "/v1/aggregate?sensor=node-1&row=0&kind=median", http.StatusBadRequest)
	get(t, api, "/v1/range?sensor=node-1&row=0&from=-3", http.StatusBadRequest)
	get(t, api, "/v1/exceedances?sensor=node-1&row=0", http.StatusBadRequest) // missing threshold
	get(t, api, "/v1/point?sensor=&row=0", http.StatusBadRequest)

	req := httptest.NewRequest(http.MethodPost, "/v1/sensors", nil)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// newArchivedStation builds an instrumented station on a segment store in
// dir that keeps memChunks chunks per sensor in memory and seals a
// segment every two chunks. send delivers node-1's next transmission.
func newArchivedStation(t *testing.T, dir string, memChunks int, ret segstore.Retention) (*station.Station, *segstore.Store, func()) {
	t.Helper()
	st, err := station.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(obs.NewRegistry())
	store, err := segstore.Open(segstore.Options{
		Dir: dir, Config: testConfig(), SegmentChunks: 2, NoSync: true, Retention: ret,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	st.SetArchive(store, memChunks)
	comp, err := core.NewCompressor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.StocksSized(1, 64, 16)
	next := 0
	send := func() {
		t.Helper()
		tr, err := comp.Encode(ds.File(next))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Receive("node-1", tr); err != nil {
			t.Fatal(err)
		}
		next++
	}
	return st, store, send
}

// values decodes a JSON array of numbers.
func values(v any) timeseries.Series {
	raw := v.([]any)
	out := make(timeseries.Series, len(raw))
	for i, x := range raw {
		out[i] = x.(float64)
	}
	return out
}

// runs decodes an /v1/exceedances answer.
func runs(out map[string]any) []station.Exceedance {
	var rs []station.Exceedance
	for _, r := range out["runs"].([]any) {
		run := r.(map[string]any)
		rs = append(rs, station.Exceedance{
			Start: int(run["start"].(float64)), End: int(run["end"].(float64)), Peak: run["peak"].(float64),
		})
	}
	return rs
}

// TestWindowedReadsFetchOnlyOverlappedChunks pins the one read path:
// range and exceedance windows inside the archived prefix decode exactly
// the chunks they overlap, not the whole history, and a frame received
// between two reads shows in the second.
func TestWindowedReadsFetchOnlyOverlappedChunks(t *testing.T) {
	const m, frames, memChunks = 64, 12, 2
	st, _, send := newArchivedStation(t, t.TempDir(), memChunks, segstore.Retention{})
	for f := 0; f < frames; f++ {
		send()
	}
	hist, err := st.History("node-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	threshold := hist.Mean()
	api := New(st, 0)

	cold := (frames - memChunks) * m
	for _, win := range [][2]int{{0, 1}, {70, 200}, {m, 3 * m}, {5*m - 1, 5*m + 1}, {2 * m, cold}} {
		from, to := win[0], win[1]
		overlap := uint64((to-1)/m - from/m + 1)
		q := fmt.Sprintf("sensor=node-1&row=0&from=%d&to=%d&threshold=%v", from, to, threshold)

		before := st.ReadStats().ColdChunks
		out := get(t, api, "/v1/range?"+q, http.StatusOK)
		if got := st.ReadStats().ColdChunks - before; got != overlap {
			t.Errorf("range [%d,%d): %d cold chunks decoded, want %d", from, to, got, overlap)
		}
		if got := values(out["values"]); !timeseries.Equal(got, hist[from:to], 0) {
			t.Errorf("range [%d,%d): values differ from the history", from, to)
		}

		before = st.ReadStats().ColdChunks
		out = get(t, api, "/v1/exceedances?"+q, http.StatusOK)
		if got := st.ReadStats().ColdChunks - before; got != overlap {
			t.Errorf("exceedances [%d,%d): %d cold chunks decoded, want %d", from, to, got, overlap)
		}
		want, err := station.ScanExceedances(hist, from, to, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if got := runs(out); !reflect.DeepEqual(got, want) {
			t.Errorf("exceedances [%d,%d) = %+v, want %+v", from, to, got, want)
		}
	}

	// A frame received between two reads shows in the second: nothing
	// holds on to the history the first read saw.
	get(t, api, "/v1/range?sensor=node-1&row=0", http.StatusOK)
	send()
	out := get(t, api, "/v1/range?sensor=node-1&row=0", http.StatusOK)
	if got := out["to"].(float64); got != (frames+1)*m {
		t.Fatalf("post-ingest range ends at %v, want %d", got, (frames+1)*m)
	}
	grown, err := st.History("node-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := values(out["values"]); !timeseries.Equal(got, grown, 0) {
		t.Error("post-ingest range differs from the grown history")
	}
}

// TestStatusByErrorType checks that every per-sensor endpoint picks its
// status from the type of the station's error: 404 for an unknown sensor,
// 400 for an invalid query, 410 for history that retention purged, and 500
// for a failed archive read.
func TestStatusByErrorType(t *testing.T) {
	// The chunk-aligned aggregate is answered from the aggregate index
	// alone, which still holds the purged chunks' leaves: it must answer
	// 410 all the same.
	const aligned = "/v1/aggregate?sensor=%s&row=%d&from=0&to=128&kind=sum"
	endpoints := []string{
		"/v1/point?sensor=%s&row=%d&idx=1",
		"/v1/range?sensor=%s&row=%d&from=0&to=64",
		"/v1/aggregate?sensor=%s&row=%d&from=1&to=63",
		"/v1/downsample?sensor=%s&row=%d&points=8",
		"/v1/exceedances?sensor=%s&row=%d&from=0&to=64&threshold=0",
		aligned,
	}
	check := func(api *API, id string, row, status int) {
		t.Helper()
		for _, ep := range endpoints {
			want := status
			if ep == aligned && status == http.StatusInternalServerError {
				want = http.StatusOK // no archive read is involved, so nothing fails
			}
			get(t, api, fmt.Sprintf(ep, id, row), want)
		}
	}

	st, _ := newStation(t, 2)
	check(New(st, 0), "ghost", 0, http.StatusNotFound)
	check(New(st, 0), "node-1", 99, http.StatusBadRequest)

	// Retention drops the sealed segments before the newest file a
	// checkpoint rolled to: chunk 0, which every endpoint reads, is gone.
	st, store, send := newArchivedStation(t, t.TempDir(), 2, segstore.Retention{MaxBytes: 1})
	for f := 0; f < 8; f++ {
		send()
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, err := store.EnforceRetention(time.Now()); err != nil || n == 0 {
		t.Fatalf("retention removed %d segments (%v), want some", n, err)
	}
	check(New(st, 0), "node-1", 0, http.StatusGone)

	// A sealed segment file removed behind the open store: reading chunk 0
	// fails on the server's side.
	dir := t.TempDir()
	st, _, send = newArchivedStation(t, dir, 2, segstore.Retention{})
	for f := 0; f < 8; f++ {
		send()
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "node-1", "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v (%v), want a sealed one", segs, err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	check(New(st, 0), "node-1", 0, http.StatusInternalServerError)
}

// TestRestartReadsNoSealedRecords damages a record inside a sealed
// segment and leaves its footer whole. A restart after a checkpoint reads
// the newest file's header and the older files' footers only, so it
// succeeds, and an aggregate over the damaged chunks still answers from
// the footers' summaries; a cold read of the damaged segment answers 500.
func TestRestartReadsNoSealedRecords(t *testing.T) {
	const aligned = "/v1/aggregate?sensor=node-1&row=0&from=0&to=256&kind=max"
	dir := t.TempDir()
	st, store, send := newArchivedStation(t, dir, 2, segstore.Retention{})
	for f := 0; f < 8; f++ {
		send()
	}
	before := get(t, New(st, 0), aligned, http.StatusOK)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte halfway between the first sealed segment's header block
	// and its footer, whose offset the trailer names.
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "node-1", "*.seg"))
	if err != nil || len(segs) != 5 {
		t.Fatalf("segments %v (%v), want 4 sealed and the rolled header", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := 16 + int(binary.LittleEndian.Uint32(data[8:12]))
	footerAt := int(binary.LittleEndian.Uint64(data[len(data)-12:]))
	data[(headerEnd+footerAt)/2] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, _, _ := newArchivedStation(t, dir, 2, segstore.Retention{})
	rec, err := st2.Recover()
	if err != nil {
		t.Fatalf("restart over a damaged record: %v", err)
	}
	if rec.Replayed != 0 {
		t.Errorf("recovery %+v, want nothing replayed", rec)
	}
	api := New(st2, 0)
	if after := get(t, api, aligned, http.StatusOK); !reflect.DeepEqual(after, before) {
		t.Errorf("aggregate after restart %v, want %v", after, before)
	}
	get(t, api, "/v1/point?sensor=node-1&row=0&idx=1", http.StatusInternalServerError)
}

// TestConcurrentIngestAndQueries hammers the API from several readers
// while a writer keeps receiving frames — the serving-while-ingesting
// guarantee, meaningful under `go test -race`.
func TestConcurrentIngestAndQueries(t *testing.T) {
	st, err := station.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const files = 24
	ds := datagen.StocksSized(1, 64, files)
	feed(t, st, "node-1", ds, 2) // seed history so readers never see an empty station
	api := New(st, 8)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		comp, err := core.NewCompressor(testConfig())
		if err != nil {
			t.Error(err)
			return
		}
		for f := 0; f < files; f++ {
			tr, err := comp.Encode(ds.File(f))
			if err != nil {
				t.Error(err)
				return
			}
			if f >= 2 {
				if err := st.Receive("node-1", tr); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	urls := []string{
		"/v1/sensors",
		"/v1/point?sensor=node-1&row=0&idx=3",
		"/v1/range?sensor=node-1&row=0&from=0&to=64",
		"/v1/aggregate?sensor=node-1&row=0&kind=avg",
		"/v1/downsample?sensor=node-1&row=0&points=8",
		"/v1/exceedances?sensor=node-1&row=0&threshold=0",
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // readers
			defer wg.Done()
			for i := 0; i < 50; i++ {
				url := urls[(g+i)%len(urls)]
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: status %d (body %s)", url, rec.Code, rec.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkAggregateHTTP measures end-to-end query throughput of the
// indexed aggregate endpoint.
func BenchmarkAggregateHTTP(b *testing.B) {
	st, _ := newStation(b, 10)
	api := New(st, 0)
	url := "/v1/aggregate?sensor=node-1&row=0&kind=avg"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkRangeHTTP measures the range path: one chunk read through the
// station's windowed reader per request.
func BenchmarkRangeHTTP(b *testing.B) {
	st, _ := newStation(b, 10)
	api := New(st, 0)
	url := "/v1/range?sensor=node-1&row=0&from=0&to=64"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
