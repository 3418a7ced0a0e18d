package sbr

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"sbr/internal/core"
	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/sensor"
	"sbr/internal/station"
)

// TestEndToEndObservability is the telemetry twin of TestEndToEndSystem:
// the stationd wiring (instrumented station + netio server + query API +
// debug mux) assembled in-process, frames driven over real TCP, and the
// /debug/metrics and /debug/vars planes scraped live. It asserts that
// the exposition is well-formed Prometheus text and that the counters of
// every layer — netio, station, core/SBR, query, httpapi — actually move.
func TestEndToEndObservability(t *testing.T) {
	const (
		quantities = 2
		batchLen   = 128
		batches    = 3
	)
	cfg := core.Config{
		TotalBand: quantities * batchLen / 8,
		MBase:     quantities * batchLen / 8,
		Metric:    metrics.MaxAbs, // exercises the §4.5 error-bound metrics too
	}

	reg := obs.NewRegistry()
	st, err := station.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)

	srv, err := netio.ServeWith(st, "127.0.0.1:0", netio.Options{
		Metrics: netio.NewMetrics(reg),
		Logger:  obs.NewLogger(io.Discard, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The stationd-style admin mux, served for real over HTTP.
	mux := http.NewServeMux()
	mux.Handle("/debug/metrics", reg.MetricsHandler())
	mux.Handle("/debug/vars", reg.VarsHandler())
	debug := httptest.NewServer(mux)
	defer debug.Close()

	api := httptest.NewServer(httpapi.NewObserved(st, 8, reg))
	defer api.Close()

	// Stream real frames over TCP, keeping the last frame so the
	// retransmission path can be exercised afterwards.
	client, err := netio.Dial(srv.Addr(), "obs-sensor")
	if err != nil {
		t.Fatal(err)
	}
	var lastFrame []byte
	sn, err := sensor.New(sensor.Config{Core: cfg, Quantities: quantities, BatchLen: batchLen},
		func(_ *core.Transmission, frame []byte) error {
			lastFrame = append(lastFrame[:0], frame...)
			return client.Send(frame)
		})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < batches*batchLen; i++ {
		x := float64(i) / 30
		if err := sn.Record(math.Sin(x)+0.05*rng.NormFloat64(), math.Cos(x)+0.05*rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}

	// A retransmitted, already-accepted frame (the lost-ack scenario) must
	// be re-acknowledged OK and counted as a duplicate, not double-logged.
	if err := client.Send(lastFrame); err != nil {
		t.Fatalf("retransmitted frame not re-acked: %v", err)
	}

	// A frame with a corrupted magic must be counted as a decode reject.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{'S', 'B', 'R', 'S', 3, 'b', 'a', 'd'}) //nolint:errcheck
	raw.Write([]byte("XXXXgarbage-frame-bytes"))            //nolint:errcheck
	ack := make([]byte, 1)
	if _, err := io.ReadFull(raw, ack); err != nil || ack[0] == 0x06 {
		t.Fatalf("garbage frame not rejected: ack=%v err=%v", ack, err)
	}
	raw.Close()

	// Exercise the query API: aggregate hits the index, the two ranges
	// read their windows through the station.
	for _, path := range []string{
		"/v1/aggregate?sensor=obs-sensor&row=0&kind=avg",
		"/v1/range?sensor=obs-sensor&row=0&from=0&to=64",
		"/v1/range?sensor=obs-sensor&row=0&from=64&to=128",
	} {
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	vals := scrapeMetrics(t, debug.URL+"/debug/metrics")

	wantAtLeast := map[string]float64{
		"sbr_netio_connections_total":                             2,
		"sbr_netio_frames_accepted_total":                         batches,
		`sbr_netio_frames_rejected_total{reason="decode"}`:        1,
		"sbr_netio_bytes_in_total":                                1,
		"sbr_netio_frame_seconds_count":                           batches,
		"sbr_station_transmissions_total":                         batches,
		"sbr_station_sensors":                                     1,
		"sbr_station_receive_seconds_count":                       batches,
		"sbr_station_index_depth":                                 1,
		"sbr_core_intervals_total":                                1,
		"sbr_core_achieved_error_count":                           batches,
		"sbr_core_error_bound_count":                              batches,
		"sbr_query_index_queries_total":                           1,
		"sbr_query_index_nodes_total":                             1,
		`sbr_httpapi_requests_total{endpoint="/v1/aggregate"}`:    1,
		`sbr_httpapi_requests_total{endpoint="/v1/range"}`:        2,
		`sbr_httpapi_request_seconds_count{endpoint="/v1/range"}`: 2,
		"sbr_netio_frames_duplicate_total":                        1,
	}
	for name, want := range wantAtLeast {
		if got := vals[name]; got < want {
			t.Errorf("metric %s = %g, want >= %g", name, got, want)
		}
	}

	// The fault-tolerance counters are part of the scrape surface even
	// when nothing has gone wrong: dashboards and alerts bind to them at
	// deploy time, not at first failure.
	for _, name := range []string{
		"sbr_netio_retries_total",
		"sbr_netio_reconnects_total",
		"sbr_netio_connections_shed_total",
		"sbr_station_replayed_frames_total",
		"sbr_station_duplicates_total",
		"sbr_station_torn_tails_total",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("metric %s missing from the exposition", name)
		}
	}

	// Histogram exposition must be internally consistent: the +Inf bucket
	// equals the series count.
	inf := vals[`sbr_station_receive_seconds_bucket{le="+Inf"}`]
	if cnt := vals["sbr_station_receive_seconds_count"]; inf != cnt {
		t.Errorf("+Inf bucket %g != count %g", inf, cnt)
	}

	// /debug/vars must be a parseable JSON dump of the same registry.
	resp, err := http.Get(debug.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if got := dump["sbr_netio_frames_accepted_total"].(float64); got < batches {
		t.Errorf("/debug/vars frames accepted = %g, want >= %d", got, batches)
	}

	// /v1/stats reports per-sensor stats and the read-path counters.
	resp2, err := http.Get(api.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var stats struct {
		Sensors map[string]struct {
			Transmissions int `json:"transmissions"`
			Values        int `json:"values"`
		} `json:"sensors"`
		Query struct {
			Queries uint64 `json:"queries"`
		} `json:"query"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sensors["obs-sensor"].Transmissions != batches {
		t.Errorf("/v1/stats transmissions = %d, want %d", stats.Sensors["obs-sensor"].Transmissions, batches)
	}
	if stats.Query.Queries < 3 {
		t.Errorf("/v1/stats query = %+v, want the three reads counted", stats.Query)
	}

	client.Close()
}

// scrapeMetrics GETs a Prometheus text exposition, validates its shape
// line by line, and returns every series as name{labels} → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	types := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Series lines are "name{labels} value" with no spaces inside the
		// label block (the exposition never emits spaces in label values
		// here), so two fields exactly.
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed series line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("series %q has non-numeric value: %v", line, err)
		}
		out[fields[0]] = v
		// Every series must belong to a typed family: its name, or the
		// name with a histogram suffix stripped, has a TYPE header.
		base := fields[0]
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		ok := false
		for _, cand := range []string{
			base,
			strings.TrimSuffix(base, "_bucket"),
			strings.TrimSuffix(base, "_sum"),
			strings.TrimSuffix(base, "_count"),
		} {
			if _, hit := types[cand]; hit {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("series %q has no TYPE header", line)
		}
	}
	if len(out) == 0 {
		t.Fatal("empty exposition")
	}
	return out
}
