// Package httpapi exposes the base station's approximate-query engine over
// HTTP/JSON, so readers can interrogate the compressed history while
// sensor frames keep arriving. Five query kinds are served:
//
//	GET /v1/sensors                                                  — sensor inventory + reception stats
//	GET /v1/point?sensor=&row=&idx=                                  — one reconstructed sample + §4.5 bound
//	GET /v1/range?sensor=&row=&from=&to=                             — reconstructed samples of [from, to)
//	GET /v1/aggregate?sensor=&row=&from=&to=&kind=avg|sum|min|max    — indexed O(log n) aggregate + error bound
//	GET /v1/downsample?sensor=&row=&points=                          — window-averaged plotting export
//	GET /v1/exceedances?sensor=&row=&from=&to=&threshold=            — maximal runs ≥ threshold
//	GET /v1/stats                                                    — full per-sensor reception stats + read-path counters
//
// Range, downsample and exceedance queries need the reconstructed samples
// themselves; they read them through the station's windowed reader, which
// decodes only the chunks a window overlaps. Aggregates never materialise
// anything: they hit the station's hierarchical aggregate index. A `to` of
// 0 (or omitted) means the end of the recorded history, matching the
// station's query sentinel.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/segstore"
	"sbr/internal/station"
)

// TraceHeader carries a trace ID (16 hex digits) on a query request, so a
// read can join the trace of the frame — or workflow — that caused it.
// Responses echo the ID of whatever trace the request recorded into.
const TraceHeader = "X-Sbr-Trace"

// DefaultCacheEntries is unused: the front end keeps no cache. It stays
// only for callers that still pass it to New or NewObserved.
const DefaultCacheEntries = 64

// API is the HTTP front end over one station. It implements http.Handler.
type API struct {
	st  *station.Station
	mux *http.ServeMux
	reg *obs.Registry // nil when uninstrumented
}

// New builds the front end. The int parameter is unused.
func New(st *station.Station, _ int) *API {
	return NewObserved(st, 0, nil)
}

// NewObserved is New with telemetry: per-endpoint request counters and
// latency histograms are registered on reg (nil: uninstrumented, identical
// to New). The int parameter is unused.
func NewObserved(st *station.Station, _ int, reg *obs.Registry) *API {
	a := &API{st: st, mux: http.NewServeMux(), reg: reg}
	a.handle("/v1/sensors", a.handleSensors)
	a.handle("/v1/point", a.handlePoint)
	a.handle("/v1/range", a.handleRange)
	a.handle("/v1/aggregate", a.handleAggregate)
	a.handle("/v1/downsample", a.handleDownsample)
	a.handle("/v1/exceedances", a.handleExceedances)
	a.handle("/v1/stats", a.handleStats)
	return a
}

// spanKey carries the request span through the handler context.
type spanKey struct{}

// reqSpan returns the request's trace span (nil: untraced request).
func reqSpan(r *http.Request) *trace.Span {
	sp, _ := r.Context().Value(spanKey{}).(*trace.Span)
	return sp
}

// handle registers one endpoint, wrapped with its request counter and
// latency histogram (nil-safe no-ops when uninstrumented) and, when the
// station has a tracer, a per-request span: a request carrying the
// TraceHeader joins that trace — the "which frame made this query slow"
// join — while any other request may birth one under the recorder's
// sampling policy.
func (a *API) handle(path string, h http.HandlerFunc) {
	reqs := a.reg.Counter("sbr_httpapi_requests_total",
		"Query-API requests served, by endpoint.", obs.L("endpoint", path))
	secs := a.reg.Histogram("sbr_httpapi_request_seconds",
		"Query-API request latency, by endpoint.", obs.LatencyBuckets, obs.L("endpoint", path))
	a.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if rec := a.st.Tracer(); rec != nil {
			var tr *trace.Trace
			if id, ok := trace.ParseID(r.Header.Get(TraceHeader)); ok {
				tr = rec.Continue(id, r.URL.Query().Get("sensor"))
			} else {
				tr = rec.Begin(r.URL.Query().Get("sensor"))
			}
			if tr != nil {
				sp := tr.StartSpan("http." + strings.TrimPrefix(path, "/v1/"))
				sp.Annotate("query", r.URL.RawQuery)
				w.Header().Set(TraceHeader, tr.TraceID().String())
				r = r.WithContext(context.WithValue(r.Context(), spanKey{}, sp))
				defer func() {
					sp.End()
					tr.Finish()
				}()
			}
		}
		h(w, r)
		reqs.Inc()
		secs.Observe(time.Since(start).Seconds())
	})
}

// ServeHTTP dispatches to the query handlers.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("httpapi: method %s not allowed", r.Method))
		return
	}
	a.mux.ServeHTTP(w, r)
}

// read reads quantity row of sensor id over [from, to) through the
// station's windowed reader, under a station.history span so the read's
// cold archive fetches stay attributed to the request.
func (a *API) read(r *http.Request, id string, row, from, to int) (station.Window, error) {
	sp := reqSpan(r).Child("station.history")
	defer sp.End()
	return a.st.ReadWindow(id, row, from, to, sp)
}

// sensorInfo is one row of the /v1/sensors inventory.
type sensorInfo struct {
	ID            string `json:"id"`
	Transmissions int    `json:"transmissions"`
	Quantities    int    `json:"quantities"`
	SamplesPerRow int    `json:"samples_per_row"`
	HistoryLen    int    `json:"history_len"`
	Restarts      int    `json:"restarts"`
}

func (a *API) handleSensors(w http.ResponseWriter, r *http.Request) {
	ids := a.st.Sensors()
	out := make([]sensorInfo, 0, len(ids))
	for _, id := range ids {
		stats, err := a.st.SensorStats(id)
		if err != nil {
			continue // sensor raced away; inventory stays best-effort
		}
		out = append(out, sensorInfo{
			ID:            id,
			Transmissions: stats.Transmissions,
			Quantities:    stats.Quantities,
			SamplesPerRow: stats.SamplesPerRow,
			HistoryLen:    stats.Transmissions * stats.SamplesPerRow,
			Restarts:      stats.Restarts,
		})
	}
	writeJSON(w, map[string]any{"sensors": out})
}

// sensorStatsJSON mirrors station.Stats for the /v1/stats export.
type sensorStatsJSON struct {
	Transmissions int   `json:"transmissions"`
	Quantities    int   `json:"quantities"`
	SamplesPerRow int   `json:"samples_per_row"`
	RawBytes      int   `json:"raw_bytes"`
	Values        int   `json:"values"`
	BaseInserts   []int `json:"base_inserts"`
	Restarts      int   `json:"restarts"`
}

// handleStats serves the full per-sensor reception statistics plus the
// read-path counters — the JSON twin of stationd's periodic report.
func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	sensors := make(map[string]sensorStatsJSON)
	for _, id := range a.st.Sensors() {
		stats, err := a.st.SensorStats(id)
		if err != nil {
			continue // sensor raced away; stats stay best-effort
		}
		sensors[id] = sensorStatsJSON{
			Transmissions: stats.Transmissions,
			Quantities:    stats.Quantities,
			SamplesPerRow: stats.SamplesPerRow,
			RawBytes:      stats.RawBytes,
			Values:        stats.Values,
			BaseInserts:   stats.BaseInserts,
			Restarts:      stats.Restarts,
		}
	}
	// Read-path counters: query volume and chunks served cold from the
	// archive (the store's segment loads and chunks advanced and decoded
	// ride along under "store").
	out := map[string]any{"sensors": sensors, "query": a.st.ReadStats()}
	if store := a.st.Archive(); store != nil {
		out["store"] = store.StoreStats()
	}
	// Latency SLOs without a Prometheus server: every registered
	// histogram reduced to interpolated p50/p95/p99.
	if lat := a.reg.HistogramSummaries(); len(lat) > 0 {
		out["latency"] = lat
	}
	writeJSON(w, out)
}

func (a *API) handlePoint(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	idx, err := intParam(r, "idx", -1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	value, bound, err := a.st.AtWithBound(id, row, idx)
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{"sensor": id, "row": row, "idx": idx, "value": value, "bound": bound})
}

func (a *API) handleRange(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	win, err := a.read(r, id, row, from, to)
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"sensor": id, "row": row, "from": win.From, "to": win.To,
		"values": win.Values, "bound": win.Bound,
	})
}

func (a *API) handleAggregate(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	kind, err := parseKind(r.URL.Query().Get("kind"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	value, bound, to, err := a.st.AggregateWithBoundTraced(id, row, from, to, kind, reqSpan(r))
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"sensor": id, "row": row, "from": from, "to": to,
		"kind": r.URL.Query().Get("kind"), "value": value, "bound": bound,
	})
}

func (a *API) handleDownsample(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	points, err := intParam(r, "points", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	win, err := a.read(r, id, row, 0, 0)
	if err != nil {
		writeStationError(w, err)
		return
	}
	out, err := station.DownsampleSeries(win.Values, points)
	if err != nil {
		writeStationError(w, err)
		return
	}
	writeJSON(w, map[string]any{"sensor": id, "row": row, "values": out})
}

func (a *API) handleExceedances(w http.ResponseWriter, r *http.Request) {
	id, row, ok := a.target(w, r)
	if !ok {
		return
	}
	from, to, err := rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	threshold, err := floatParam(r, "threshold")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	win, err := a.read(r, id, row, from, to)
	if err != nil {
		writeStationError(w, err)
		return
	}
	runs := win.Exceedances(threshold)
	type runJSON struct {
		Start int     `json:"start"`
		End   int     `json:"end"`
		Peak  float64 `json:"peak"`
	}
	out := make([]runJSON, len(runs))
	for i, e := range runs {
		out[i] = runJSON{Start: e.Start, End: e.End, Peak: e.Peak}
	}
	writeJSON(w, map[string]any{
		"sensor": id, "row": row, "threshold": threshold, "runs": out,
	})
}

// target parses the sensor/row pair every per-quantity endpoint needs.
func (a *API) target(w http.ResponseWriter, r *http.Request) (string, int, bool) {
	id := r.URL.Query().Get("sensor")
	if id == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("httpapi: missing sensor parameter"))
		return "", 0, false
	}
	row, err := intParam(r, "row", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", 0, false
	}
	return id, row, true
}

func parseKind(s string) (station.AggregateKind, error) {
	switch strings.ToLower(s) {
	case "", "avg", "mean":
		return station.AggAvg, nil
	case "sum":
		return station.AggSum, nil
	case "min":
		return station.AggMin, nil
	case "max":
		return station.AggMax, nil
	}
	return 0, fmt.Errorf("httpapi: unknown aggregate kind %q", s)
}

func rangeParams(r *http.Request) (from, to int, err error) {
	if from, err = intParam(r, "from", 0); err != nil {
		return 0, 0, err
	}
	if to, err = intParam(r, "to", 0); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("httpapi: bad %s parameter %q", name, s)
	}
	return v, nil
}

func floatParam(r *http.Request, name string) (float64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, fmt.Errorf("httpapi: missing %s parameter", name)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("httpapi: bad %s parameter %q", name, s)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck — client gone mid-write, nothing to do
}

// writeStationError maps a station error onto its HTTP status by type: an
// unknown sensor is 404, an invalid query 400, history that retention has
// purged 410, and anything else — a failed archive read, a corrupt
// segment, a station and archive that disagree — a server-side 500.
func writeStationError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, station.ErrUnknownSensor):
		status = http.StatusNotFound
	case errors.Is(err, station.ErrInvalidQuery):
		status = http.StatusBadRequest
	case errors.Is(err, segstore.ErrPurged):
		status = http.StatusGone
	}
	writeError(w, status, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
