package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"sbr/internal/core"
	"sbr/internal/httpapi"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/trace"
	"sbr/internal/segstore"
	"sbr/internal/station"
)

// memChunks is cmd/stationd's -mem-chunks default: the per-sensor
// in-memory window; older chunks are served cold from the archive.
const memChunks = 256

// stack is one base station wired the way cmd/stationd wires it with
// -datadir and -http set, every other flag at its default: station.New,
// segstore.Open in its durable default mode, SetArchive, Recover,
// netio.ServeWith and httpapi.NewObserved, all on one registry.
// Self-monitoring is left out: its sampler runs on a 5 s ticker and would
// add a periodic disturbance to every figure.
type stack struct {
	dir string
	cfg core.Config
	rec *trace.Recorder // nil: untraced

	reg      *obs.Registry
	st       *station.Station
	seg      *segstore.Store
	srv      *netio.Server
	hs       *http.Server
	tcpAddr  string
	httpAddr string

	openDur    time.Duration // segstore.Open
	recoverDur time.Duration // Station.Recover
}

// openStack starts a station on dir, recovering whatever a previous stack
// left there. Listeners bind 127.0.0.1 on ephemeral ports.
// In a traced restart, sp records the benchmark's spans around
// segstore.Open and Station.Recover.
func openStack(dir string, cfg core.Config, rec *trace.Recorder, sp *trace.Span) (*stack, error) {
	s := &stack{dir: dir, cfg: cfg, rec: rec, reg: obs.NewRegistry()}
	st, err := station.New(cfg)
	if err != nil {
		return nil, err
	}
	st.Instrument(s.reg)
	if rec != nil {
		st.SetTracer(rec)
	}
	osp := sp.Child("bench.open")
	t0 := time.Now()
	seg, err := segstore.Open(segstore.Options{
		Dir:           dir,
		Config:        cfg,
		SegmentChunks: segstore.DefaultSegmentChunks,
	})
	s.openDur = time.Since(t0)
	osp.End()
	if err != nil {
		return nil, err
	}
	seg.Instrument(s.reg)
	st.SetArchive(seg, memChunks)
	rsp := sp.Child("bench.recover")
	t1 := time.Now()
	_, err = st.Recover()
	s.recoverDur = time.Since(t1)
	rsp.End()
	if err != nil {
		seg.Close()
		return nil, err
	}
	s.st, s.seg = st, seg

	srv, err := netio.ServeWith(st, "127.0.0.1:0", netio.Options{
		Metrics:         netio.NewMetrics(s.reg),
		Logger:          obs.NewLogger(os.Stderr, slog.LevelInfo),
		Tracer:          rec,
		ArchiveDegraded: st.ArchiveDegraded,
	})
	if err != nil {
		seg.Close()
		return nil, err
	}
	s.srv, s.tcpAddr = srv, srv.Addr()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		seg.Close()
		return nil, err
	}
	s.httpAddr = ln.Addr().String()
	s.hs = &http.Server{Handler: httpapi.NewObserved(st, httpapi.DefaultCacheEntries, s.reg)}
	go s.hs.Serve(ln) //nolint:errcheck — returns ErrServerClosed at close
	return s, nil
}

// close shuts the stack down in cmd/stationd's order: drain the sensor
// port, drain HTTP, write a final checkpoint, close the store (sealing
// the active segments).
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{s.srv.Shutdown(ctx), s.hs.Shutdown(ctx)}
	errs = append(errs, s.st.Checkpoint(), s.seg.Close())
	return errors.Join(errs...)
}

// reopen opens a fresh stack on the directory of s, which the caller has
// closed. It returns the new stack and the time from the start of
// segstore.Open until the first query (a point read of probe) is answered.
func (s *stack) reopen(client *apiClient, probe string, sp *trace.Span) (*stack, time.Duration, error) {
	client.CloseIdleConnections()
	settle()
	t0 := time.Now()
	ns, err := openStack(s.dir, s.cfg, s.rec, sp)
	if err != nil {
		return nil, 0, fmt.Errorf("reopening station: %w", err)
	}
	qsp := sp.Child("bench.http")
	_, err = client.point(ns.httpAddr, probe, 0, 0, sp.Trace().TraceID())
	qsp.End()
	if err != nil {
		ns.close()
		return nil, 0, fmt.Errorf("first query after restart: %w", err)
	}
	return ns, time.Since(t0), nil
}

// apiClient issues the benchmark's HTTP queries over one keep-alive
// connection.
type apiClient struct {
	*http.Client
}

func newAPIClient() *apiClient {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &apiClient{Client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// get issues one query and returns its body and the time from sending the
// request to reading the whole body. A traced query joins trace id.
func (c *apiClient) get(addr, path string, q url.Values, id trace.ID) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+path+"?"+q.Encode(), nil)
	if err != nil {
		return nil, 0, err
	}
	if id != 0 {
		req.Header.Set(httpapi.TraceHeader, id.String())
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("GET %s?%s: status %d: %s", path, q.Encode(), resp.StatusCode, body)
	}
	return body, d, nil
}

// pointAnswer is the /v1/point response.
type pointAnswer struct {
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
}

// point reads one sample. It is the restart probe and the point query of
// the read phases.
func (c *apiClient) point(addr, sensor string, row, idx int, id trace.ID) (pointAnswer, error) {
	var a pointAnswer
	body, _, err := c.get(addr, "/v1/point", url.Values{
		"sensor": {sensor}, "row": {itoa(row)}, "idx": {itoa(idx)},
	}, id)
	if err != nil {
		return a, err
	}
	return a, json.Unmarshal(body, &a)
}

// rangeAnswer is the /v1/range response.
type rangeAnswer struct {
	Values []float64 `json:"values"`
	Bound  float64   `json:"bound"`
}

// readRange reads samples [from, to) of one quantity.
func (c *apiClient) readRange(addr, sensor string, row, from, to int, id trace.ID) (rangeAnswer, time.Duration, error) {
	var a rangeAnswer
	body, d, err := c.get(addr, "/v1/range", url.Values{
		"sensor": {sensor}, "row": {itoa(row)}, "from": {itoa(from)}, "to": {itoa(to)},
	}, id)
	if err != nil {
		return a, d, err
	}
	return a, d, json.Unmarshal(body, &a)
}

func itoa(v int) string { return fmt.Sprint(v) }
