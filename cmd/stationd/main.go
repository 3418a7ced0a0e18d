// Command stationd runs a standalone base station: it listens for sensor
// connections over TCP, decodes and archives every transmission (one
// segment directory per sensor with -datadir, the file per sensor of
// Section 3.2), answers historical queries over HTTP/JSON, and
// periodically logs a structured reception report. Pair it with sensors
// built on internal/sensor and internal/netio, or try it against
// cmd/sensorsim's source model.
//
//	stationd -addr 127.0.0.1:7070 -http 127.0.0.1:8080 -debug 127.0.0.1:9090 \
//	         -datadir /var/lib/sbr -band 150 -mbase 64
//
// With -datadir set, the daemon runs on the persistent segment store:
// every transmission is archived in its compressed wire form before it is
// acknowledged (a frame the archive refuses is answered with an error,
// and its sensor's later frames too until a restart), and the in-memory
// history is a bounded window (-mem-chunks) with older chunks served cold
// from sealed segments. The segment files are the only state on disk: a
// restart resumes each sensor from its newest file's header and replays
// that file's records, none after a clean shutdown and at most
// -segment-chunks after a crash. -retention-age / -retention-bytes bound
// the archive, enforced once a minute. Without -datadir the station keeps
// its history in memory only.
//
// With -http set, the approximate-query engine is exposed while frames
// keep arriving: point, range, aggregate (answered from the hierarchical
// aggregate index with a deterministic error bound), downsample,
// exceedance and stats queries — see internal/httpapi for the endpoints.
//
// With -debug set, the admin plane is exposed on a separate listener so
// operational traffic never competes with queries:
//
//	GET /healthz                 — liveness: 200 while the process serves HTTP
//	GET /readyz                  — readiness: 503 while draining, archive
//	                               degraded, over the shed watermarks, or a
//	                               page-severity alert is firing; 200 otherwise
//	GET /debug/metrics           — Prometheus text exposition of the obs registry
//	GET /debug/vars              — the same registry as an expvar-style JSON dump
//	GET /debug/metrics/history   — windowed queries over the station's own
//	                               metrics, stored as SBR-compressed history
//	                               (-selfmon*; series/window/step/agg params,
//	                               JSON or format=spark sparklines)
//	GET /debug/alerts            — SLO alert rules and their firing state
//	                               (-alert-rules; multi-window burn rates)
//	GET /debug/traces            — recent end-to-end frame traces (-trace-sample)
//	GET /debug/pprof/…           — the standard net/http/pprof profiles
//
// Self-monitoring (-selfmon, on by default) dogfoods the paper's
// algorithm on the station's own telemetry: every registered series is
// sampled each -selfmon-interval into hot ring buffers whose evicted
// windows are SBR-compressed within a -selfmon-error relative error
// bound, so every windowed answer carries an error bar. The alert engine
// evaluates its rules after every sample; a firing page-severity rule
// fails /readyz.
//
// -mutexprofile N and -blockprofile NS turn on runtime lock-contention
// sampling (1 in N contended mutex events; blocking events >= NS ns), so
// /debug/pprof/mutex and /debug/pprof/block carry real data when chasing
// a read-path contention regression in production.
//
// Every daemon event and the periodic report go through the structured
// logger (internal/obs conventions); -v raises it to debug level. On
// SIGINT or SIGTERM the daemon stops accepting sensors, drains the HTTP
// servers, rolls every sensor's segments to a header-only restart point
// and closes the segment store, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sbr/internal/core"
	"sbr/internal/httpapi"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/hist"
	"sbr/internal/obs/trace"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/wire"
)

// version identifies the build in sbr_build_info; release builds override
// it via -ldflags "-X main.version=v1.2.3".
var version = "dev"

// retentionEvery is how often the archive's retention budgets are
// enforced with -datadir.
const retentionEvery = time.Minute

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "TCP listen address for sensor connections")
		httpAddr   = flag.String("http", "", "HTTP query-API listen address (empty: disabled)")
		debugAddr  = flag.String("debug", "", "admin-plane listen address for /debug/metrics, /debug/vars, /debug/pprof (empty: disabled)")
		dataDir    = flag.String("datadir", "", "persistent segment-store directory (empty: memory only)")
		band       = flag.Int("band", 150, "TotalBand the sensors were configured with")
		mbase      = flag.Int("mbase", 64, "MBase the sensors were configured with")
		every      = flag.Duration("report", 10*time.Second, "statistics reporting interval (0: disabled)")
		retAge     = flag.Duration("retention-age", 0, "drop sealed segments older than this (0: keep forever)")
		retBytes   = flag.Int64("retention-bytes", 0, "archive byte budget; oldest segments dropped beyond it (0: unlimited)")
		segChunks  = flag.Int("segment-chunks", segstore.DefaultSegmentChunks, "transmissions per segment before sealing")
		memChunks  = flag.Int("mem-chunks", 256, "per-sensor in-memory chunk window with -datadir (0: unbounded)")
		verbose    = flag.Bool("v", false, "log at debug level (per-connection events)")
		maxConns   = flag.Int("max-conns", 0, "cap on concurrent sensor connections; extras are shed with a busy ack (0: unlimited)")
		shedQueue  = flag.Int("shed-queue", 0, "ingest watermark: shed arrivals while this many frames are in flight in the station (0: unlimited)")
		retryHint  = flag.Duration("retry-after", 0, "retry-after hint carried in busy acks; reliable clients floor their backoff by it (0: none)")
		idleTO     = flag.Duration("idle-timeout", 0, "close sensor connections silent this long (0: 2m default, negative: never)")
		hsTO       = flag.Duration("handshake-timeout", 0, "drop connections that stall in the handshake (0: 10s default, negative: never)")
		drainTO    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before force-closing connections")
		traceN     = flag.Int("trace-sample", 0, "sample 1 in N station-born traces; wire-propagated traces are always continued (0: tracing disabled)")
		traceCap   = flag.Int("trace-cap", 256, "completed traces retained for /debug/traces")
		selfmon    = flag.Bool("selfmon", true, "store the station's own metrics as SBR-compressed history and evaluate SLO alert rules (/debug/metrics/history, /debug/alerts)")
		selfmonIv  = flag.Duration("selfmon-interval", 5*time.Second, "self-monitoring sampling interval")
		selfmonErr = flag.Float64("selfmon-error", 0.01, "self-monitoring per-window relative error bound")
		alertRules = flag.String("alert-rules", "", "JSON alert-rule file replacing the built-in SLO rules (empty: built-ins)")
		mutexFrac  = flag.Int("mutexprofile", 0, "mutex contention profiling: sample 1 in N contended lock events for /debug/pprof/mutex (0: disabled)")
		blockNs    = flag.Int("blockprofile", 0, "blocking profiling: sample blocking events >= this many ns for /debug/pprof/block (0: disabled)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level)
	dlog := obs.Component(logger, "stationd")
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, version, wire.VersionTraced)
	obs.RegisterRuntimeMetrics(reg)

	// Lock-contention diagnostics for the -debug pprof plane: read-path
	// regressions (a reader blocking ingest, a hot sensor lock) show up in
	// /debug/pprof/mutex and /debug/pprof/block without a rebuild.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
		dlog.Info("mutex profiling enabled", "fraction", *mutexFrac)
	}
	if *blockNs > 0 {
		runtime.SetBlockProfileRate(*blockNs)
		dlog.Info("block profiling enabled", "rate_ns", *blockNs)
	}

	cfg := core.Config{TotalBand: *band, MBase: *mbase, Metric: metrics.SSE}
	st, err := station.New(cfg)
	if err != nil {
		fatal(dlog, err)
	}
	st.Instrument(reg)

	var tracer *trace.Recorder
	if *traceN > 0 {
		tracer = trace.NewRecorder(trace.Options{
			Capacity:    *traceCap,
			SampleEvery: *traceN,
		})
		st.SetTracer(tracer)
		dlog.Info("tracing enabled", "sample_every", *traceN, "capacity", *traceCap)
	}

	var seg *segstore.Store
	if *dataDir != "" {
		var err error
		seg, err = segstore.Open(segstore.Options{
			Dir:           *dataDir,
			Config:        cfg,
			SegmentChunks: *segChunks,
			Retention:     segstore.Retention{MaxAge: *retAge, MaxBytes: *retBytes},
		})
		if err != nil {
			fatal(dlog, err)
		}
		seg.Instrument(reg)
		st.SetArchive(seg, *memChunks)
		// Recovery before anything else: each sensor resumes from its newest
		// segment file's header and replays only that file's records.
		rs, err := st.Recover()
		if err != nil {
			fatal(dlog, err)
		}
		ss := seg.StoreStats()
		dlog.Info("recovered station from segment store", "dir", *dataDir,
			"sensors", rs.Sensors,
			"tail_frames_replayed", rs.Replayed, "torn_tails", ss.TornTails,
			"segments", ss.Segments, "bytes", ss.Bytes,
			"open_s", ss.OpenSeconds, "recover_s", rs.Duration.Seconds(), "workers", rs.Workers)
	}

	srv, err := netio.ServeWith(st, *addr, netio.Options{
		Metrics:          netio.NewMetrics(reg),
		Logger:           logger,
		Tracer:           tracer,
		MaxConns:         *maxConns,
		ShedQueueDepth:   *shedQueue,
		ArchiveDegraded:  st.ArchiveDegraded,
		RetryAfter:       *retryHint,
		IdleTimeout:      *idleTO,
		HandshakeTimeout: *hsTO,
	})
	if err != nil {
		fatal(dlog, err)
	}
	dlog.Info("listening for sensors", "addr", srv.Addr(), "band", *band, "mbase", *mbase)

	httpSrv := serveHTTP(dlog, srv, *httpAddr, "query API", httpapi.NewObserved(st, 0, reg))

	// The self-monitoring plane: a sampler feeding SBR-compressed history
	// of every registered metric, with the alert engine evaluated after
	// each tick and its page-severity verdict wired into /readyz.
	hlth := health(srv, st)
	var sampler *hist.Sampler
	var alerts *hist.Engine
	if *selfmon {
		sampler = hist.NewSampler(reg, hist.Options{
			Interval:   *selfmonIv,
			ErrorBound: *selfmonErr,
		})
		rules := hist.DefaultRules()
		if *alertRules != "" {
			rules, err = hist.LoadRules(*alertRules)
			if err != nil {
				fatal(dlog, err)
			}
		}
		alerts, err = hist.NewEngine(sampler, tracer, rules)
		if err != nil {
			fatal(dlog, err)
		}
		sampler.AfterTick(alerts.Evaluate)
		sampler.Start()
		hlth.Add(httpapi.Check{Name: "alerts", Probe: alerts.PageErr})
		dlog.Info("self-monitoring enabled", "interval", selfmonIv.String(),
			"error_bound", *selfmonErr, "rules", len(rules))
	}

	debugSrv := serveHTTP(dlog, srv, *debugAddr, "debug plane", httpapi.NewDebugMux(httpapi.DebugOptions{
		Registry: reg,
		Tracer:   tracer,
		Health:   hlth,
		History:  sampler,
		Alerts:   alerts,
	}))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *every > 0 {
		ticker := time.NewTicker(*every)
		defer ticker.Stop()
		tick = ticker.C
	}
	var retTick <-chan time.Time
	if seg != nil {
		ticker := time.NewTicker(retentionEvery)
		defer ticker.Stop()
		retTick = ticker.C
	}

	for {
		select {
		case <-tick:
			report(dlog, reg, st)
		case <-retTick:
			enforceRetention(dlog, seg)
		case <-stop:
			if sampler != nil {
				sampler.Stop()
			}
			shutdown(dlog, reg, st, srv, httpSrv, debugSrv, seg, *drainTO)
			return
		}
	}
}

// enforceRetention runs one retention pass on the segment store.
func enforceRetention(log *slog.Logger, seg *segstore.Store) {
	removed, err := seg.EnforceRetention(time.Now())
	if err != nil {
		log.Error("retention failed", "err", err)
	} else if removed > 0 {
		log.Info("retention removed segments", "segments", removed)
	}
}

// serveHTTP starts one HTTP listener in the background, or returns nil
// when addr is empty. Listen failures are fatal: a daemon that silently
// runs without its query API is worse than one that does not start.
func serveHTTP(log *slog.Logger, srv *netio.Server, addr, name string, h http.Handler) *http.Server {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close() //nolint:errcheck — exiting anyway
		fatal(log, err)
	}
	s := &http.Server{Handler: h}
	go func() {
		if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("http server failed", "server", name, "err", err)
		}
	}()
	log.Info("serving http", "server", name, "addr", ln.Addr().String())
	return s
}

// health assembles the readiness checks: not draining, archive not
// degraded, below the shed watermarks. These are the SAME conditions the
// transport's admission control sheds on, so /readyz going 503 predicts
// busy acks on the sensor port.
func health(srv *netio.Server, st *station.Station) *httpapi.Health {
	return httpapi.NewHealth(
		httpapi.Check{Name: "draining", Probe: func() error {
			if srv.Draining() {
				return errors.New("shutting down")
			}
			return nil
		}},
		httpapi.Check{Name: "archive", Probe: func() error {
			if st.ArchiveDegraded() {
				return errors.New("archive degraded: an append failed, and its sensor's frames are refused until restart")
			}
			return nil
		}},
		httpapi.Check{Name: "admission", Probe: func() error {
			if reason := srv.OverWatermark(); reason != "" {
				return fmt.Errorf("shedding arrivals: %s watermark", reason)
			}
			return nil
		}},
	)
}

// shutdown tears the daemon down in dependency order: drain the sensor
// transport gracefully (in-flight frames finish and are acknowledged, so
// sensors do not retransmit work the station already archived), drain
// in-flight HTTP queries, then roll every sensor's segments and close the
// segment store.
func shutdown(log *slog.Logger, reg *obs.Registry, st *station.Station,
	srv *netio.Server, httpSrv, debugSrv *http.Server,
	seg *segstore.Store, drain time.Duration) {

	log.Info("shutting down", "drain", drain.String())
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("draining sensor server", "err", err)
	}
	cancel()
	for _, s := range []*http.Server{httpSrv, debugSrv} {
		if s == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			log.Error("draining http server", "err", err)
		}
		cancel()
	}
	if seg != nil {
		// With all traffic drained, roll every sensor to a header-only
		// newest file holding its end state, then close: the next boot
		// resumes each sensor from that header and replays nothing.
		if err := st.Checkpoint(); err != nil {
			log.Error("final checkpoint failed", "err", err)
		}
		if err := seg.Close(); err != nil {
			log.Error("closing segment store", "err", err)
		}
	}
	report(log, reg, st)
}

// report logs a structured snapshot of the telemetry registry — the same
// numbers /debug/metrics exposes — plus a per-sensor debug line each.
func report(log *slog.Logger, reg *obs.Registry, st *station.Station) {
	v := reg.Values()
	log.Info("station report",
		"sensors", int(v["sbr_station_sensors"]),
		"transmissions", int(v["sbr_station_transmissions_total"]),
		"values", int(v["sbr_station_values_total"]),
		"frames_accepted", int(v["sbr_netio_frames_accepted_total"]),
		"bytes_in", int(v["sbr_netio_bytes_in_total"]),
		"conns_open", int(v["sbr_netio_connections_open"]),
		"rejects_decode", int(v[`sbr_netio_frames_rejected_total{reason="decode"}`]),
		"rejects_receive", int(v[`sbr_netio_frames_rejected_total{reason="receive"}`]),
		"index_depth", int(v["sbr_station_index_depth"]),
		"base_inserts", int(v["sbr_core_base_inserts_total"]),
	)
	for _, id := range st.Sensors() {
		stats, err := st.SensorStats(id)
		if err != nil {
			continue
		}
		log.Debug("sensor report", "sensor", id,
			"transmissions", stats.Transmissions,
			"quantities", stats.Quantities,
			"samples_per_row", stats.SamplesPerRow,
			"values", stats.Values,
			"restarts", stats.Restarts,
		)
	}
}

func fatal(log *slog.Logger, err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}
