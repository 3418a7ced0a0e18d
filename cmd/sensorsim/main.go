// Command sensorsim runs the end-to-end sensor-network simulation of
// Section 3: a field of sensors sampling weather-like quantities, batching
// them, compressing each full buffer with SBR, and routing the frames over
// a multi-hop tree to the base station — with full energy accounting under
// the paper's radio/CPU cost model (one transmitted bit ≈ 1000 CPU
// instructions). It reports the routing tree, per-node energy, and the
// bandwidth/energy savings over a full-resolution feed.
//
// With -station set, every frame the simulated base station accepts is
// also streamed to a running stationd over the fault-tolerant transport
// (per-node reliable clients: connect timeouts, backoff, reconnect,
// retransmission), so the simulation doubles as a live traffic generator:
//
//	stationd  -addr 127.0.0.1:7070 -band 76 -mbase 96 &
//	sensorsim -station 127.0.0.1:7070
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sbr/internal/aggregate"
	"sbr/internal/core"
	"sbr/internal/metrics"
	"sbr/internal/netio"
	"sbr/internal/obs"
	"sbr/internal/obs/hist"
	"sbr/internal/obs/trace"
	"sbr/internal/outbox"
	"sbr/internal/sensornet"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 9, "number of sensor nodes (placed on a grid)")
		rounds   = flag.Int("rounds", 1024, "sampling rounds to simulate")
		buffer   = flag.Int("buffer", 256, "samples per quantity per transmission batch")
		ratio    = flag.Float64("ratio", 0.10, "compression ratio")
		rrange   = flag.Float64("range", 30.0, "radio range")
		seed     = flag.Int64("seed", 42, "simulation seed")
		adaptive = flag.Bool("adaptive", false, "use the Section 4.4 adaptive schedule (full SBR only when needed)")
		uplink   = flag.String("station", "", "stationd address to stream every frame to over the reliable transport (empty: simulate only)")
		traceN   = flag.Int("trace-sample", 0, "sample 1 in N encoded frames for end-to-end tracing (0: tracing disabled)")
		outDir   = flag.String("outbox", "", "directory for per-node durable outboxes: frames are fsynced before first transmit and replayed on restart (empty: memory only)")
		brkN     = flag.Int("breaker-threshold", 0, "trip the uplink circuit breaker open after this many consecutive transport failures (0: disabled)")
		brkCool  = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker waits before a half-open probe")
		selfmon  = flag.Bool("selfmon", true, "record the run's own metrics into the SBR-compressed self-history and print an end-of-run summary")
		selfIv   = flag.Duration("selfmon-interval", 100*time.Millisecond, "self-history sampling interval")
	)
	flag.Parse()

	logger := obs.Component(obs.NewLogger(os.Stderr, slog.LevelInfo), "sensorsim")
	reg := obs.NewRegistry()
	start := time.Now()

	const quantities = 3 // temperature, humidity, light per node
	n := quantities * *buffer
	cfg := core.Config{
		TotalBand: int(*ratio * float64(n)),
		MBase:     n / 8,
		Metric:    metrics.SSE,
	}
	net, err := sensornet.NewNetwork(cfg, sensornet.DefaultEnergyModel(), *rrange, *buffer)
	if err != nil {
		fatal(err)
	}
	if *adaptive {
		net.Adaptive = &core.AdaptivePolicy{MinFullRuns: 2, DegradeFactor: 1.5, Every: 8}
	}

	// Place nodes on a grid fanning out from the base station at (0,0).
	side := int(math.Ceil(math.Sqrt(float64(*nodes))))
	for k := 0; k < *nodes; k++ {
		x := float64(k%side+1) * 20
		y := float64(k/side+1) * 20
		id := fmt.Sprintf("node-%02d", k)
		if err := net.AddNode(id, x, y, weatherSource(*seed+int64(k))); err != nil {
			fatal(err)
		}
	}
	if err := net.Build(); err != nil {
		fatal(err)
	}
	// The whole network feeds one obs registry: the base station's
	// decode/query metrics plus every node compressor's encode fast-path
	// counters (scan-cache hits, incrementally scanned tail shifts), so the
	// final summary and any rejection counts come from one telemetry source.
	net.Instrument(reg)

	// The self-monitoring sampler dogfoods the paper's own compressor on
	// that registry: every counter and gauge above becomes an
	// SBR-compressed time series, summarised (with sparklines) at the end.
	var sampler *hist.Sampler
	if *selfmon {
		sampler = hist.NewSampler(reg, hist.Options{Interval: *selfIv})
		sampler.Start()
	}

	// With sampling on, 1 in N frames is born traced at encode time; the
	// trace context rides the frame's trace header and the station's spans
	// land in the same recorder, so the summary can show where time went.
	var tracer *trace.Recorder
	if *traceN > 0 {
		tracer = trace.NewRecorder(trace.Options{SampleEvery: *traceN})
		net.Trace(tracer)
	}

	// With an uplink, every accepted frame is mirrored to a real stationd
	// through one reliable client per node: the transport retries, backs
	// off and reconnects on its own, and its telemetry lands in the same
	// registry as the simulation's.
	var netMet *netio.Metrics
	var obMet *outbox.Metrics
	clients := make(map[string]*netio.ReliableClient)
	outboxes := make(map[string]*outbox.Outbox)
	if *uplink != "" {
		netMet = netio.NewMetrics(reg)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			obMet = outbox.NewMetrics(reg)
		}
		net.Deliver = func(id string, frame []byte) error {
			rc, ok := clients[id]
			if !ok {
				var ob *outbox.Outbox
				if *outDir != "" {
					var err error
					ob, err = outbox.Open(filepath.Join(*outDir, id+".outbox"),
						outbox.Options{Sensor: id, Metrics: obMet})
					if err != nil {
						return err
					}
					outboxes[id] = ob
				}
				var err error
				rc, err = netio.NewReliable(*uplink, id, netio.ReliableOptions{
					Metrics:          netMet,
					Logger:           logger,
					Tracer:           tracer,
					Outbox:           ob,
					BreakerThreshold: *brkN,
					BreakerCooldown:  *brkCool,
				})
				if err != nil {
					return err
				}
				clients[id] = rc
			}
			return rc.Send(frame)
		}
	}

	fmt.Println("Routing tree (hop-count shortest paths to the base station):")
	for _, line := range net.Describe() {
		fmt.Println(" ", line)
	}

	rep, err := net.Run(*rounds)
	if err != nil {
		fatal(err)
	}
	if *uplink != "" {
		// Drain the uplink: every frame acknowledged before reporting. A
		// node whose flush cannot complete leaves a residue of undelivered
		// frames; the run then reports it per node and exits nonzero so
		// scripted runs detect the loss (or, with -outbox, the deferral).
		residue := make(map[string]*netio.PendingError)
		for id, rc := range clients {
			err := rc.Close()
			var pe *netio.PendingError
			switch {
			case err == nil:
			case errors.As(err, &pe):
				residue[id] = pe
			default:
				fatal(fmt.Errorf("uplink %s: %w", id, err))
			}
		}
		for id, ob := range outboxes {
			if err := ob.Close(); err != nil {
				fatal(fmt.Errorf("outbox %s: %w", id, err))
			}
		}
		if len(residue) > 0 {
			fmt.Fprintf(os.Stderr, "\nsensorsim: run ended with undelivered frames:\n")
			ids := make([]string, 0, len(residue))
			for id := range residue {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			total := 0
			for _, id := range ids {
				pe := residue[id]
				fate := "LOST (no -outbox)"
				if pe.Durable {
					fate = "durable in " + filepath.Join(*outDir, id+".outbox")
				}
				fmt.Fprintf(os.Stderr, "  %-9s %4d frames pending — %s\n", id, pe.Pending, fate)
				total += pe.Pending
			}
			fmt.Fprintf(os.Stderr, "sensorsim: %d frames undelivered across %d nodes\n", total, len(ids))
			os.Exit(1)
		}
		fmt.Printf("\nUplink to %s: %d frames delivered, %d retries, %d reconnects\n",
			*uplink, rep.Transmissions, netMet.Retries.Value(), netMet.Reconnects.Value())
	}

	fmt.Printf("\nSimulated %d rounds, %d transmissions delivered\n", rep.Rounds, rep.Transmissions)
	fmt.Printf("Traffic at base station: %d bytes compressed vs %d bytes raw (ratio %.3f)\n",
		rep.BytesToBase, rep.RawBytes, rep.CompressionRatio())
	fmt.Printf("Network energy: %.3g nJ compressed vs %.3g nJ raw feed — %.1fx saving\n",
		rep.TotalEnergy, rep.RawEnergy, rep.EnergySavingFactor())

	fmt.Println("\nPer-node energy (nJ):")
	ids := net.NodeIDs()
	sort.Strings(ids)
	fmt.Printf("  %-9s %12s %12s %12s %12s  depth\n", "node", "tx", "rx", "cpu", "total")
	for _, id := range ids {
		e := rep.PerNode[id]
		fmt.Printf("  %-9s %12.3g %12.3g %12.3g %12.3g  %d\n",
			id, e.Tx, e.Rx, e.CPU, e.Total(), net.Node(id).Depth())
	}

	// Show that the base station can answer historical queries.
	st := net.Station()
	first := ids[0]
	if avg, err := st.Aggregate(first, 0, 0, *buffer, 0); err == nil {
		fmt.Printf("\nHistorical query: avg(%s, quantity 0, first batch) = %.3f\n", first, avg)
	}

	// Contrast with TAG-style in-network aggregation (Section 1): far fewer
	// messages, but only the registered statistic survives.
	agg, err := net.RunAggregation(*rounds, 0, aggregate.Avg)
	if err != nil {
		fatal(err)
	}
	rawMessages := 0
	for _, id := range ids {
		rawMessages += net.Node(id).Depth() * *rounds
	}
	fmt.Printf("\nIn-network aggregation of quantity 0 over the same %d rounds:\n", *rounds)
	fmt.Printf("  messages: %d (raw per-round forwarding would need %d)\n", agg.Messages, rawMessages)
	fmt.Printf("  bytes: %d, energy: %.3g nJ\n", agg.Bytes, agg.TotalEnergy)
	fmt.Printf("  network-wide avg over the run: %.3f — but no historical detail survives;\n", agg.Results.Mean())
	fmt.Println("  the SBR feed above answers arbitrary historical queries instead.")

	// Latency quantiles from every histogram the run populated — the same
	// interpolated p50/p95/p99 stationd serves on /v1/stats.
	if lat := reg.HistogramSummaries(); len(lat) > 0 {
		fmt.Println("\nLatency quantiles (seconds):")
		for _, h := range lat {
			fmt.Printf("  %-40s n=%-8d p50=%.3g p95=%.3g p99=%.3g\n",
				h.Name, h.Count, h.P50, h.P95, h.P99)
		}
	}

	// Slowest traced frame per pipeline stage, when tracing was sampled.
	if tracer != nil {
		if ex := tracer.Exemplars(); len(ex) > 0 {
			stages := make([]string, 0, len(ex))
			for stage := range ex {
				stages = append(stages, stage)
			}
			sort.Strings(stages)
			fmt.Printf("\nSlow-path exemplars (%d traced frames):\n", len(tracer.Recent(0)))
			for _, stage := range stages {
				tr := ex[stage][0]
				fmt.Printf("  %-16s worst trace %s (%s)\n", stage, tr.TraceID(), tr.Sensor())
			}
		}
	}

	// The run's own telemetry, replayed from the SBR-compressed
	// self-history: proof the operational plane eats its own dog food.
	if sampler != nil {
		sampler.Stop()
		sampler.Tick() // capture the final state as one last sample
		printSelfHistory(sampler, time.Since(start))
	}

	// Final structured summary, from the same registry the station fed.
	v := reg.Values()
	reg.Gauge("sbr_sensorsim_wall_seconds", "Wall-clock time of the whole simulation.").
		Set(time.Since(start).Seconds())
	logger.Info("simulation complete",
		"frames_sent", rep.Transmissions,
		"frames_accepted", int(v["sbr_station_transmissions_total"]),
		"frames_rejected", int(v["sbr_station_rejects_total"]),
		"bytes_to_base", rep.BytesToBase,
		"raw_bytes", rep.RawBytes,
		"values", int(v["sbr_station_values_total"]),
		"base_inserts", int(v["sbr_core_base_inserts_total"]),
		"encodes", int(v["sbr_encode_total"]),
		"search_evals", int(v["sbr_encode_search_evals_total"]),
		"scan_cache_hits", int(v["sbr_encode_cache_hits_total"]),
		"scan_cache_misses", int(v["sbr_encode_cache_misses_total"]),
		"tail_shifts", int(v["sbr_encode_tail_shifts_total"]),
		"screened_shifts", int(v["sbr_encode_screened_shifts_total"]),
		"exact_shifts", int(v["sbr_encode_exact_shifts_total"]),
		"sibling_pairs", int(v["sbr_encode_sibling_pairs_total"]),
		"helper_pairs", int(v["sbr_encode_helper_pairs_total"]),
		"wall", time.Since(start).Round(time.Millisecond).String(),
	)
}

// printSelfHistory summarises the sampler's store — compression totals
// plus a sparkline per busiest series — entirely from windowed queries,
// the same path /debug/metrics/history serves on stationd.
func printSelfHistory(s *hist.Sampler, ran time.Duration) {
	infos := s.Series()
	if len(infos) == 0 {
		return
	}
	var samples, hot int64
	var windows, compressed int
	for _, in := range infos {
		samples += in.Samples
		hot += int64(in.HotSamples)
		windows += in.Windows
		compressed += in.CompressedValues
	}
	fmt.Printf("\nSelf-monitoring history (%d series, sampled every %s, error bound %.3g):\n",
		len(infos), s.Interval(), s.ErrorBound())
	cold := samples - hot
	if cold > 0 {
		fmt.Printf("  cold store: %d windows, %d SBR values for %d samples (%.1fx)\n",
			windows, compressed, cold, float64(cold)/float64(max(1, compressed)))
	} else {
		fmt.Printf("  %d samples, all still in the hot ring (run shorter than a window)\n", samples)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Samples != infos[j].Samples {
			return infos[i].Samples > infos[j].Samples
		}
		return infos[i].Name < infos[j].Name
	})
	if len(infos) > 8 {
		infos = infos[:8]
	}
	window := ran + s.Interval()
	for _, in := range infos {
		pts, _, err := s.RangeOver(in.Name, window, window/48)
		if err != nil || len(pts) == 0 {
			continue
		}
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p.V
		}
		last := pts[len(pts)-1]
		fmt.Printf("  %-44s %s  last=%.4g ±%.2g\n", in.Name, hist.Sparkline(vals), last.V, last.Err)
	}
}

// weatherSource generates a 3-quantity sample stream: diurnal temperature,
// anti-correlated humidity, and a light level, with AR(1)-smooth noise.
func weatherSource(seed int64) sensornet.SampleSource {
	rng := rand.New(rand.NewSource(seed))
	var tn, hn float64
	return func(round int) []float64 {
		h := float64(round) * 0.25 // 15-minute cadence
		diurnal := math.Sin(2 * math.Pi * (h - 9) / 24)
		tn = 0.95*tn + 0.3*rng.NormFloat64()
		hn = 0.95*hn + 0.5*rng.NormFloat64()
		temp := 15 + 8*diurnal + tn
		hum := 70 - 20*diurnal + hn
		light := math.Max(0, 800*math.Sin(2*math.Pi*(h-6)/24)) + 5*rng.Float64()
		return []float64{temp, hum, light}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sensorsim:", err)
	os.Exit(1)
}
