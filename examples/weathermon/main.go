// Weathermon is the paper's motivating deployment: a weather station
// records six physically coupled quantities, batches them, and ships
// SBR-compressed transmissions to a base station that keeps a queryable
// long-term history (Section 3.2, Figure 1). The example runs ten
// transmissions into a station archiving them in the on-disk segment
// store, rebuilds a second station from the archive, and answers
// historical point/range/aggregate queries — including the
// strict-error-bound mode of Section 4.5.
package main

import (
	"fmt"
	"log"
	"os"

	"sbr/internal/core"
	"sbr/internal/datagen"
	"sbr/internal/metrics"
	"sbr/internal/segstore"
	"sbr/internal/station"
	"sbr/internal/wire"
)

func main() {
	ds := datagen.WeatherSized(42, 1024, 10)
	n := ds.N() * ds.FileLen
	cfg := core.Config{
		TotalBand: n / 10,
		MBase:     n / 8,
		Metric:    metrics.SSE,
	}

	comp, err := core.NewCompressor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	st, err := station.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	dataDir, err := os.MkdirTemp("", "sbr-weathermon-data")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	store, err := segstore.Open(segstore.Options{Dir: dataDir, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	st.SetArchive(store, 0) // archive every frame; keep the whole history in memory too

	const sensorID = "uw-station"
	fmt.Printf("streaming %d transmissions of %d weather quantities × %d samples\n",
		ds.Files, ds.N(), ds.FileLen)
	for f := 0; f < ds.Files; f++ {
		t, err := comp.Encode(ds.File(f))
		if err != nil {
			log.Fatal(err)
		}
		frame, err := wire.Encode(t)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.ReceiveFrame(sensorID, frame); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  tx %2d: %4d values, %d new base intervals, %5d wire bytes\n",
			f, t.Cost, t.Ins(), len(frame))
	}

	stats, err := st.SensorStats(sensorID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstation holds %d transmissions (%d bytes); base intervals per tx: %v\n",
		stats.Transmissions, stats.RawBytes, stats.BaseInserts)

	// Historical queries over the approximate log.
	day := 96 // samples per day at the 15-minute cadence
	for row, label := range ds.Labels {
		avg, err := st.Aggregate(sensorID, row, 0, day, station.AggAvg)
		if err != nil {
			log.Fatal(err)
		}
		maxv, err := st.Aggregate(sensorID, row, 0, day, station.AggMax)
		if err != nil {
			log.Fatal(err)
		}
		orig := ds.Rows[row][:day]
		fmt.Printf("  day-1 %-11s avg %8.2f (true %8.2f)  max %8.2f (true %8.2f)\n",
			label, avg, orig.Mean(), maxv, orig.Max())
	}

	// Reconstruction fidelity across the whole record.
	fmt.Println("\nfull-history reconstruction error per quantity:")
	for row, label := range ds.Labels {
		hist, err := st.History(sensorID, row)
		if err != nil {
			log.Fatal(err)
		}
		orig := ds.Rows[row][:len(hist)]
		fmt.Printf("  %-11s per-value MSE %10.5f  (signal variance %10.3f)\n",
			label, metrics.MeanSquared(orig, hist), orig.Variance())
	}

	// Shut the archive down the way stationd does — checkpoint, rolling
	// the segment to a header-only restart point, then close — rebuild a
	// station purely from the data directory, and spot-check it.
	if err := st.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	store2, err := segstore.Open(segstore.Options{Dir: dataDir, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	defer store2.Close()
	rebuilt, err := station.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rebuilt.SetArchive(store2, 0)
	if _, err := rebuilt.Recover(); err != nil {
		log.Fatal(err)
	}
	a, _ := st.At(sensorID, 0, 5000)
	b, _ := rebuilt.At(sensorID, 0, 5000)
	fmt.Printf("\narchive recovery check: sample 5000 of air-temp = %.4f (live) vs %.4f (recovered)\n", a, b)

	// The query layer: daily maxima via a windowed query, a plotting export,
	// and a threshold scan ("when did it freeze?") over the approximate log.
	pts, err := st.Run(station.Query{Sensor: sensorID, Row: 0, Step: day, Agg: station.AggMax})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndaily max air temperature across the record (%d days):", len(pts))
	for i, p := range pts {
		if i%16 == 0 {
			fmt.Printf("\n  ")
		}
		fmt.Printf("%6.1f", p.Value)
	}
	fmt.Println()

	frosts, err := st.Exceedances(sensorID, 5, 0, 0, 78) // humidity >= 78 %
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saturated-air episodes (humidity ≥ 78%%): %d runs", len(frosts))
	if len(frosts) > 0 {
		longest := frosts[0]
		for _, r := range frosts {
			if r.End-r.Start > longest.End-longest.Start {
				longest = r
			}
		}
		fmt.Printf(", longest %d samples starting at %d (peak %.1f%%)",
			longest.End-longest.Start, longest.Start, longest.Peak)
	}
	fmt.Println()

	plot, err := st.Downsample(sensorID, 0, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("32-point plotting export of air-temp: min %.1f, max %.1f\n",
		plot.Min(), plot.Max())

	// Strict error bounds (Section 4.5): re-compress the first batch under
	// the max-abs metric and report the guaranteed bound.
	strict := cfg
	strict.Metric = metrics.MaxAbs
	comp2, err := core.NewCompressor(strict)
	if err != nil {
		log.Fatal(err)
	}
	t, err := comp2.Encode(ds.File(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstrict-bound mode: the batch is guaranteed within ±%.3f of the truth\n", t.TotalErr)
}
