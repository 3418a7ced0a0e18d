package main

import "fmt"

// figures is what a workload measured for the end-to-end metrics. Every
// workload fills all of it, so a metric name means the same thing on each.
type figures struct {
	setupS   []float64 // each set-up: inputs generated and encoded, archive built, stations started
	recoverS []float64 // each restart: segstore.Open + Station.Recover until the first query answers

	// valueRate is samples acknowledged per second of the timed phase and
	// queryRate queries answered per second of the phase issuing them,
	// each the median over the workload's windows; the notes say which.
	valueRate, queryRate float64
	rateNote, queryNote  string

	values  int       // samples acknowledged in the timed phase
	frameMS []float64 // per frame: batch ready (or due) to ack
	frameQ  float64   // the workload's frame tail percentile
	queryMS []float64 // per query: request sent to body read
	queryQ  float64   // the workload's query tail percentile

	wireBytes int   // frame bytes sent in the timed phase
	diskBytes int64 // archive bytes on disk after the timed phase
	archived  int   // samples in the archive after the timed phase
	err       *nmse // read-back reconstruction error
}

// endToEnd sets every end-to-end metric from f. A tail with fewer than
// minBeyondTail samples beyond it fails the run.
func endToEnd(rep *report, f figures) error {
	frameTail, err := tail(f.frameMS, f.frameQ)
	if err != nil {
		return fmt.Errorf("frame_ms_tail: %w", err)
	}
	queryTail, err := tail(f.queryMS, f.queryQ)
	if err != nil {
		return fmt.Errorf("query_ms_tail: %w", err)
	}
	e, err := f.err.value()
	if err != nil {
		return err
	}
	if f.values == 0 || f.archived == 0 || f.valueRate <= 0 || f.queryRate <= 0 {
		return fmt.Errorf("nothing measured: values=%d archived=%d", f.values, f.archived)
	}
	rep.set("setup_s", "s", median(f.setupS), fmt.Sprintf("median of %d set-ups", len(f.setupS)))
	rep.set("recover_s", "s", median(f.recoverS), fmt.Sprintf("median of %d restarts", len(f.recoverS)))
	rep.set("values_per_s", "1/s", f.valueRate, f.rateNote)
	rep.set("frame_ms_p50", "ms", median(f.frameMS), latencyNote(0.5, len(f.frameMS)))
	rep.set("frame_ms_tail", "ms", frameTail, latencyNote(f.frameQ, len(f.frameMS)))
	rep.set("queries_per_s", "1/s", f.queryRate, f.queryNote)
	rep.set("query_ms_p50", "ms", median(f.queryMS), latencyNote(0.5, len(f.queryMS)))
	rep.set("query_ms_tail", "ms", queryTail, latencyNote(f.queryQ, len(f.queryMS)))
	rep.set("wire_bytes_per_value", "B", float64(f.wireBytes)/float64(f.values), fmt.Sprintf("bytes=%d", f.wireBytes))
	rep.set("disk_bytes_per_value", "B", float64(f.diskBytes)/float64(f.archived), fmt.Sprintf("bytes=%d samples=%d", f.diskBytes, f.archived))
	rep.set("error_nmse", "ratio", e, fmt.Sprintf("samples=%d", f.err.samples))
	rep.set("peak_rss_mib", "MiB", peakRSSMiB(), "whole process, set-ups included")
	return nil
}
