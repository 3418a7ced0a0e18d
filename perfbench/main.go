// Command perfbench is the repository's benchmark. It runs one named
// workload against a base station wired the way cmd/stationd wires it
// (durable segment store, TCP sensor port, HTTP query API), drives it over
// loopback from this process, checks every answer, and prints the metrics
// BENCHMARK.json lists. Run it from the root of a checkout, through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload dashboard_live --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload again with every frame and query traced and prints the
// per-layer metrics and the layer table instead. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. Any failed check prints one FAIL line naming the
// workload and the check, and exits 1. README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

// specFile is the benchmark definition, read from the checkout root.
const specFile = "BENCHMARK.json"

// workloads maps each workload name to the function that runs it.
// BENCHMARK.json lists paper_fleet and dashboard_live; ingest_fleet runs
// the same way but is left out of it, because its figures follow the
// host's speed further than the largest bound allows (README.md).
var workloads = map[string]func(runConfig) (*report, error){
	"paper_fleet":    runPaper,
	"ingest_fleet":   runIngest,
	"dashboard_live": runDashboard,
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper_fleet, dashboard_live or ingest_fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics, 0: end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced); err != nil {
		fmt.Printf("FAIL %s: %v\n", *workload, oneLine(err))
		os.Exit(1)
	}
}

// oneLine flattens an error message onto a single line.
func oneLine(err error) string {
	return strings.Join(strings.Fields(err.Error()), " ")
}

func run(workload string, seed int64, seconds, traced int) error {
	runWorkload, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traced)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	want := spec.EndToEnd
	if traced == 1 {
		want = spec.PerLayer
	}

	root, err := makeDataRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	// An interrupted run still removes its data directory.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case sig := <-sigs:
			os.RemoveAll(root)
			fmt.Printf("FAIL %s: interrupted by %v\n", workload, sig)
			os.Exit(1)
		case <-done:
		}
	}()
	env := stamp(workload, seed, root)
	fmt.Println(env.line())

	rep, err := runWorkload(runConfig{seed: seed, seconds: seconds, traced: traced == 1, root: root})
	if err != nil {
		return err
	}
	if err := rep.validate(want); err != nil {
		return err
	}
	rep.print(want)
	return nil
}

// report collects one run's metrics plus the counts printed beside them.
type report struct {
	vals      map[string]measured
	attempted int
	failed    int
	table     []string // the traced run's layer table, printed as is
}

type measured struct {
	value float64
	unit  string
	note  string
}

func newReport() *report { return &report{vals: make(map[string]measured)} }

// set records one metric. note says how it was measured: the sample count
// and percentile for timings, "n/a" where the workload does not exercise
// the layer.
func (r *report) set(name, unit string, v float64, note string) {
	r.vals[name] = measured{value: v, unit: unit, note: note}
}

// validate checks that the run produced exactly the metrics BENCHMARK.json
// lists for this mode, each in the listed unit, and that every value is a
// finite number.
func (r *report) validate(want []metricSpec) error {
	listed := make(map[string]bool, len(want))
	for _, m := range want {
		listed[m.Name] = true
		got, ok := r.vals[m.Name]
		if !ok {
			return fmt.Errorf("metric %s listed in %s was not measured", m.Name, specFile)
		}
		if got.unit != m.Unit {
			return fmt.Errorf("metric %s measured in %q, %s lists %q", m.Name, got.unit, specFile, m.Unit)
		}
		if !finite(got.value) {
			return fmt.Errorf("metric %s is %v", m.Name, got.value)
		}
	}
	var extra []string
	for name := range r.vals {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %s are not listed in %s for this mode", strings.Join(extra, ", "), specFile)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return nil
}

// print writes the human-readable metric lines, the layer table, and the
// JSON result as the last line.
func (r *report) print(want []metricSpec) {
	for _, line := range r.table {
		fmt.Println(line)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range want {
		v := r.vals[m.Name]
		fmt.Printf("metric %-36s %14.6g %-6s %s\n", m.Name, v.value, v.unit, v.note)
		out.Metrics[m.Name] = jsonMetric{Value: v.value, Unit: v.unit}
	}
	fmt.Printf("ops attempted=%d failed=%d fail_ratio=%g\n", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	b, err := json.Marshal(out)
	if err != nil {
		// Every value was checked finite by validate; Marshal cannot fail.
		panic(err)
	}
	fmt.Println(string(b))
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}
