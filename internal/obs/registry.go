package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind discriminates the three metric families. It is exported so
// snapshot consumers (Registry.Visit) can branch on the family without
// parsing exposition text.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (labels → metric) instance of a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // lazy gauge: evaluated at scrape time instead of g
}

// gaugeValue resolves a gauge series: the callback when one is installed
// (GaugeFunc), otherwise the stored value.
func (s *series) gaugeValue() float64 {
	if s.fn != nil {
		return s.fn()
	}
	return s.g.Value()
}

// family groups every series sharing a metric name.
type family struct {
	name  string
	help  string
	kind  Kind
	order []*series
	byKey map[string]*series
}

// Registry is a named collection of metrics. Constructors are
// get-or-create: asking twice for the same name and labels returns the
// same instance, so independent packages can share a counter. All
// methods are safe for concurrent use, and safe on a nil receiver —
// a nil registry hands out nil (no-op) metrics, which is how the
// "observability off" configuration works.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the named counter, creating and registering it on
// first use. It panics if the name is invalid or already registered with
// a different type — a programmer error, like expvar's.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(KindCounter, name, help, labels, nil)
	return s.c
}

// Gauge returns the named gauge, creating and registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(KindGauge, name, help, labels, nil)
	return s.g
}

// GaugeFunc registers a lazy gauge: fn is evaluated at each scrape
// instead of storing values — the right shape for quantities the runtime
// already tracks (goroutine counts, heap bytes) where pushing updates
// would mean polling. The first registration's callback wins; fn must be
// safe for concurrent calls. A nil registry ignores the registration.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookupFunc(KindGauge, name, help, labels, nil, fn)
}

// Histogram returns the named histogram, creating and registering it on
// first use. The bucket bounds only matter at creation; later calls with
// the same name and labels return the existing instance.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(KindHistogram, name, help, labels, bounds)
	return s.h
}

func (r *Registry) lookup(k Kind, name, help string, labels []Label, bounds []float64) *series {
	return r.lookupFunc(k, name, help, labels, bounds, nil)
}

// lookupFunc is lookup carrying an optional lazy-gauge callback, which
// must be installed inside the registry lock: a concurrent scrape sees
// either no series or a fully built one, never a half-initialised fn.
func (r *Registry) lookupFunc(k Kind, name, help string, labels []Label, bounds []float64, fn func() float64) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	key := labelKey(labels)
	s, ok := f.byKey[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), fn: fn}
		switch k {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = NewHistogram(bounds)
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// famSnap is one family with its series list as of a snapshot.
type famSnap struct {
	*family
	series []*series
}

// snapshot copies the family list, and each family's series list (which a
// concurrent registration appends to), under the lock; the metric values
// themselves are read atomically afterwards, so a scrape never blocks a
// hot-path update for longer than the list copy.
func (r *Registry) snapshot() []famSnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]famSnap, len(r.order))
	for i, f := range r.order {
		out[i] = famSnap{f, f.order}
	}
	return out
}

// Sample is one registered series as a Visit callback sees it: the family
// identity plus an atomically read value snapshot. Counters surface their
// count (as a float64) and gauges their value — lazy GaugeFunc gauges are
// evaluated — in Value; histograms carry their state in Hist and leave
// Value zero. Labels is shared with the registry and must not be mutated.
type Sample struct {
	Name   string
	Help   string
	Labels []Label
	Kind   Kind
	Value  float64
	Hist   *HistView
}

// FullName is the exposition identity of the series: the family name with
// the rendered label set appended — the key Values and WriteJSON use, and
// the series name the self-monitoring sampler stores history under.
func (s *Sample) FullName() string { return s.Name + labelString(s.Labels, "") }

// DerivedName is FullName with a suffix spliced between the family name
// and the label set — the naming scheme for the series the
// self-monitoring sampler derives from one histogram sample
// (name_p99{...}, name_count{...}).
func (s *Sample) DerivedName(suffix string) string {
	return s.Name + suffix + labelString(s.Labels, "")
}

// HistView is one histogram's state at Visit time. Bounds is shared with
// the live histogram (immutable after construction; do not mutate);
// Counts is a fresh per-bucket snapshot with the +Inf bucket last, and
// Count is the sum of that snapshot, so rank arithmetic over the view is
// internally consistent even against a racing Observe.
type HistView struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Quantile estimates the q-quantile of the view with the same
// interpolation as Histogram.Quantile.
func (v *HistView) Quantile(q float64) float64 {
	if v == nil {
		return 0
	}
	return bucketQuantile(v.Bounds, v.Counts, v.Count, q)
}

// Visit calls fn once per registered series, in registration order
// (family-major, so all series of one name are contiguous). Values are
// read atomically at call time; the registry lock is held only while the
// family list is copied, never across callbacks, so fn may take locks of
// its own and GaugeFunc callbacks run outside the registry lock. This is
// the structured snapshot API the exposition writers, Values and the
// self-monitoring sampler are built on — nothing iterates exposition
// text. A nil registry visits nothing.
func (r *Registry) Visit(fn func(Sample)) {
	if r == nil {
		return
	}
	for _, f := range r.snapshot() {
		for _, s := range f.series {
			smp := Sample{Name: f.name, Help: f.help, Labels: s.labels, Kind: f.kind}
			switch f.kind {
			case KindCounter:
				smp.Value = float64(s.c.Value())
			case KindGauge:
				smp.Value = s.gaugeValue()
			case KindHistogram:
				counts := s.h.BucketCounts()
				var total uint64
				for _, c := range counts {
					total += c
				}
				smp.Hist = &HistView{Bounds: s.h.bounds, Counts: counts, Count: total, Sum: s.h.Sum()}
			}
			fn(smp)
		}
	}
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series, and
// cumulative le-labelled buckets plus _sum/_count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var err error
	last := ""
	r.Visit(func(s Sample) {
		if err != nil {
			return
		}
		if s.Name != last {
			last = s.Name
			if s.Help != "" {
				if _, err = fmt.Fprintf(w, "# HELP %s %s\n", s.Name, escapeHelp(s.Help)); err != nil {
					return
				}
			}
			if _, err = fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return
			}
		}
		err = writeSample(w, s)
	})
	return err
}

func writeSample(w io.Writer, s Sample) error {
	switch s.Kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labelString(s.Labels, ""), formatFloat(s.Value))
		return err
	}
	var cum uint64
	for i, c := range s.Hist.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Hist.Bounds) {
			le = formatFloat(s.Hist.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			s.Name, labelString(s.Labels, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		s.Name, labelString(s.Labels, ""), formatFloat(s.Hist.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, labelString(s.Labels, ""), s.Hist.Count)
	return err
}

// labelString renders {k="v",…}, appending the le label when non-empty.
func labelString(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON writes an expvar-style dump: a flat object keyed by the
// exposition name (labels included), counters and gauges as numbers and
// histograms as {count, sum, buckets} objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}")
		return err
	}
	out := make(map[string]any)
	r.Visit(func(s Sample) {
		key := s.FullName()
		switch s.Kind {
		case KindCounter:
			out[key] = uint64(s.Value)
		case KindGauge:
			out[key] = s.Value
		case KindHistogram:
			buckets := make(map[string]uint64, len(s.Hist.Counts))
			var cum uint64
			for i, c := range s.Hist.Counts {
				cum += c
				le := "+Inf"
				if i < len(s.Hist.Bounds) {
					le = formatFloat(s.Hist.Bounds[i])
				}
				buckets[le] = cum
			}
			out[key] = map[string]any{
				"count":   s.Hist.Count,
				"sum":     s.Hist.Sum,
				"buckets": buckets,
			}
		}
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Values flattens every series to a float64 keyed by exposition name;
// histograms contribute name_count and name_sum. It is the snapshot the
// daemons log from on their reporting tick.
func (r *Registry) Values() map[string]float64 {
	out := make(map[string]float64)
	r.Visit(func(s Sample) {
		key := s.FullName()
		switch s.Kind {
		case KindCounter, KindGauge:
			out[key] = s.Value
		case KindHistogram:
			out[key+"_count"] = float64(s.Hist.Count)
			out[key+"_sum"] = s.Hist.Sum
		}
	})
	return out
}

// HistogramSummary is one histogram series reduced to its headline
// quantiles — the latency-SLO view of /v1/stats and the simulator
// summary.
type HistogramSummary struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// HistogramSummaries reduces every registered histogram with at least one
// observation to interpolated p50/p95/p99 (see Histogram.Quantile).
func (r *Registry) HistogramSummaries() []HistogramSummary {
	if r == nil {
		return nil
	}
	var out []HistogramSummary
	r.Visit(func(s Sample) {
		if s.Kind != KindHistogram || s.Hist.Count == 0 {
			return
		}
		out = append(out, HistogramSummary{
			Name:   s.Name,
			Labels: labelString(s.Labels, ""),
			Count:  s.Hist.Count,
			Sum:    s.Hist.Sum,
			P50:    s.Hist.Quantile(0.50),
			P95:    s.Hist.Quantile(0.95),
			P99:    s.Hist.Quantile(0.99),
		})
	})
	return out
}

// Names returns the registered family names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	fams := r.snapshot()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.name
	}
	return out
}

// SortedNames returns the registered family names sorted, for stable
// test assertions and docs.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// MetricsHandler serves the Prometheus text exposition (GET /debug/metrics).
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck — client gone mid-scrape, nothing to do
	})
}

// VarsHandler serves the JSON dump (GET /debug/vars).
func (r *Registry) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w) //nolint:errcheck
	})
}
