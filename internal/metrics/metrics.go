// Package metrics is the serving stack's instrumentation substrate:
// atomic counters, fixed log-bucket latency histograms and gauges read at
// scrape time, plus a registry that renders them in the Prometheus text
// exposition format.
//
// The paper's evaluation is built on measured per-query behavior —
// candidates generated, verifications run, time per repetition — and the
// serving layers grown around cpindex need the same numbers continuously,
// not as a one-off harness. The design constraints come from the query
// path they instrument:
//
//   - Observe/Inc/Add are single atomic RMW operations on fixed storage —
//     no allocation, no locks — so the zero-allocations-per-query contract
//     of the flat query engine survives instrumentation (enforced by
//     AllocsPerRun gates in internal/shard and internal/cpindex).
//   - Histograms use fixed power-of-two nanosecond buckets (1.024µs up to
//     ~8.6s, then +Inf), so bucketing is a bits.Len64, not a search, and
//     two histograms are always mergeable.
//   - Exposition is pull-based text format: a scrape walks the registry
//     and formats current values; nothing is computed on the hot path.
//
// Registration is idempotent per (name, labels) pair — re-registering
// replaces the previous collector — so layers that may be constructed
// more than once over one registry (servers over a shared index) stay
// well-formed.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// histBuckets is the fixed bucket count: bounds are 1024ns << i for
// i in [0, histBuckets), i.e. 1.024µs up to ~8.6s; slower observations
// land only in the implicit +Inf bucket.
const histBuckets = 24

// histBound returns bucket i's upper bound in nanoseconds.
func histBound(i int) uint64 { return 1024 << uint(i) }

// Histogram is a fixed log-bucket latency histogram. Observe is a few
// atomic adds on fixed arrays — zero allocations, no locks — so it can
// sit on the per-query hot path.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.sumNs.Add(uint64(ns))
	h.count.Add(1)
	if i := bucketIdx(uint64(ns)); i < histBuckets {
		h.buckets[i].Add(1)
	}
}

// bucketIdx returns the index of the first bucket whose bound is >= ns
// (histBuckets when only +Inf qualifies).
func bucketIdx(ns uint64) int {
	if ns <= 1024 {
		return 0
	}
	return bits.Len64(ns-1) - 10
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumSeconds returns the sum of all observed durations in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Collector kinds. Exactly one of the payload fields of an entry is set.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// entry is one registered collector: a name, optional rendered label
// pairs, and the value source.
type entry struct {
	name   string
	help   string
	typ    string
	labels string // rendered `k="v",k2="v2"` form, "" when unlabeled

	counter   *Counter
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// Registry holds an ordered set of collectors and renders them in the
// Prometheus text format. All methods are safe for concurrent use;
// collection (WritePrometheus) never blocks writers to the collectors
// themselves, only concurrent registration.
type Registry struct {
	mu   sync.Mutex
	ents []*entry
	// byKey indexes entries by name+labels for idempotent registration.
	byKey map[string]*entry
	// typeOf pins the collector type per name — Prometheus forbids one
	// name carrying two types.
	typeOf map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry), typeOf: make(map[string]string)}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// renderLabels validates and renders alternating key, value label pairs.
// Invalid names and odd pair counts panic: labels are compile-time
// constants or operator-supplied identifiers, so a bad one is a
// programming error, not an input error.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", labels))
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if !labelRe.MatchString(labels[i]) {
			panic(fmt.Sprintf("metrics: invalid label name %q", labels[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// register installs e, replacing any previous collector with the same
// (name, labels) key, and enforces one type per name.
func (r *Registry) register(e *entry) {
	if !nameRe.MatchString(e.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", e.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.typeOf[e.name]; ok && t != e.typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", e.name, t, e.typ))
	}
	r.typeOf[e.name] = e.typ
	key := e.name + "{" + e.labels + "}"
	if old, ok := r.byKey[key]; ok {
		*old = *e
		return
	}
	r.byKey[key] = e
	r.ents = append(r.ents, e)
}

// Counter registers and returns a counter. labels are alternating
// key, value pairs baked into every sample line.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, typ: typeCounter, labels: renderLabels(labels), counter: c})
	return c
}

// Histogram registers and returns a histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	h := &Histogram{}
	r.register(&entry{name: name, help: help, typ: typeHistogram, labels: renderLabels(labels), hist: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for wiring in counters that already live elsewhere (cache hit
// counts, scheduler totals) without double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.register(&entry{name: name, help: help, typ: typeCounter, labels: renderLabels(labels), counterFn: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time. It is the only
// gauge: what a gauge reports (ring shape, cache size, queue depth) already
// lives elsewhere, so the registry reads it instead of keeping a copy.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(&entry{name: name, help: help, typ: typeGauge, labels: renderLabels(labels), gaugeFn: fn})
}

// WritePrometheus renders every registered collector in the text
// exposition format (version 0.0.4): one HELP/TYPE header per metric
// name, then every sample of that name in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ents := append([]*entry(nil), r.ents...)
	r.mu.Unlock()

	// Group samples under one header per name, preserving the order names
	// first appeared in.
	order := make([]string, 0, len(ents))
	byName := make(map[string][]*entry, len(ents))
	for _, e := range ents {
		if _, ok := byName[e.name]; !ok {
			order = append(order, e.name)
		}
		byName[e.name] = append(byName[e.name], e)
	}

	var b strings.Builder
	for _, name := range order {
		group := byName[name]
		if h := group[0].help; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(h))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, group[0].typ)
		for _, e := range group {
			switch {
			case e.counter != nil:
				writeSample(&b, e.name, e.labels, formatUint(e.counter.Value()))
			case e.counterFn != nil:
				writeSample(&b, e.name, e.labels, formatUint(e.counterFn()))
			case e.gaugeFn != nil:
				writeSample(&b, e.name, e.labels, formatFloat(e.gaugeFn()))
			case e.hist != nil:
				writeHistogram(&b, e)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram's cumulative buckets, sum and
// count. Buckets and count are read without a snapshot barrier, so under
// concurrent Observes the +Inf value is clamped to keep the cumulative
// series monotone.
func writeHistogram(b *strings.Builder, e *entry) {
	h := e.hist
	count := h.count.Load()
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		le := formatFloat(float64(histBound(i)) / 1e9)
		writeSample(b, e.name+"_bucket", joinLabels(e.labels, `le="`+le+`"`), formatUint(cum))
	}
	if count < cum {
		count = cum
	}
	writeSample(b, e.name+"_bucket", joinLabels(e.labels, `le="+Inf"`), formatUint(count))
	writeSample(b, e.name+"_sum", e.labels, formatFloat(h.SumSeconds()))
	writeSample(b, e.name+"_count", e.labels, formatUint(count))
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// ServeHTTP makes a Registry an http.Handler: GET returns the exposition
// text (the /metrics endpoint body).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}
