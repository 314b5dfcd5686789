package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCounterGauge: a counter counts up; a gauge reports what its function
// reads at each scrape, down as well as up.
func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	r := NewRegistry()
	depth := 7
	r.GaugeFunc("test_depth", "queue depth", func() float64 { return float64(depth) })
	for _, want := range []int{7, 4, -2} {
		depth = want
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if line := "test_depth " + strconv.Itoa(want) + "\n"; !strings.Contains(b.String(), line) {
			t.Fatalf("exposition lacks %q:\n%s", line, b.String())
		}
	}
}

func TestBucketIdx(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {1024, 0}, {1025, 1}, {2048, 1}, {2049, 2},
		{histBound(5), 5}, {histBound(5) + 1, 6},
		{histBound(histBuckets - 1), histBuckets - 1},
		{histBound(histBuckets-1) + 1, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIdx(c.ns); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(3 * time.Microsecond)  // 3000ns -> bucket 2 (bound 4096)
	h.Observe(100 * time.Second)     // beyond the last bound: +Inf only
	h.Observe(-time.Second)          // clamped to 0 -> bucket 0
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.buckets[0].Load(); got != 2 {
		t.Errorf("bucket 0 = %d, want 2", got)
	}
	if got := h.buckets[2].Load(); got != 1 {
		t.Errorf("bucket 2 = %d, want 1", got)
	}
	var inBuckets uint64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != 3 {
		t.Errorf("bucketed observations = %d, want 3 (one +Inf only)", inBuckets)
	}
	wantSum := (500*time.Nanosecond + 3*time.Microsecond + 100*time.Second).Seconds()
	if got := h.SumSeconds(); got < wantSum-1e-9 || got > wantSum+1e-9 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// expositionLine matches every valid line of the text format: a HELP or
// TYPE header, or a sample with optional labels and a numeric value.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations", "op", "query")
	c2 := r.Counter("test_ops_total", "operations", "op", "add")
	depth := 0.0
	r.GaugeFunc("test_depth", "queue depth", func() float64 { return depth })
	h := r.Histogram("test_latency_seconds", "latency")
	r.GaugeFunc("test_live", "live items", func() float64 { return 42.5 })
	r.CounterFunc("test_fn_total", "from fn", func() uint64 { return 9 })

	c.Add(3)
	c2.Inc()
	depth = -2
	h.Observe(2 * time.Millisecond)
	h.Observe(10 * time.Second)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	checkExposition(t, text)

	for _, want := range []string{
		"# TYPE test_ops_total counter",
		`test_ops_total{op="query"} 3`,
		`test_ops_total{op="add"} 1`,
		"test_depth -2",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 2`,
		"test_latency_seconds_count 2",
		"test_live 42.5",
		"test_fn_total 9",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// One HELP/TYPE header per name even with two labeled children.
	if n := strings.Count(text, "# TYPE test_ops_total"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1", n)
	}
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "latency")
	durs := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 7 * time.Millisecond, 90 * time.Millisecond,
		time.Second, 20 * time.Second,
	}
	for _, d := range durs {
		h.Observe(d)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	bucketLine := regexp.MustCompile(`^mono_seconds_bucket\{le="([^"]+)"\} ([0-9]+)$`)
	prev := uint64(0)
	prevBound := -1.0
	n := 0
	for _, line := range strings.Split(b.String(), "\n") {
		m := bucketLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n++
		var bound float64
		if m[1] == "+Inf" {
			bound = 1e300
		} else {
			var err error
			bound, err = strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatalf("bad bound %q: %v", m[1], err)
			}
		}
		if bound <= prevBound {
			t.Errorf("bucket bounds not increasing: %v after %v", bound, prevBound)
		}
		cum, _ := strconv.ParseUint(m[2], 10, 64)
		if cum < prev {
			t.Errorf("cumulative count decreased: %d after %d", cum, prev)
		}
		prev, prevBound = cum, bound
	}
	if n != histBuckets+1 {
		t.Errorf("%d bucket lines, want %d", n, histBuckets+1)
	}
	if prev != uint64(len(durs)) {
		t.Errorf("+Inf bucket = %d, want %d", prev, len(durs))
	}
}

func TestRegistryReplacement(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("re_gauge", "first", func() float64 { return 1 })
	r.GaugeFunc("re_gauge", "second", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, "re_gauge 2") {
		t.Errorf("replacement did not take: %s", text)
	}
	if strings.Contains(text, "re_gauge 1") {
		t.Errorf("stale collector still present: %s", text)
	}
	if n := len(regexp.MustCompile(`(?m)^re_gauge `).FindAllString(text, -1)); n != 1 {
		t.Errorf("%d re_gauge samples, want 1", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("esc_total", "escaping", "peer", "http://x\"y\\z\n")
	c.Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{peer="http://x\"y\\z\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped sample missing; got:\n%s", b.String())
	}
	checkExposition(t, b.String())
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "")
	for _, f := range []func(){
		func() { r.Counter("0bad", "") },
		func() { r.Counter("ok_total", "", "0bad", "v") },
		func() { r.Counter("ok_total", "", "odd") },
		func() { r.GaugeFunc("ok_total", "", func() float64 { return 0 }) }, // one name, two types
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestObserveAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(3 * time.Millisecond)
		c.Inc()
	}); n != 0 {
		t.Errorf("Observe/Inc allocate %v/op, want 0", n)
	}
}
