package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestBenchmarkJSONInStep: the committed BENCHMARK.json is what spec.go
// renders, and it stays inside the limits the benchmark's driver sets.
func TestBenchmarkJSONInStep(t *testing.T) {
	want := benchmarkJSON()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `benchmark spec > BENCHMARK.json`")
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.EndToEnd) < 1 || len(doc.EndToEnd) > 16 ||
		len(doc.PerLayer) < 1 || len(doc.PerLayer) > 128 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json outside the driver's limits: %d workloads, %d end-to-end, %d per-layer, %d s, %d bytes",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), doc.RunSeconds, len(want))
	}
	for _, w := range doc.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != lower && m.Better != higher) {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Errorf("no setup_s metric in s, lower is better")
	}
	for _, m := range doc.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestDriverLineComplete: every workload fills every driver role with a
// non-zero value, and the ledger metrics it needs are declared for it.
func TestDriverLineComplete(t *testing.T) {
	for _, w := range workloadNames() {
		r := newResult(w, 1, 1, false)
		for _, m := range ledgerMetrics {
			if slices.Contains(m.Workloads, w) {
				r.Metrics[m.Name] = 2
			}
		}
		p := projectDriver(r)
		for _, m := range driverMetrics {
			if p[m.Name] == 0 {
				t.Errorf("%s: driver metric %s is 0 when every ledger metric of the workload is set", w, m.Name)
			}
		}
		if len(p) != len(driverMetrics) {
			t.Errorf("%s: projected %d metrics, BENCHMARK.json lists %d", w, len(p), len(driverMetrics))
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Request: 1, Name: "server.handle", StartNs: 0, EndNs: 100_000},
		{ID: 2, Parent: 1, Request: 1, Name: "shard.query", StartNs: 200_000, EndNs: 270_000},
		{ID: 3, Parent: 2, Request: 1, Name: "cpindex.query", StartNs: 300_000, EndNs: 320_000},
		{ID: 4, Parent: 2, Request: 1, Name: "cpindex.query", StartNs: 320_000, EndNs: 350_000},
	}
	if got := tr.perRequest("cpindex.query", false); len(got) != 1 || got[0] != 50 {
		t.Errorf("cpindex time per request = %v µs, want [50]", got)
	}
	if got := tr.perRequest("shard.query", true); got[0] != 20 {
		t.Errorf("shard self time = %v µs, want 20 (70 minus its children's 50)", got[0])
	}
	if got := tr.perRequest("server.handle", true); got[0] != 30 {
		t.Errorf("server self time = %v µs, want 30", got[0])
	}
	off := &tracer{off: true}
	off.do(0, 1, "x", func(int) {})
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded a span")
	}
}
