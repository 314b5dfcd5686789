package main

// Result files: what `run --out` and `trace --out` write and `compare`
// reads. Every file records the machine and commit it was measured on.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// envInfo identifies where and on what a result was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"` // git rev-parse HEAD, or "unknown" outside a git checkout
}

func readEnv(root string) envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Metrics are the ledger metrics of the run: end-to-end names for a
	// plain run, layer.metric names for a traced one.
	Metrics map[string]float64 `json:"metrics"`
	// Info holds informational values that are printed but not gated:
	// per-threshold times, per-round generator lag, dataset shape.
	Info map[string]float64 `json:"info,omitempty"`
	// Samples is the number of observations behind a metric, where it is
	// a median or percentile.
	Samples  map[string]int `json:"samples,omitempty"`
	Phases   []phaseCount   `json:"phases"`
	Failures []string       `json:"failures,omitempty"`
	Flags    []string       `json:"flags,omitempty"` // e.g. rounds whose generator lag was high
	Shape    *shapeStats    `json:"shape,omitempty"`
}

func newResult(workload string, seed uint64, seconds float64, traced bool) *workloadResult {
	return &workloadResult{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Info: map[string]float64{}, Samples: map[string]int{},
	}
}

// finish copies the tally into the result and derives failed_ops_share.
func (r *workloadResult) finish(t *tally) {
	r.Phases, r.Failures = t.Phases, t.Failures
	attempted, failed := r.counts()
	if !r.Traced && attempted > 0 {
		r.Metrics["failed_ops_share"] = float64(failed) / float64(attempted)
	}
}

func (r *workloadResult) counts() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return
}

// resultFile is the on-disk form: one environment, many runs.
type resultFile struct {
	Env  envInfo           `json:"env"`
	Runs []*workloadResult `json:"runs"`
	// Spans is the span dump of a traced run (see trace.go).
	Spans []span `json:"spans,omitempty"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// printResult writes the human report of one run: every metric by name
// with its unit, the sample count behind it, and the outcome of the
// output checks per phase.
func printResult(r *workloadResult) {
	fmt.Printf("== %s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	printValues := func(title string, m map[string]float64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("  %-7s %-34s %14.6g %-7s", title, n, m[n], unitOf(n))
			if s, ok := r.Samples[n]; ok {
				line += fmt.Sprintf(" n=%d", s)
			}
			fmt.Println(strings.TrimRight(line, " "))
		}
	}
	printValues("metric", r.Metrics)
	printValues("info", r.Info)
	for _, p := range r.Phases {
		verdict := "PASS"
		if p.Failed > 0 {
			verdict = "FAIL"
		}
		fmt.Printf("  check   %-34s %s attempted=%d failed=%d\n", p.Phase, verdict, p.Attempted, p.Failed)
	}
	for _, f := range r.Failures {
		fmt.Printf("  failure %s\n", f)
	}
	for _, f := range r.Flags {
		fmt.Printf("  flag    %s\n", f)
	}
}
