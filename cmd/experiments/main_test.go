package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/race"
)

// TestMain lets the test binary stand in for the experiments command:
// re-executed with EXPERIMENTS_TEST_RUN_MAIN set, it runs main on its
// arguments, so the tests below observe real exit codes and streams
// without needing the go tool.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command and returns its streams and exit code.
func experiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errb.String(), code
}

// smokeTable1 is what the command must print for table1 at smoke scale:
// the same rows, computed in process.
var smokeTable1 = sync.OnceValue(func() []bench.Table1Row {
	return bench.RunTable1(bench.AllWorkloads(bench.SmokeScale()))
})

// TestTablesPrintEveryWorkload: table1 and theory exit 0 with their banner,
// their column header — the CSV column names — and one row per bundled
// workload, in order.
func TestTablesPrintEveryWorkload(t *testing.T) {
	want := smokeTable1()
	for _, tc := range []struct{ cmd, banner, header string }{
		{"table1", "== Table I: dataset statistics ==", "avg_set_size"},
		{"theory", "== Recursion bounds: Lemma 4 depth, Remark 9 working space ==", "max_depth"},
	} {
		stdout, stderr, code := experiments(t, "-quiet", "-scale", "smoke", "-workers", "1", tc.cmd)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", tc.cmd, code, stderr)
		}
		lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
		if len(lines) != 2+len(want) {
			t.Fatalf("%s: %d lines, want banner + header + %d rows:\n%s", tc.cmd, len(lines), len(want), stdout)
		}
		if lines[0] != tc.banner {
			t.Errorf("%s: banner %q, want %q", tc.cmd, lines[0], tc.banner)
		}
		if !strings.HasPrefix(lines[1], "dataset") || !strings.Contains(lines[1], tc.header) {
			t.Errorf("%s: header %q does not name %q", tc.cmd, lines[1], tc.header)
		}
		for i, r := range want {
			if f := strings.Fields(lines[2+i]); len(f) == 0 || f[0] != r.Dataset {
				t.Errorf("%s: row %d is %q, want workload %s", tc.cmd, i, lines[2+i], r.Dataset)
			}
		}
	}
}

// TestCSVFormat: -format csv drops the banner and writes exactly the CSV
// form of the rows' table.
func TestCSVFormat(t *testing.T) {
	stdout, stderr, code := experiments(t, "-quiet", "-scale", "smoke", "-workers", "1", "-format", "csv", "table1")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if _, err := csv.NewReader(strings.NewReader(stdout)).ReadAll(); err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, stdout)
	}
	var want bytes.Buffer
	if err := bench.TableOf(smokeTable1()).Write(&want, true); err != nil {
		t.Fatal(err)
	}
	if stdout != want.String() {
		t.Errorf("csv output:\n%s\nwant:\n%s", stdout, want.String())
	}
}

// TestTable4IsPinned: Table IV is counts only — pre-candidates, candidates
// and results of ALLPAIRS, CPSJoin and MINHASH on every workload — so at one
// worker its CSV is a function of the code alone. The digest was taken at the
// commit before the join family got one brute-force kernel, one result set,
// one probe loop per exact join and a one-worker pool in place of its
// sequential forks, and re-recorded once when a sketch bit became the low
// bit of a 32-bit minimum, which moved CPSJoin's rows and no ALLPAIRS row;
// whatever is simplified underneath, these bytes stay.
func TestTable4IsPinned(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("runs every join on every smoke workload: 6 s, a minute under the race detector")
	}
	stdout, stderr, code := experiments(t, "-scale", "smoke", "-workers", "1", "-quiet", "-format", "csv", "table4")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	sum := sha256.Sum256([]byte(stdout))
	if got, want := hex.EncodeToString(sum[:]), "76e64867d8b76ff834aee519f900d4301d8727ce30e939a3d3d2c7e4f722362d"; got != want {
		t.Errorf("table4 CSV hashes to %s, want %s:\n%s", got, want, stdout)
	}
}

// TestRemovedSurfaceStaysRemoved: the timing harness's subcommands and its
// JSON format are unknown, and the errors name nothing that no longer
// exists. fig2 is gone too: Figure 2 is table2's speedup column.
func TestRemovedSurfaceStaysRemoved(t *testing.T) {
	removed := []string{"parallel", "serving", "compaction", "query", "accuracy", "fig2"}
	for _, name := range removed {
		stdout, stderr, code := experiments(t, "-quiet", "-scale", "smoke", name)
		if want := "experiments: unknown subcommand \"" + name + "\"\n"; code != 1 || stderr != want || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q", name, code, stdout, stderr, want)
		}
	}
	stdout, stderr, code := experiments(t, "-quiet", "-scale", "smoke", "-format", "json", "table1")
	if code != 1 || !strings.Contains(stderr, `unknown format "json"`) || stdout != "" {
		t.Errorf("-format json: exit %d, stdout %q, stderr %q; want exit 1 and an unknown-format error", code, stdout, stderr)
	}
	for _, name := range removed {
		if strings.Contains(stderr, name) {
			t.Errorf("-format json error names removed subcommand %q: %s", name, stderr)
		}
	}
}

// TestFormatHelpListsWhatIsAccepted: the -format help text names table and
// csv — the two formats the tests above show accepted — and nothing else.
func TestFormatHelpListsWhatIsAccepted(t *testing.T) {
	_, usage, _ := experiments(t, "-h")
	m := regexp.MustCompile(`(?m)^\s+-format string\n\s+output format: (.*) \(default "table"\)$`).FindStringSubmatch(usage)
	if m == nil {
		t.Fatalf("no -format entry in the usage text:\n%s", usage)
	}
	if m[1] != "table or csv" {
		t.Errorf("-format help lists %q, want %q", m[1], "table or csv")
	}
}
