package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	ssjoin "repro"
	"repro/internal/datagen"
)

// TestMain lets the test binary stand in for the ssjoin command: re-executed
// with SSJOIN_TEST_RUN_MAIN set, it runs main on its arguments, so the tests
// below observe real exit codes without needing the go tool.
func TestMain(m *testing.M) {
	if os.Getenv("SSJOIN_TEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func ssjoinCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "SSJOIN_TEST_RUN_MAIN=1")
	return cmd
}

func writeInput(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sets.txt")
	// Three near-duplicates, so the join has pairs to write.
	data := "1 2 3 4 5 6 7 8\n1 2 3 4 5 6 7 9\n1 2 3 4 5 6 7 10\n20 21 22 23\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWritesPairs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pairs.txt")
	if msg, err := ssjoinCmd(t, "-input", writeInput(t), "-threshold", "0.5", "-output", out).CombinedOutput(); err != nil {
		t.Fatalf("ssjoin failed: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(got), "\n"); lines != 3 {
		t.Fatalf("%d pairs written, want 3:\n%s", lines, got)
	}
}

// TestOutputWriteErrorIsFatal: a pair file that could not be written in
// full must not look like a success.
func TestOutputWriteErrorIsFatal(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	msg, err := ssjoinCmd(t, "-input", writeInput(t), "-threshold", "0.5", "-output", "/dev/full").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("ssjoin -output /dev/full: err = %v, want a non-zero exit\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "writing output") {
		t.Errorf("stderr does not name the failed write:\n%s", msg)
	}
}

// TestUnknownAlgorithmMessage: the dispatcher's error is printed as the
// library words it, with the program's name in front once, not twice.
func TestUnknownAlgorithmMessage(t *testing.T) {
	msg, err := ssjoinCmd(t, "-input", writeInput(t), "-algorithm", "nosuch").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ssjoin -algorithm nosuch: err = %v, want exit status 1\n%s", err, msg)
	}
	if want := "ssjoin: unknown algorithm \"nosuch\"\n"; string(msg) != want {
		t.Errorf("stderr %q, want %q", msg, want)
	}
}

// sortedPairs runs ssjoin with -output and returns the pair file's lines in
// canonical order (workers emit pairs in the order they find them).
func sortedPairs(t *testing.T, args ...string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "pairs.txt")
	if msg, err := ssjoinCmd(t, append(args, "-output", out)...).CombinedOutput(); err != nil {
		t.Fatalf("ssjoin %v: %v\n%s", args, err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestLoadIndexMatchesInput: a run over a saved index writes the pair set
// of the run that read the sets and built it — for every join that
// preprocesses, since all three are JoinIndexed over the same signatures
// and sketches either way.
func TestLoadIndexMatchesInput(t *testing.T) {
	input := filepath.Join(t.TempDir(), "sets.txt")
	if err := ssjoin.SaveSets(input, datagen.LedgerShape(true, 600, 9)); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(t.TempDir(), "ix.bin")
	for _, alg := range []string{"cpsjoin", "minhash", "bayeslsh"} {
		want := sortedPairs(t, "-input", input, "-algorithm", alg, "-threshold", "0.5", "-seed", "7", "-save-index", index)
		if strings.Count(want, "\n") < 20 {
			t.Fatalf("%s: the -input run found next to nothing:\n%s", alg, want)
		}
		for _, workers := range []string{"1", "4"} {
			if got := sortedPairs(t, "-load-index", index, "-algorithm", alg, "-threshold", "0.5", "-seed", "7", "-workers", workers); got != want {
				t.Errorf("%s, -workers %s: -load-index pairs differ from the -input run's\n got %d lines\nwant %d lines",
					alg, workers, strings.Count(got, "\n")+1, strings.Count(want, "\n")+1)
			}
		}
	}
}

// TestInputWithLoadIndexIsUsageError: the index carries its collection, so
// -input beside it would be silently ignored; it is refused instead.
func TestInputWithLoadIndexIsUsageError(t *testing.T) {
	msg, err := ssjoinCmd(t, "-input", writeInput(t), "-load-index", "ix.bin").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("ssjoin -input -load-index: err = %v, want exit status 2\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "exactly one of -input and -load-index") {
		t.Errorf("stderr does not say why:\n%s", msg)
	}
}
