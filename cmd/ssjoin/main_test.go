package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

// checkRejected runs ssjoin with args and requires exit status 1 and a
// message naming the flag.
func checkRejected(t *testing.T, flag string, args ...string) {
	t.Helper()
	msg, err := ssjoinCmd(t, append([]string{"-input", writeInput(t)}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ssjoin %v: err = %v, want exit status 1\n%s", args, err, msg)
	}
	if !strings.HasPrefix(string(msg), "ssjoin: "+flag+" ") {
		t.Errorf("ssjoin %v: stderr %q does not name %s", args, msg, flag)
	}
}

// TestNegativeRepetitionsRejected: a negative count is an error, not the
// default count.
func TestNegativeRepetitionsRejected(t *testing.T) {
	checkRejected(t, "repetitions", "-repetitions", "-3")
}

// TestRecallOutOfRangeRejected: a target recall is in [0, 1), 0 being the
// default; anything else is an error, not the default target.
func TestRecallOutOfRangeRejected(t *testing.T) {
	for _, v := range []string{"1.5", "1", "-0.5"} {
		checkRejected(t, "recall", "-algorithm", "minhash", "-recall", v)
	}
}

// TestRepetitionsOnlyForCPSJoin: MinHash LSH derives its own repetition
// count, so -repetitions beside it is refused, not ignored.
func TestRepetitionsOnlyForCPSJoin(t *testing.T) {
	checkRejected(t, "repetitions", "-algorithm", "minhash", "-repetitions", "3")
}

// TestRecallOnlyForLSHJoins: CPSJoin runs its repetitions, not a recall
// target, so -recall beside it is refused, not ignored.
func TestRecallOnlyForLSHJoins(t *testing.T) {
	checkRejected(t, "recall", "-algorithm", "cpsjoin", "-recall", "0.5")
}

// TestExactJoinTakesNeitherKnob: an exact join reads neither flag, alone or
// together.
func TestExactJoinTakesNeitherKnob(t *testing.T) {
	checkRejected(t, "repetitions", "-algorithm", "allpairs", "-repetitions", "3", "-recall", "0.5")
	checkRejected(t, "repetitions", "-algorithm", "allpairs", "-repetitions", "3")
	checkRejected(t, "recall", "-algorithm", "allpairs", "-recall", "0.5")
}

// TestStatsPrintRepetitions: the -stats line ends with the repetitions the
// join ran: CPSJoin's default 6 or the -repetitions given, and MinHash
// LSH's L, derived from its target recall, as the library reports it.
func TestStatsPrintRepetitions(t *testing.T) {
	input := writeInput(t)
	sets, err := ssjoin.LoadSets(input)
	if err != nil {
		t.Fatal(err)
	}
	_, mh := ssjoin.MinHashJoin(ssjoin.CleanSets(sets), 0.5, &ssjoin.Options{Seed: 42, Workers: 1})
	if mh.Repetitions < 1 {
		t.Fatalf("MinHashJoin reports %d repetitions", mh.Repetitions)
	}
	for _, tc := range []struct {
		args []string
		reps int64
	}{
		{nil, 6},
		{[]string{"-repetitions", "3"}, 3},
		{[]string{"-algorithm", "minhash"}, mh.Repetitions},
	} {
		args := append([]string{"-input", input, "-threshold", "0.5", "-workers", "1", "-stats", "-output", filepath.Join(t.TempDir(), "pairs.txt")}, tc.args...)
		msg, err := ssjoinCmd(t, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("ssjoin %v: %v\n%s", tc.args, err, msg)
		}
		if want := fmt.Sprintf(" candidates verified, %d repetitions\n", tc.reps); !strings.HasSuffix(string(msg), want) {
			t.Errorf("ssjoin %v -stats: stderr %q, want it to end with %q", tc.args, msg, want)
		}
	}
}

// pairFile runs ssjoin with -output and returns the pair file. Every join
// returns its pairs sorted by A, then B, so files are compared byte for
// byte.
func pairFile(t *testing.T, args ...string) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "pairs.txt")
	if msg, err := ssjoinCmd(t, append(args, "-output", out)...).CombinedOutput(); err != nil {
		t.Fatalf("ssjoin %v: %v\n%s", args, err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestLoadIndexMatchesInput: a run over a saved index writes, byte for
// byte, the pair file of the run that read the sets and built it — for
// every join that preprocesses, since all three are JoinIndexed over the
// same signatures and sketches either way.
func TestLoadIndexMatchesInput(t *testing.T) {
	input := filepath.Join(t.TempDir(), "sets.txt")
	if err := ssjoin.SaveSets(input, datagen.LedgerShape(true, 600, 9)); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(t.TempDir(), "ix.bin")
	for _, alg := range []string{"cpsjoin", "minhash", "bayeslsh"} {
		want := pairFile(t, "-input", input, "-algorithm", alg, "-threshold", "0.5", "-seed", "7", "-save-index", index)
		if strings.Count(want, "\n") < 20 {
			t.Fatalf("%s: the -input run found next to nothing:\n%s", alg, want)
		}
		for _, workers := range []string{"1", "4"} {
			if got := pairFile(t, "-load-index", index, "-algorithm", alg, "-threshold", "0.5", "-seed", "7", "-workers", workers); got != want {
				t.Errorf("%s, -workers %s: -load-index pair file differs from the -input run's\n got %d lines\nwant %d lines",
					alg, workers, strings.Count(got, "\n"), strings.Count(want, "\n"))
			}
		}
	}
}

// TestRowMajorIndexRefused: testdata/rowmajor.ix was saved (from
// writeInput's sets) while the signature matrix was stored row-major, in a
// section of the same length as today's position-major one. Loading it
// fails the run, and no pair file is created, instead of joining on
// transposed values.
func TestRowMajorIndexRefused(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pairs.txt")
	msg, err := ssjoinCmd(t, "-load-index", filepath.Join("testdata", "rowmajor.ix"), "-threshold", "0.5", "-output", out).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ssjoin -load-index testdata/rowmajor.ix: err = %v, want exit status 1\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "corrupt index file") {
		t.Errorf("stderr does not say the index was refused:\n%s", msg)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the pair file exists after a refused index (stat: %v)", err)
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

// TestSaveFailureWritesNoPairs: the save runs beside the join, but a save
// that fails still fails the run, and before any pair file exists.
func TestSaveFailureWritesNoPairs(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "pairs.txt")
	index := filepath.Join(dir, "missing", "ix.bin")
	msg, err := ssjoinCmd(t, "-input", writeInput(t), "-threshold", "0.5", "-save-index", index, "-output", out).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ssjoin -save-index into a missing directory: err = %v, want exit status 1\n%s", err, msg)
	}
	if !strings.Contains(string(msg), "saving index") {
		t.Errorf("stderr does not name the failed save:\n%s", msg)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the pair file exists after a failed save (stat: %v)", err)
	}
}

// TestSavedIndexIndependentOfWorkers: the index file a single-shot run
// saves beside its join is the same at every worker count, and the same as
// the library's NewIndex(…).Save over the cleaned input.
func TestSavedIndexIndependentOfWorkers(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "sets.txt")
	if err := ssjoin.SaveSets(input, datagen.LedgerShape(false, 600, 4)); err != nil {
		t.Fatal(err)
	}
	sets, err := ssjoin.LoadSets(input)
	if err != nil {
		t.Fatal(err)
	}
	lib := filepath.Join(dir, "lib.bin")
	if err := ssjoin.NewIndex(ssjoin.CleanSets(sets), &ssjoin.Options{Seed: 7, Workers: 1}).Save(lib); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(lib)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2"} {
		index := filepath.Join(dir, "ix"+workers+".bin")
		pairFile(t, "-input", input, "-threshold", "0.5", "-seed", "7", "-workers", workers, "-save-index", index)
		got, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-workers %s: the saved index (%d bytes) differs from NewIndex(…).Save's (%d bytes)", workers, len(got), len(want))
		}
	}
}

// TestPairLineMatchesFmt: appendPair writes what fmt's "%d %d %.4f\n"
// wrote, at the fourth decimal's rounding edges too.
func TestPairLineMatchesFmt(t *testing.T) {
	var line []byte
	for _, sim := range []float64{1.0 / 3, 2.0 / 3, 0.33335, 0.99995, 0.5, 1, 0.00005, 0.12345, 0.87654999} {
		for _, ab := range [][2]int{{0, 1}, {7, 42}, {123456, 9876543}} {
			line = appendPair(line[:0], ab[0], ab[1], sim)
			if want := fmt.Sprintf("%d %d %.4f\n", ab[0], ab[1], sim); string(line) != want {
				t.Errorf("appendPair(%d, %d, %v) = %q, want %q", ab[0], ab[1], sim, line, want)
			}
		}
	}
}
