package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
