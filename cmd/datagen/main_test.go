package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the datagen command:
// re-executed with DATAGEN_TEST_RUN_MAIN set, it runs main on its arguments,
// so the tests below observe real exit codes without needing the go tool.
func TestMain(m *testing.M) {
	if os.Getenv("DATAGEN_TEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// datagen runs the command with -output in a fresh directory and returns
// the output path, the command's combined output and its error.
func datagen(t *testing.T, args ...string) (string, []byte, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "sets.txt")
	cmd := exec.Command(exe, append(args, "-output", out)...)
	cmd.Env = append(os.Environ(), "DATAGEN_TEST_RUN_MAIN=1")
	msg, err := cmd.CombinedOutput()
	return out, msg, err
}

// checkRejected runs datagen with args and requires exit status 1, a
// message that names flag, and no output file.
func checkRejected(t *testing.T, flag string, args ...string) {
	t.Helper()
	out, msg, err := datagen(t, args...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("datagen %v: err = %v, want exit status 1\n%s", args, err, msg)
	}
	if !strings.HasPrefix(string(msg), "datagen: "+flag+" ") {
		t.Errorf("datagen %v: stderr %q does not name %s", args, msg, flag)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("datagen %v: wrote %s", args, out)
	}
}

// TestUniverseTooSmallRejected: a set has at least two distinct tokens, so
// a universe of fewer than two has no set to draw, and empty lines are not
// a dataset.
func TestUniverseTooSmallRejected(t *testing.T) {
	for _, v := range []string{"0", "1", "-4"} {
		checkRejected(t, "universe", "-kind", "uniform", "-n", "5", "-universe", v)
	}
}

// TestCapBelowOneRejected: a token cap below 1 leaves no token to plant, and
// an empty file is not a dataset.
func TestCapBelowOneRejected(t *testing.T) {
	checkRejected(t, "cap", "-kind", "tokens", "-cap", "0")
}

// TestNBelowOneRejected: no sets is nothing to generate.
func TestNBelowOneRejected(t *testing.T) {
	checkRejected(t, "n", "-kind", "zipf", "-n", "0")
}

// TestAvgBelowOneRejected: no average set size is nothing to generate.
func TestAvgBelowOneRejected(t *testing.T) {
	checkRejected(t, "avg", "-kind", "uniform", "-avg", "-1")
}

// TestSmallestValuesAccepted: the least accepted values generate.
func TestSmallestValuesAccepted(t *testing.T) {
	out, msg, err := datagen(t, "-kind", "uniform", "-n", "1", "-avg", "1", "-universe", "2")
	if err != nil {
		t.Fatalf("datagen: %v\n%s", err, msg)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != "0 1\n" {
		t.Errorf("wrote %q (%v), want one set of both tokens", got, err)
	}
}
