package main

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestMain lets the test binary stand in for the serve command: re-executed
// with SERVE_TEST_RUN_MAIN set, it runs main on its arguments, so the test
// below signals a real process without needing the go tool.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_TEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMDrainsAndSaves: SIGTERM — what kill, systemd, Docker and
// Kubernetes send — takes the same graceful path as an interrupt: the
// listener drains and -save-on-shutdown snapshots the index, buffered
// appends included.
func TestSIGTERMDrainsAndSaves(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "sets.txt")
	if err := os.WriteFile(input, []byte("1 2 3 4\n1 2 3 5\n10 11 12\n20 21 22 23\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "snap")
	cmd := exec.Command(exe, "-input", input, "-threshold", "0.5", "-shards", "2",
		"-addr", addr, "-data", data, "-save-on-shutdown")
	cmd.Env = append(os.Environ(), "SERVE_TEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	base := "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(base + "/v1/readyz"); err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("serve exited before it was ready: %v\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became ready\n%s", stderr.String())
		}
	}
	// One buffered append: far below the seal threshold, so it lives only in
	// the side buffer and is lost unless the shutdown saves.
	resp, err := http.Post(base+"/v1/add", "application/json", bytes.NewReader([]byte(`{"sets":[[30,31,32]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/add status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("serve did not shut down cleanly on SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("serve still running 20s after SIGTERM\n%s", stderr.String())
	}

	ix, err := shard.Load(data, 0)
	if err != nil {
		t.Fatalf("no usable snapshot after SIGTERM: %v\n%s", err, stderr.String())
	}
	if st := ix.Stats(); st.Sets != 5 || st.Buffered != 1 {
		t.Fatalf("restored %+v, want 5 sets with the 1 buffered append", st)
	}
}

// TestAutoTierIsAUsageError: there are two tiers. The value an earlier build
// also took exits 2 with a message naming them, before any file is opened —
// -input and -data point at paths that do not exist and are never reported.
func TestAutoTierIsAUsageError(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	cmd := exec.Command(exe, "-tier", "auto", "-input", missing, "-data", missing, "-threshold", "0.5")
	cmd.Env = append(os.Environ(), "SERVE_TEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("serve -tier auto: %v, want exit status 2\n%s", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "want hot or cold") || strings.Contains(msg, missing) {
		t.Fatalf("serve -tier auto stderr does not name the two tiers, or a file was opened:\n%s", msg)
	}
}

// TestPeerFlagsAreUsageErrors: serve has no peers — the index is served
// from this process alone — so the flags that once placed its shards on
// other processes are unknown flags: each exits 2 naming itself, before any
// file is opened.
func TestPeerFlagsAreUsageErrors(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	for _, flag := range []string{"-peers=http://127.0.0.1:8402", "-replicas=2", "-keep-local=false", "-peer"} {
		cmd := exec.Command(exe, flag, "-input", missing, "-data", missing, "-threshold", "0.5")
		cmd.Env = append(os.Environ(), "SERVE_TEST_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("serve %s: %v, want exit status 2\n%s", flag, err, stderr.String())
		}
		name, _, _ := strings.Cut(flag, "=")
		msg := stderr.String()
		if !strings.Contains(msg, "flag provided but not defined: "+name) || strings.Contains(msg, missing) {
			t.Fatalf("serve %s stderr does not name the flag, or a file was opened:\n%s", flag, msg)
		}
	}
}
