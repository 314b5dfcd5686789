package main

import (
	"bytes"
	"encoding/json"
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

// serveCommand is the serve command run with args by the test binary.
func serveCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "SERVE_TEST_RUN_MAIN=1")
	return cmd
}

// server is a serve process started by startServe.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
	stderr *bytes.Buffer
}

// startServe runs serve with args on a free loopback address and returns
// once it answers /v1/readyz. The process is killed when the test ends.
func startServe(t *testing.T, args ...string) *server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{
		cmd:    serveCommand(t, append(args, "-addr", addr)...),
		base:   "http://" + addr,
		exited: make(chan error, 1),
		stderr: new(bytes.Buffer),
	}
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	t.Cleanup(func() { s.cmd.Process.Kill() })
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(s.base + "/v1/readyz"); err == nil {
			resp.Body.Close()
			return s
		}
		select {
		case err := <-s.exited:
			t.Fatalf("serve exited before it was ready: %v\n%s", err, s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never became ready\n%s", s.stderr.String())
		}
	}
}

// stats reads the server's /v1/stats.
func (s *server) stats(t *testing.T) shard.Stats {
	t.Helper()
	resp, err := http.Get(s.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shard.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// usageError runs serve with args, requires exit status 2 and returns what it
// wrote to stderr.
func usageError(t *testing.T, args ...string) string {
	t.Helper()
	cmd := serveCommand(t, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("serve %s: %v, want exit status 2\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stderr.String()
}

// writeInput writes a small catalogue to dir and returns its path.
func writeInput(t *testing.T, dir string) string {
	t.Helper()
	input := filepath.Join(dir, "sets.txt")
	if err := os.WriteFile(input, []byte("1 2 3 4\n1 2 3 5\n10 11 12\n20 21 22 23\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return input
}

// TestSIGTERMDrainsAndSaves: SIGTERM — what kill, systemd, Docker and
// Kubernetes send — takes the same graceful path as an interrupt: the
// listener drains and -save-on-shutdown snapshots the index, buffered
// appends included.
func TestSIGTERMDrainsAndSaves(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "snap")
	s := startServe(t, "-input", writeInput(t, dir), "-threshold", "0.5", "-shards", "2",
		"-data", data, "-save-on-shutdown")

	// One buffered append: far below the seal threshold, so it lives only in
	// the side buffer and is lost unless the shutdown saves.
	resp, err := http.Post(s.base+"/v1/add", "application/json", bytes.NewReader([]byte(`{"sets":[[30,31,32]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/add status %d", resp.StatusCode)
	}

	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			t.Fatalf("serve did not shut down cleanly on SIGTERM: %v\n%s", err, s.stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("serve still running 20s after SIGTERM\n%s", s.stderr.String())
	}

	ix, err := shard.Load(data, 0)
	if err != nil {
		t.Fatalf("no usable snapshot after SIGTERM: %v\n%s", err, s.stderr.String())
	}
	if st := ix.Stats(); st.Sets != 5 || st.Buffered != 1 {
		t.Fatalf("restored %+v, want 5 sets with the 1 buffered append", st)
	}
}

// TestCacheFlagAppliesAtRestore: a snapshot stores no serving settings, so
// an index saved with a cache restores without one unless -cache asks for
// it, and with -cache 64 it serves with one.
func TestCacheFlagAppliesAtRestore(t *testing.T) {
	ix := shard.Build([][]uint32{{1, 2, 3, 4}, {1, 2, 3, 5}, {10, 11, 12}, {20, 21, 22, 23}}, 0.5,
		&shard.Options{Shards: 2, Seed: 42})
	if err := ix.Configure(shard.RuntimeOptions{CacheSize: 4096}); err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	if err := ix.Save(data); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-cache", "64"}, true},
	} {
		s := startServe(t, append([]string{"-data", data}, tc.args...)...)
		if got := s.stats(t).CacheEnabled; got != tc.want {
			t.Fatalf("serve -data %v: cache_enabled %v, want %v\n%s", tc.args, got, tc.want, s.stderr.String())
		}
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// TestAutoTierIsAUsageError: there are two tiers. The value an earlier build
// also took exits 2 with a message naming them, before any file is opened —
// -input and -data point at paths that do not exist and are never reported.
func TestAutoTierIsAUsageError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	msg := usageError(t, "-tier", "auto", "-input", missing, "-data", missing, "-threshold", "0.5")
	if !strings.Contains(msg, "want hot or cold") || strings.Contains(msg, missing) {
		t.Fatalf("serve -tier auto stderr does not name the two tiers, or a file was opened:\n%s", msg)
	}
}

// TestTierWithoutDataIsAUsageError: -tier picks the tier of the shards a
// restore opens, so without -data it exits 2 saying so, before any file is
// opened.
func TestTierWithoutDataIsAUsageError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tier := range []string{"cold", "hot"} {
		msg := usageError(t, "-tier", tier, "-input", missing, "-threshold", "0.5")
		if !strings.Contains(msg, "-tier applies to a restore: it requires -data") || strings.Contains(msg, missing) {
			t.Fatalf("serve -tier %s without -data: stderr does not say -tier needs -data, or a file was opened:\n%s", tier, msg)
		}
	}
}

// TestTierWithoutSnapshotBuildsHot: when -data holds no snapshot yet there is
// nothing to restore, so the index is built on the heap whatever -tier says,
// and the server logs once that the tier applies only to restores.
func TestTierWithoutSnapshotBuildsHot(t *testing.T) {
	dir := t.TempDir()
	s := startServe(t, "-tier", "cold", "-data", filepath.Join(dir, "snap"),
		"-input", writeInput(t, dir), "-threshold", "0.5", "-shards", "2")
	if st := s.stats(t); st.HotShards != 2 || st.ColdShards != 0 {
		t.Fatalf("built with -tier cold: %d hot / %d cold shards, want 2 / 0", st.HotShards, st.ColdShards)
	}
	s.cmd.Process.Kill()
	<-s.exited // stderr is complete, and no longer written, once Wait returns
	if n := strings.Count(s.stderr.String(), "-tier applies only to restores"); n != 1 {
		t.Fatalf("serve logged the unused tier %d times, want once:\n%s", n, s.stderr.String())
	}
}

// TestPeerFlagsAreUsageErrors: serve has no peers — the index is served
// from this process alone — so the flags that once placed its shards on
// other processes are unknown flags: each exits 2 naming itself, before any
// file is opened.
func TestPeerFlagsAreUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, flag := range []string{"-peers=http://127.0.0.1:8402", "-replicas=2", "-keep-local=false", "-peer"} {
		msg := usageError(t, flag, "-input", missing, "-data", missing, "-threshold", "0.5")
		name, _, _ := strings.Cut(flag, "=")
		if !strings.Contains(msg, "flag provided but not defined: "+name) || strings.Contains(msg, missing) {
			t.Fatalf("serve %s stderr does not name the flag, or a file was opened:\n%s", flag, msg)
		}
	}
}
