package main

// Child-process hygiene: the programs under test run as children fed only
// files and HTTP requests. Every child started here is registered with the
// harness, so a failed or interrupted run still interrupts and reaps each
// one and removes the run's scratch directory.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// harness owns what a run creates outside its own memory: the built
// binaries, a scratch directory and the live children.
type harness struct {
	root    string // repository checkout
	binDir  string // <root>/.bench_build/bin
	scratch string // per-run directory under <root>/.bench_build/tmp

	mu       sync.Mutex
	children map[*child]bool
	maxRSSKB int64
}

// newHarness builds cmd/ssjoin and cmd/serve from the working tree and
// creates the run's scratch directory. Everything lives under
// <root>/.bench_build so a run writes nothing outside its checkout (run.sh
// points the Go build cache there too).
func newHarness(root string) (*harness, error) {
	build := filepath.Join(root, ".bench_build")
	h := &harness{root: root, binDir: filepath.Join(build, "bin"), children: map[*child]bool{}}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", h.binDir+string(filepath.Separator), "./cmd/ssjoin", "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/ssjoin and cmd/serve: %v\n%s", err, out)
	}
	scratch, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	h.scratch = scratch
	return h, nil
}

// close stops every child still running and removes the scratch
// directory. It is safe to call more than once and from a signal handler
// goroutine.
func (h *harness) close() {
	h.mu.Lock()
	live := make([]*child, 0, len(h.children))
	for c := range h.children {
		live = append(live, c)
	}
	h.mu.Unlock()
	for _, c := range live {
		c.stop()
	}
	os.RemoveAll(h.scratch)
}

func (h *harness) path(name string) string { return filepath.Join(h.scratch, name) }

// peakRSSMB is the largest resident-set high-water mark over the children
// reaped so far.
func (h *harness) peakRSSMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.maxRSSKB) / 1024
}

func (h *harness) resetPeakRSS() {
	h.mu.Lock()
	h.maxRSSKB = 0
	h.mu.Unlock()
}

// child is one process under test.
type child struct {
	h      *harness
	cmd    *exec.Cmd
	stderr bytes.Buffer
	start  time.Time

	once    sync.Once
	waitErr error
	reaped  chan struct{} // closed by wait
	hwmKB   atomic.Int64  // last VmHWM read while the child lived
}

// spawn starts bin (a name under binDir) with args. The child gets no
// stdin and its stderr is kept for error reports.
func (h *harness) spawn(bin string, args ...string) (*child, error) {
	c := &child{h: h, reaped: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(h.binDir, bin), args...)
	c.cmd.Dir = h.scratch
	c.cmd.Stderr = &c.stderr
	// Should the harness itself be killed, no child outlives it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.children[c] = true
	h.mu.Unlock()
	go c.watchRSS()
	return c, nil
}

// watchRSS polls the child's resident-set high-water mark until it is
// reaped. The obvious source, ru_maxrss from wait4, cannot be used: Go
// starts children with vfork semantics, and on exec Linux folds the
// high-water mark of the address space being left (the harness's own)
// into the child's ru_maxrss, so a child would report at least as much
// memory as the harness held. VmHWM in /proc/<pid>/status belongs to the
// child's own address space, but disappears when the child exits, hence the
// polling; a short-lived child's last few milliseconds of growth are lost.
func (c *child) watchRSS() {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		c.readRSS()
		select {
		case <-c.reaped:
			return
		case <-tick.C:
		}
	}
}

func (c *child) readRSS() {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return
	}
	if kb, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64); err == nil && kb > c.hwmKB.Load() {
		c.hwmKB.Store(kb)
	}
}

// wait reaps the child (once), folds its peak RSS into the harness's and
// returns its exit error.
func (c *child) wait() error {
	c.once.Do(func() {
		c.waitErr = c.cmd.Wait()
		close(c.reaped)
		c.h.mu.Lock()
		delete(c.h.children, c)
		c.h.maxRSSKB = max(c.h.maxRSSKB, c.hwmKB.Load())
		c.h.mu.Unlock()
	})
	return c.waitErr
}

// stop interrupts the child and waits for it; a child that ignores the
// interrupt for 10 s is killed. Returns the exit error of a child that did
// not exit cleanly on the interrupt.
func (c *child) stop() error {
	c.readRSS()                        // the last look before its memory is gone
	c.cmd.Process.Signal(os.Interrupt) // error means it already exited
	go c.wait()
	select {
	case <-c.reaped:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.reaped
		return errors.New("child ignored SIGINT and was killed")
	}
	return c.waitErr
}

// runToExit runs a short-lived child to completion and returns its wall
// time; a non-zero exit is an error carrying the child's stderr.
func (h *harness) runToExit(bin string, args ...string) (time.Duration, error) {
	c, err := h.spawn(bin, args...)
	if err != nil {
		return 0, err
	}
	err = c.wait()
	wall := time.Since(c.start)
	if err != nil {
		return wall, fmt.Errorf("%s %v: %v\n%s", bin, args, err, tail(c.stderr.String(), 400))
	}
	return wall, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it, so a collision is possible but needs
// another process to grab the same port within milliseconds.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// server is a running cmd/serve child.
type server struct {
	*child
	base string // http://127.0.0.1:port
}

// startServer spawns cmd/serve on a free port and polls /v1/readyz until
// it answers 200, the child exits, or the timeout passes.
func (h *harness) startServer(ctx context.Context, timeout time.Duration, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	c, err := h.spawn("serve", append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	s := &server{child: c, base: "http://" + addr}
	go c.wait() // so that an early exit is seen below
	deadline := time.After(timeout)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	probe := &http.Client{Timeout: time.Second}
	for {
		if resp, err := probe.Get(s.base + "/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-c.reaped:
			return nil, fmt.Errorf("serve exited before becoming ready: %v\n%s", c.waitErr, tail(c.stderr.String(), 400))
		case <-deadline:
			c.stop()
			return nil, fmt.Errorf("serve not ready after %v\n%s", timeout, tail(c.stderr.String(), 400))
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}
