package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallIsChargedToQueuedRequests: a server that stalls 200 ms on its
// first request delays everything queued behind it on the one connection.
// Measured from the send, those requests would look fast (coordinated
// omission); measured from their due times, each carries the part of the
// stall it sat through. Only lower bounds are asserted, so a slow machine
// cannot fail the test.
func TestStallIsChargedToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"found":false,"id":-1,"sim":0}`))
	}))
	defer srv.Close()

	reqs := make([]request, 10)
	for i := range reqs {
		reqs[i] = request{path: "/v1/query", body: []byte(`{"set":[1,2]}`), due: time.Duration(i) * 10 * time.Millisecond}
	}
	samples, _ := openLoop(context.Background(), newClient(1), srv.URL, reqs, 1)
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			t.Fatalf("request %d failed: %d %v", i, s.status, s.err)
		}
		if s.origin != reqs[i].due {
			t.Fatalf("request %d: latency measured from %v, due at %v", i, s.origin, reqs[i].due)
		}
		// Request i was due i·10 ms into a 200 ms stall: it cannot have
		// completed before the stall ended.
		if floor := stall - reqs[i].due; s.latency() < floor {
			t.Errorf("request %d: latency %v, but it queued behind a stall for at least %v", i, s.latency(), floor)
		}
		if i > 0 && s.sent < stall-5*time.Millisecond {
			t.Errorf("request %d left the queue at %v, before the stall on the only connection ended", i, s.sent)
		}
	}
	if got := percentile(latenciesMs(samples), 50); got < ms(stall)/2 {
		t.Errorf("median latency %.1f ms hides the stall", got)
	}
	// The generator itself was on time: the stall is the server's.
	if lag := lagP99(samples); lag > 100*time.Millisecond {
		t.Logf("generator lag p99 %v (machine busy?)", lag)
	}
}

func TestFailedRequestExceedsEveryLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer srv.Close()
	reqs := []request{{path: "/v1/query"}}
	samples, _ := openLoop(context.Background(), newClient(1), srv.URL, reqs, 1)
	if samples[0].ok() {
		t.Fatalf("a 500 counted as ok")
	}
	if lat := latenciesMs(samples)[0]; lat < 1000 {
		t.Errorf("failed request reported %.1f ms: it must exceed any latency limit", lat)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) }))
	defer srv.Close()
	req := request{path: "/x"}
	samples, _, wall := closedLoop(context.Background(), newClient(2), srv.URL, func(int) *request { return &req }, 2, 50*time.Millisecond)
	if len(samples) == 0 || wall < 50*time.Millisecond {
		t.Fatalf("closed loop made %d requests in %v", len(samples), wall)
	}
	for i := range samples {
		if samples[i].origin != samples[i].sent {
			t.Fatalf("closed-loop latency must count from the send")
		}
	}
}
