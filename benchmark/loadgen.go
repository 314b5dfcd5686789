package main

// The load generator. One process, at most `conns` connections.
//
// Open loop: requests are sent on a schedule fixed before the round
// starts, whatever the server does, and each latency is measured from the
// moment the request was due — not from when a connection became free —
// so a server stall is charged to every request that queued behind it (no
// coordinated omission). How late the generator itself ran is reported as
// lag: dispatch time minus due time.
//
// Closed loop: each client sends its next request when the previous one
// completes; it measures capacity, not latency under a given rate.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP operation, fully encoded before timing starts so
// the generator's own CPU use stays off the 2-core box's critical path.
type request struct {
	method string // "" means POST
	path   string
	body   []byte
	due    time.Duration // open loop: offset from the round's start
	// follow, when set, is sent on the same connection right after this
	// request completes (the read-back of a just-added set). It is not
	// scheduled and its latency is not reported.
	follow *request
	tag    any // what the checker needs to judge the answer
}

// sample is the outcome of one request. Times are offsets from the phase
// start; sentNs is when the request left the queue for a connection.
type sample struct {
	req *request
	// origin is where latency is measured from: the due time in an open
	// loop, the send in a closed one.
	origin     time.Duration
	dispatched time.Duration // open loop: when the dispatcher queued it
	sent, done time.Duration
	status     int
	body       []byte
	err        error
	follow     *sample
}

func (s *sample) latency() time.Duration { return s.done - s.origin }

func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// lagP99Limit flags an open-loop round whose generator ran late: above
// it, the round's latencies include the generator's own delay.
const lagP99Limit = 5 * time.Millisecond

// newClient returns an HTTP client limited to conns keep-alive
// connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send performs one request and records its outcome relative to start.
func send(ctx context.Context, client *http.Client, base string, r *request, start time.Time, s *sample) {
	s.req = r
	s.sent = time.Since(start)
	method := r.method
	if method == "" {
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(ctx, method, base+r.path, bytes.NewReader(r.body))
	if err == nil {
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			s.status = resp.StatusCode
			s.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	s.err = err
	s.done = time.Since(start)
	if r.follow != nil && s.ok() {
		s.follow = &sample{}
		send(ctx, client, base, r.follow, start, s.follow)
	}
}

// openLoop sends reqs (sorted by due time) on their schedule over conns
// connections and returns one sample per request, in request order, and
// the instant the offsets in them count from. With every due time zero it
// is a fixed-count closed loop of conns clients.
func openLoop(ctx context.Context, client *http.Client, base string, reqs []request, conns int) ([]sample, time.Time) {
	out := make([]sample, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on busy
	// connections: a due request waits in this queue, and that wait counts.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				send(ctx, client, base, &reqs[i], start, &out[i])
			}
		}()
	}
	for i := range reqs {
		if wait := reqs[i].due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		out[i].origin = reqs[i].due
		out[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, start
}

// closedLoop runs `clients` clients for d, each sending next(i) for a
// globally increasing i as soon as its previous request completes; a
// client also stops when next returns nil (a finite plan ran out). It
// returns the samples, the instant their offsets count from and the
// measured wall time.
func closedLoop(ctx context.Context, client *http.Client, base string, next func(i int) *request, clients int, d time.Duration) ([]sample, time.Time, time.Duration) {
	var (
		mu  sync.Mutex
		out []sample
		n   atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d && ctx.Err() == nil {
				r := next(int(n.Add(1) - 1))
				if r == nil {
					break
				}
				var s sample
				send(ctx, client, base, r, start, &s)
				s.origin, s.dispatched = s.sent, s.sent
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, start, time.Since(start)
}

// latenciesMs returns the latencies of the samples, in ms. A failed
// request exceeds any limit: it is reported as the client timeout.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		if samples[i].ok() {
			out[i] = ms(samples[i].latency())
		} else {
			out[i] = ms(30 * time.Second)
		}
	}
	return out
}

// lagP99 is the 99th percentile of dispatch lateness over a round.
func lagP99(samples []sample) time.Duration {
	lag := make([]float64, len(samples))
	for i := range samples {
		lag[i] = float64(samples[i].dispatched - samples[i].origin)
	}
	return time.Duration(percentile(lag, 99))
}
