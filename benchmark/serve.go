package main

// The serve workloads: cmd/serve as a child process, driven over HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/shard"
)

// Serving parameters, fixed on the 2-core reference box (README.md, "How
// the sizes were fixed"). Rates are open-loop arrivals per second, set at
// about one third of the measured closed-loop capacity so the server runs
// near one third utilisation.
const (
	serveLambda = 0.5
	serveSeed   = 42
	serveShards = 4

	serveReadSets    = 40000
	serveReadRate    = 150.0 // R_ref: closed_qps ≈ 480 on the reference box
	serveSampleSize  = 500   // warm-up queries, also the byte-identity sample
	serveBatchSets   = 256
	serveLateLimitMs = 25.0 // the latency limit of the rate ladder

	serveMixedSets     = 40000
	serveMixedMerge    = 128 // sets buffered before a seal
	serveMixedCache    = 4096
	serveMixedPool     = 5000 // distinct read queries, drawn Zipf(1.0)
	serveMixedReadRate = 150.0
	serveWritePeriod   = 500 * time.Millisecond // one add, then one delete, per period
	serveAddSets       = 32
	serveDeleteIDs     = 4

	serveReadRounds = 6
	serveRounds     = 5 // mixed
)

// ladder are the informational rates of the traced run, as multiples of
// the reference rate.
var ladder = []float64{1.5, 2, 2.5}

func runServe(ctx context.Context, h *harness, workload string, seed uint64, seconds float64, withLadder bool) (*workloadResult, error) {
	if workload == wServeRead {
		return runServeRead(ctx, h, seed, seconds, withLadder)
	}
	return runServeMixed(ctx, h, seed, seconds)
}

func appendSet(b []byte, set []uint32) []byte {
	b = append(b, '[')
	for i, t := range set {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(t), 10)
	}
	return append(b, ']')
}

func queryBody(set []uint32, kind readKind) []byte {
	b := appendSet([]byte(`{"set":`), set)
	switch kind {
	case readAll:
		b = append(b, `,"all":true}`...)
	case readContain:
		b = append(b, fmt.Sprintf(`,"mode":"containment","threshold":%g}`, containThreshold)...)
	default:
		b = append(b, '}')
	}
	return b
}

func setsBody(sets [][]uint32) []byte {
	b := []byte(`{"sets":[`)
	for i, s := range sets {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSet(b, s)
	}
	return append(b, "]}"...)
}

// readTag says which pool query a read is.
type readTag struct {
	pool int
	kind readKind
}

func readRequest(pool []query, i int, kind readKind) request {
	return request{path: "/v1/query", body: queryBody(pool[i].Set, kind), tag: readTag{i, kind}}
}

// setupStarts is how many times a serve workload starts its server to
// time set-up.
const setupStarts = 3

// measureSetup starts the server setupStarts times with args and returns
// the wall times from process start to the first answered probe query,
// plus the last server, left running. Each earlier server is interrupted
// and reaped before the next starts.
func measureSetup(ctx context.Context, h *harness, t *tally, probe request, args ...string) ([]float64, *server, error) {
	var walls []float64
	client := newClient(1)
	for i := 0; i < setupStarts; i++ {
		srv, err := h.startServer(ctx, 60*time.Second, args...)
		if err != nil {
			t.record("setup", err)
			return nil, nil, err
		}
		var s sample
		send(ctx, client, srv.base, &probe, srv.start, &s)
		if !s.ok() {
			err = fmt.Errorf("probe query failed: status %d, %v", s.status, s.err)
		}
		t.record("setup", err)
		walls = append(walls, s.done.Seconds())
		if i == setupStarts-1 {
			return walls, srv, nil
		}
		t.record("shutdown", srv.stop())
	}
	panic("unreachable")
}

// roundStats summarises one open-loop round of reads.
type roundStats struct {
	p50, p99  float64
	late      float64 // share of reads over serveLateLimitMs
	lag       time.Duration
	backlogMs float64 // worst queueing delay among the round's last tenth
	n         int
}

func summariseRound(reads []sample) roundStats {
	lat := latenciesMs(reads)
	rs := roundStats{p50: percentile(lat, 50), p99: percentile(lat, 99), lag: lagP99(reads), n: len(reads)}
	for _, l := range lat {
		if l > serveLateLimitMs {
			rs.late++
		}
	}
	rs.late /= float64(max(len(lat), 1))
	for _, s := range reads[len(reads)-len(reads)/10:] {
		rs.backlogMs = max(rs.backlogMs, ms(s.sent-s.origin))
	}
	return rs
}

// recordRounds stores the per-round summaries. One host stall poisons one
// round, not the metric: the median latency is taken from the least
// disturbed round (interference only ever adds time; on the reference box
// this halves the run-to-run spread), the 99th percentile is the median
// over rounds.
func recordRounds(res *workloadResult, rounds []roundStats) {
	var p50, p99, late, lag []float64
	n := 0
	for i, r := range rounds {
		p50, p99, late, lag = append(p50, r.p50), append(p99, r.p99), append(late, r.late), append(lag, ms(r.lag))
		n += r.n
		res.Info[fmt.Sprintf("round%d_lag_p99_ms", i+1)] = ms(r.lag)
		res.Info[fmt.Sprintf("round%d_p50_ms", i+1)] = r.p50
		res.Info[fmt.Sprintf("round%d_p99_ms", i+1)] = r.p99
		if r.lag > lagP99Limit {
			res.Flags = append(res.Flags, fmt.Sprintf("round %d: generator lag p99 %.2f ms over the %.0f ms limit", i+1, ms(r.lag), ms(lagP99Limit)))
		}
	}
	res.Metrics["query_p50_ms"], res.Metrics["query_p99_ms"] = minOf(p50), median(p99)
	res.Info["query_p50_median_ms"] = median(p50)
	res.Samples["query_p50_ms"], res.Samples["query_p99_ms"] = n, n
	res.Info["late_share"] = median(late)
	res.Info["lag_p99_ms"] = maxOf(lag)
}

// getJSON fetches path and decodes the JSON body into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// recordStats reads /v1/stats once and stores the counts that prove which
// layers a workload loaded.
func recordStats(ctx context.Context, t *tally, res *workloadResult, client *http.Client, base string) {
	var st shard.Stats
	err := getJSON(ctx, client, base+"/v1/stats", &st)
	t.record("stats", err)
	if err != nil {
		return
	}
	res.Info["stats_seals"] = float64(st.Merges)
	res.Info["stats_compactions"] = float64(st.Compactions)
	res.Info["stats_reclaimed"] = float64(st.Reclaimed)
	res.Info["stats_shards"] = float64(st.Shards)
	res.Info["stats_cold_shards"] = float64(st.ColdShards)
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		res.Info["cache_hit_ratio"] = float64(st.CacheHits) / float64(total)
	} else {
		res.Info["cache_hit_ratio"] = 0
	}
}

// referenceAnswers answers the queries in-process, through the same HTTP
// handler the child mounts, on an index built with the child's options.
func referenceAnswers(sets [][]uint32, qs []query) [][]byte {
	ix := shard.Build(sets, serveLambda, &shard.Options{Shards: serveShards, Seed: serveSeed, Workers: runtime.GOMAXPROCS(0)})
	handler := shard.NewServerOpts(ix, &shard.ServerOptions{DisableMetrics: true})
	out := make([][]byte, len(qs))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(queryBody(qs[i].Set, readAll))))
				out[i] = rec.Body.Bytes()
			}
		}()
	}
	wg.Wait()
	return out
}

// checkRead judges one read of the catalogue-only workload and updates
// the recall count: the query's source set must be among the matches.
func checkRead(s *sample, pool []query, sets [][]uint32, recall *recallCount) error {
	if !s.ok() {
		return fmt.Errorf("status %d, %v", s.status, s.err)
	}
	a, err := parseAnswer(s.body)
	if err != nil {
		return err
	}
	q := pool[s.req.tag.(readTag).pool]
	recall.Exist++
	for _, m := range a.Matches {
		if m.ID == q.Target {
			recall.Found++
			break
		}
	}
	return checkMatches(a, q.Set, readAll, serveLambda, catalogueSets(sets))
}

// catalogueSets resolves ids of a fixed catalogue.
func catalogueSets(sets [][]uint32) func(id int) []uint32 {
	return func(id int) []uint32 {
		if id < 0 || id >= len(sets) {
			return nil
		}
		return sets[id]
	}
}

func runServeRead(ctx context.Context, h *harness, seed uint64, seconds float64, withLadder bool) (*workloadResult, error) {
	res := newResult(wServeRead, seed, seconds, false)
	var t tally
	defer res.finish(&t)
	nproc := runtime.NumCPU()
	roundLen := seconds * 0.10
	closedLen := time.Duration(seconds * 0.20 * float64(time.Second))
	batchLen := time.Duration(seconds * 0.15 * float64(time.Second))

	sh := flatShape(serveReadSets, 0)
	c := generate(sh, seed)
	input := h.path("cat.txt")
	var err error
	if res.Shape, err = writeCollection(input, c); err != nil {
		return nil, err
	}
	pool := queryPool(c, sh.tokens, 16000, 0.52, seed)
	want := referenceAnswers(c.Sets, pool[:serveSampleSize])

	walls, srv, err := measureSetup(ctx, h, &t, readRequest(pool, 0, readAll),
		"-input", input, "-threshold", fmt.Sprint(serveLambda), "-shards", fmt.Sprint(serveShards), "-seed", fmt.Sprint(serveSeed))
	if err != nil {
		return res, nil
	}
	res.Metrics["setup_s"] = median(walls)
	res.Samples["setup_s"] = len(walls)
	client := newClient(nproc)
	var recall recallCount
	used := 0 // pool queries consumed: every query of the run is distinct until the pool wraps
	take := func(due []float64) []request {
		reqs := make([]request, len(due))
		for i := range reqs {
			reqs[i] = readRequest(pool, (used+i)%len(pool), readAll)
			reqs[i].due = time.Duration(due[i] * float64(time.Second))
		}
		used += len(due)
		return reqs
	}
	judge := func(phase string, samples []sample) {
		for i := range samples {
			t.record(phase, checkRead(&samples[i], pool, c.Sets, &recall))
		}
	}

	// Warm-up, which doubles as the byte-identity sample: all due at once,
	// drained by nproc connections.
	warm, _ := openLoop(ctx, client, srv.base, take(make([]float64, serveSampleSize)), nproc)
	judge("sample", warm)
	for i := range warm {
		var err error
		if warm[i].ok() && !bytes.Equal(warm[i].body, want[i]) {
			err = fmt.Errorf("query %d: child answered %q, in-process index %q", i, tail(string(warm[i].body), 80), tail(string(want[i]), 80))
		}
		t.record("sample_identity", err)
	}

	arrivals := newRNG(seed, "arrivals")
	round := func(rate float64) roundStats {
		samples, _ := openLoop(ctx, client, srv.base, take(poissonArrivals(arrivals, rate, roundLen)), nproc)
		judge("open_loop", samples)
		return summariseRound(samples)
	}
	var rounds []roundStats
	for i := 0; i < serveReadRounds; i++ {
		rounds = append(rounds, round(serveReadRate))
	}
	recordRounds(res, rounds)
	if withLadder {
		// The highest rate that meets the latency limit without a growing
		// backlog; the reference rate is the ladder's first rung.
		res.Info["rate_ok_qps"] = 0
		if res.Metrics["query_p99_ms"] <= serveLateLimitMs {
			res.Info["rate_ok_qps"] = serveReadRate
		}
		for _, mult := range ladder {
			rs := round(serveReadRate * mult)
			res.Info[fmt.Sprintf("ladder_%gx_p99_ms", mult)] = rs.p99
			if rs.p99 <= serveLateLimitMs && rs.backlogMs <= serveLateLimitMs {
				res.Info["rate_ok_qps"] = serveReadRate * mult
			}
		}
	}

	closedReqs := take(make([]float64, int(closedLen.Seconds()*2000)))
	closed, _, wall := closedLoop(ctx, client, srv.base, func(i int) *request { return &closedReqs[i%len(closedReqs)] }, nproc, closedLen)
	judge("closed_loop", closed)
	res.Metrics["closed_qps"] = float64(len(closed)) / wall.Seconds()
	res.Samples["closed_qps"] = len(closed)

	// Batches: the first request repeats the sample, whose single-query
	// answers are known; later ones take fresh queries.
	batchSets := func(first int) [][]uint32 {
		sets := make([][]uint32, serveBatchSets)
		for i := range sets {
			sets[i] = pool[(first+i)%len(pool)].Set
		}
		return sets
	}
	var batches []request
	for b := 0; b < 64; b++ {
		first := 0
		if b > 0 {
			first = used
			used += serveBatchSets
		}
		batches = append(batches, request{path: "/v1/query_batch", body: setsBody(batchSets(first)), tag: first})
	}
	batch, _, wall := closedLoop(ctx, client, srv.base, func(i int) *request { return &batches[i%len(batches)] }, 1, batchLen)
	expect := make([][]match, serveBatchSets)
	for k := range expect {
		a, _ := parseAnswer(want[k]) // a malformed reference fails the comparison below
		expect[k] = a.Matches
	}
	answered := 0
	for i := range batch {
		s := &batch[i]
		var err error
		switch {
		case !s.ok():
			err = fmt.Errorf("status %d, %v", s.status, s.err)
		case s.req.tag.(int) == 0:
			err = checkBatchAnswer(s.body, expect)
		default:
			_, err = parseBatch(s.body, serveBatchSets)
		}
		if err == nil {
			answered += serveBatchSets
		}
		t.record("batch", err)
	}
	res.Metrics["batch_qps"] = float64(answered) / wall.Seconds()
	res.Samples["batch_qps"] = len(batch)
	res.Info["batch_request_p50_ms"] = percentile(latenciesMs(batch), 50)

	res.Metrics["query_recall"] = recall.ratio()
	res.Samples["query_recall"] = recall.Exist
	t.record("recall", checkRecallFloor(recall))
	recordStats(ctx, &t, res, client, srv.base)
	t.record("shutdown", srv.stop())
	res.Metrics["peak_rss_mb"] = h.peakRSSMB()
	return res, nil
}

// Tags of the mixed workload's writes.
type addTag struct{ sets [][]uint32 }
type deleteTag struct{ ids []int }
type scrapeTag struct{}

// mixedKind fixes the flavour of pool query i, so a repeated query is the
// same request and can hit the cache: 70 % all, 15 % best, 15 % containment.
func mixedKind(i int) readKind {
	switch m := i % 20; {
	case m < 14:
		return readAll
	case m < 17:
		return readBest
	default:
		return readContain
	}
}

func runServeMixed(ctx context.Context, h *harness, seed uint64, seconds float64) (*workloadResult, error) {
	res := newResult(wServeMixed, seed, seconds, false)
	var t tally
	defer res.finish(&t)
	nproc := runtime.NumCPU()
	roundLen := seconds * 0.15
	closedLen := time.Duration(seconds * 0.20 * float64(time.Second))

	sh := skewShape(serveMixedSets, 0)
	c := generate(sh, seed)
	input := h.path("skew.txt")
	var err error
	if res.Shape, err = writeCollection(input, c); err != nil {
		return nil, err
	}
	pool := queryPool(c, sh.tokens, serveMixedPool, 0.52, seed)

	// Prepare, untimed: the snapshot the timed server restores is always
	// written by the commit under test.
	dir := h.path("data")
	prep, err := h.startServer(ctx, 120*time.Second, "-input", input, "-threshold", fmt.Sprint(serveLambda),
		"-shards", fmt.Sprint(serveShards), "-merge", fmt.Sprint(serveMixedMerge), "-seed", fmt.Sprint(serveSeed),
		"-data", dir, "-save-on-shutdown")
	if err == nil {
		err = prep.stop()
	}
	t.record("prepare", err)
	if err != nil {
		return res, nil
	}
	res.Info["snapshot_bytes_per_input_byte"] = float64(dirSize(dir)) / float64(res.Shape.InputBytes)
	h.resetPeakRSS() // peak_rss_mb is the restored server's, not the snapshot writer's

	walls, srv, err := measureSetup(ctx, h, &t, readRequest(pool, 0, readAll),
		"-data", dir, "-tier", "cold", "-cache", fmt.Sprint(serveMixedCache), "-auto-compact")
	if err != nil {
		return res, nil
	}
	res.Metrics["setup_s"] = median(walls)
	res.Samples["setup_s"] = len(walls)
	client := newClient(nproc)

	// Warm-up, untimed but reported: the first containment query makes
	// every cold shard decode its sets and build its containment side, a
	// one-off stall of seconds that would otherwise poison the first round.
	for _, kind := range []readKind{readContain, readBest} {
		var s sample
		probe := readRequest(pool, 0, kind)
		send(ctx, client, srv.base, &probe, time.Now(), &s)
		var err error
		if !s.ok() {
			err = fmt.Errorf("status %d, %v", s.status, s.err)
		}
		t.record("warmup", err)
		if kind == readContain {
			res.Info["first_contain_ms"] = ms(s.done)
		}
	}

	// The schedule of every round is drawn before the first one starts.
	var (
		arrivals = newRNG(seed, "arrivals")
		ranks    = zipfRanks(len(pool))
		picks    = newRNG(seed, "reads")
		adds     = newRNG(seed, "adds")
		deletes  = newRNG(seed, "deletes")
		doomed   = map[int]bool{} // catalogue ids some delete names
	)
	schedule := func(seconds float64) []request {
		var reqs []request
		for _, due := range poissonArrivals(arrivals, serveMixedReadRate, seconds) {
			i := ranks(picks)
			r := readRequest(pool, i, mixedKind(i))
			r.due = time.Duration(due * float64(time.Second))
			reqs = append(reqs, r)
		}
		for at := time.Duration(0); at+serveWritePeriod <= time.Duration(seconds*float64(time.Second)); at += serveWritePeriod {
			sets := make([][]uint32, serveAddSets)
			for k := range sets {
				sets[k] = drawSet(adds, sh.tokens, sh.size(adds), nil)
			}
			back := request{path: "/v1/query", body: queryBody(sets[0], readAll)}
			reqs = append(reqs, request{path: "/v1/add", body: setsBody(sets), due: at + serveWritePeriod/4, follow: &back, tag: addTag{sets}})
			var ids []int
			for len(ids) < serveDeleteIDs {
				if id := pool[ranks(deletes)].Target; !doomed[id] {
					doomed[id] = true
					ids = append(ids, id)
				}
			}
			body, _ := json.Marshal(map[string][]int{"ids": ids}) // cannot fail: ints
			reqs = append(reqs, request{path: "/v1/delete", body: body, due: at + serveWritePeriod/4 + 20*time.Millisecond, tag: deleteTag{ids}})
		}
		for at := time.Second / 2; at < time.Duration(seconds*float64(time.Second)); at += time.Second {
			reqs = append(reqs, request{method: http.MethodGet, path: "/v1/metrics", due: at, tag: scrapeTag{}})
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
		return reqs
	}
	plans := make([][]request, serveRounds)
	for i := range plans {
		plans[i] = schedule(roundLen)
	}
	// The closed loop runs the same mix back to back, from a plan several
	// times longer than the phase can consume (writes must not repeat: a
	// second delete of the same ids acknowledges nothing).
	saturated := schedule(10 * closedLen.Seconds())

	// Run the phases, keeping wall-clock send and completion times so the
	// checks below can order answers against acknowledged writes.
	type timed struct {
		s          *sample
		phase      string
		sent, done int64 // ns since the first round's start
	}
	var all []timed
	var epoch time.Time
	collect := func(phase string, samples []sample, start time.Time) {
		if epoch.IsZero() {
			epoch = start
		}
		off := start.Sub(epoch)
		for k := range samples {
			s := &samples[k]
			all = append(all, timed{s, phase, int64(off + s.sent), int64(off + s.done)})
			if s.follow != nil {
				all = append(all, timed{s.follow, phase, int64(off + s.follow.sent), int64(off + s.follow.done)})
			}
		}
	}
	roundSamples := make([][]sample, serveRounds)
	for i, plan := range plans {
		samples, start := openLoop(ctx, client, srv.base, plan, nproc)
		roundSamples[i] = samples
		collect("open_loop", samples, start)
	}
	// The cache and ring counts of the paced phase, before the saturated
	// one adds its own.
	recordStats(ctx, &t, res, client, srv.base)
	closed, start, wall := closedLoop(ctx, client, srv.base, func(i int) *request {
		if i >= len(saturated) {
			return nil
		}
		return &saturated[i]
	}, nproc, closedLen)
	collect("closed_loop", closed, start)
	res.Metrics["closed_qps"] = float64(len(closed)) / wall.Seconds()
	res.Samples["closed_qps"] = len(closed)

	// What the writes established: acknowledged deletes, and the ids the
	// server gave the added sets (nil for a malformed acknowledgement).
	deletedAck := map[int]int64{}
	added := map[int][]uint32{}
	addedIDs := map[*sample][]int{}
	for _, ts := range all {
		if !ts.s.ok() {
			continue
		}
		switch tag := ts.s.req.tag.(type) {
		case deleteTag:
			for _, id := range tag.ids {
				deletedAck[id] = ts.done
			}
		case addTag:
			var ack struct {
				IDs []int `json:"ids"`
			}
			if json.Unmarshal(ts.s.body, &ack) == nil && len(ack.IDs) == len(tag.sets) {
				addedIDs[ts.s] = ack.IDs
				for k, id := range ack.IDs {
					added[id] = tag.sets[k]
				}
			}
		}
	}
	catalogue := catalogueSets(c.Sets)
	setOf := func(id int) []uint32 {
		if s, ok := added[id]; ok {
			return s
		}
		return catalogue(id)
	}

	var recall recallCount
	var writeLat, addLat, delLat, bestLat, containLat, scrapeLat []float64
	series := 0
	for _, ts := range all {
		s, paced := ts.s, ts.phase == "open_loop"
		if !s.ok() {
			t.record(ts.phase, fmt.Errorf("%s: status %d, %v", s.req.path, s.status, s.err))
			continue
		}
		var err error
		switch tag := s.req.tag.(type) {
		case readTag:
			q := pool[tag.pool]
			var a queryAnswer
			if a, err = parseAnswer(s.body); err == nil {
				err = checkNoResurrection(a, ts.sent, deletedAck)
			}
			if err == nil {
				err = checkMatches(a, q.Set, tag.kind, serveLambda, setOf)
			}
			if err == nil && tag.kind == readAll && !doomed[q.Target] {
				recall.Exist++
				if containsID(a, q.Target) {
					recall.Found++
				}
			}
			switch {
			case paced && tag.kind == readBest:
				bestLat = append(bestLat, ms(s.latency()))
			case paced && tag.kind == readContain:
				containLat = append(containLat, ms(s.latency()))
			}
		case addTag:
			if ids := addedIDs[s]; ids == nil {
				err = fmt.Errorf("add of %d sets not acknowledged with %d ids: %s", len(tag.sets), len(tag.sets), tail(string(s.body), 80))
			} else if s.follow == nil || !s.follow.ok() {
				err = fmt.Errorf("read-back of added set %d failed", ids[0])
			} else if a, perr := parseAnswer(s.follow.body); perr != nil {
				err = perr
			} else {
				err = checkContains(a, ids[0])
			}
			if paced {
				addLat = append(addLat, ms(s.latency()))
			}
		case deleteTag:
			var ack struct {
				Deleted int `json:"deleted"`
			}
			if uerr := json.Unmarshal(s.body, &ack); uerr != nil || ack.Deleted != len(tag.ids) {
				err = fmt.Errorf("delete of %d live ids acknowledged %d (%v)", len(tag.ids), ack.Deleted, uerr)
			}
			if paced {
				delLat = append(delLat, ms(s.latency()))
			}
		case scrapeTag:
			if paced {
				scrapeLat = append(scrapeLat, ms(s.latency()))
			}
			series = countSeries(s.body)
			if series == 0 {
				err = fmt.Errorf("metrics scrape returned no series")
			}
		default: // the read-back of an add, judged with its add
			continue
		}
		t.record(ts.phase, err)
	}
	var rounds []roundStats
	for _, samples := range roundSamples {
		var reads []sample
		for _, s := range samples {
			if _, ok := s.req.tag.(readTag); ok {
				reads = append(reads, s)
			}
		}
		rounds = append(rounds, summariseRound(reads))
	}
	recordRounds(res, rounds)
	writeLat = append(append(writeLat, addLat...), delLat...)
	res.Metrics["write_p50_ms"] = percentile(writeLat, 50)
	res.Samples["write_p50_ms"] = len(writeLat)
	res.Info["write_max_ms"] = maxOf(writeLat)
	res.Info["add_p50_ms"] = percentile(addLat, 50)
	res.Info["delete_p50_ms"] = percentile(delLat, 50)
	res.Info["best_p50_ms"] = percentile(bestLat, 50)
	res.Info["contain_p50_ms"] = percentile(containLat, 50)
	res.Info["scrape_ms"] = percentile(scrapeLat, 50)
	res.Info["metrics_series"] = float64(series)
	res.Metrics["query_recall"] = recall.ratio()
	res.Samples["query_recall"] = recall.Exist
	t.record("recall", checkRecallFloor(recall))

	t.record("shutdown", srv.stop())
	res.Metrics["peak_rss_mb"] = h.peakRSSMB()
	return res, nil
}

func containsID(a queryAnswer, id int) bool {
	for _, m := range a.Matches {
		if m.ID == id {
			return true
		}
	}
	return false
}

// countSeries counts the sample lines of a Prometheus text exposition.
func countSeries(body []byte) int {
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

func dirSize(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !fi.IsDir() {
			total += fi.Size()
		}
	}
	return total
}
