package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*httptest.Server, [][]uint32) {
	t.Helper()
	sets, _ := workload(500, 0.8, 301)
	ix := Build(sets, 0.5, &Options{Shards: 3, Seed: 41, MergeThreshold: 64, Workers: 2})
	ts := httptest.NewServer(NewServer(ix))
	t.Cleanup(ts.Close)
	return ts, sets
}

func post(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func TestServerQuery(t *testing.T) {
	ts, sets := newTestServer(t)

	// Best-match self-query: exact hit on the queried set.
	var qr queryResponse
	if resp := post(t, ts.URL+"/v1/query", Request{Set: sets[7]}, &qr); resp.StatusCode != 200 {
		t.Fatalf("/query status %d", resp.StatusCode)
	}
	if !qr.Found || qr.Sim != 1.0 {
		t.Fatalf("self-query response %+v", qr)
	}

	// all=true returns the match list, sorted by id, including the self hit.
	qr = queryResponse{}
	post(t, ts.URL+"/v1/query", Request{Set: sets[7], All: true}, &qr)
	self := false
	for i, m := range qr.Matches {
		if m.ID == 7 {
			self = true
		}
		if i > 0 && qr.Matches[i-1].ID >= m.ID {
			t.Fatalf("matches not sorted by id: %v", qr.Matches)
		}
	}
	if !qr.Found || !self {
		t.Fatalf("all-query missed self: %+v", qr)
	}

	// id 0 is a legitimate best match and must appear on the wire (no
	// omitempty ambiguity): decode raw to check key presence.
	b, _ := json.Marshal(Request{Set: sets[0]})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var raw0 map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw0); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id, present := raw0["id"]; !present || id != 0.0 {
		t.Fatalf("id-0 match not on the wire: %v", raw0)
	}

	// Unnormalized input (duplicates, unsorted) is normalized server-side.
	qr = queryResponse{}
	raw := append([]uint32{}, sets[7]...)
	raw = append(raw, sets[7][0], sets[7][2])
	post(t, ts.URL+"/v1/query", Request{Set: raw}, &qr)
	if !qr.Found || qr.Sim != 1.0 {
		t.Fatalf("unnormalized self-query response %+v", qr)
	}
}

func TestServerQueryBatch(t *testing.T) {
	ts, sets := newTestServer(t)
	var br batchResponse
	post(t, ts.URL+"/v1/query_batch", batchRequest{Sets: sets[:40]}, &br)
	if len(br.Results) != 40 {
		t.Fatalf("%d results for 40 queries", len(br.Results))
	}
	for i, ms := range br.Results {
		if ms == nil {
			t.Fatalf("result %d is null, want []", i)
		}
		self := false
		for _, m := range ms {
			if m.ID == i {
				self = true
			}
		}
		if !self {
			t.Fatalf("batch query %d missed itself", i)
		}
	}
}

func TestServerAddAndStats(t *testing.T) {
	ts, sets := newTestServer(t)
	novel := []uint32{900001, 900002, 900003, 900004}

	var ar addResponse
	post(t, ts.URL+"/v1/add", batchRequest{Sets: [][]uint32{novel}}, &ar)
	if len(ar.IDs) != 1 || ar.IDs[0] != len(sets) || ar.Total != len(sets)+1 || ar.Buffered != 1 {
		t.Fatalf("add response %+v", ar)
	}

	// The appended set is immediately queryable.
	var qr queryResponse
	post(t, ts.URL+"/v1/query", Request{Set: novel}, &qr)
	if !qr.Found || qr.ID != len(sets) || qr.Sim != 1.0 {
		t.Fatalf("query for appended set: %+v", qr)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sets != len(sets)+1 || st.Buffered != 1 || st.Shards != 3 || st.Appends != 1 {
		t.Fatalf("stats %+v", st)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestServerDelete(t *testing.T) {
	ts, sets := newTestServer(t)

	var dr deleteResponse
	if resp := post(t, ts.URL+"/v1/delete", deleteRequest{IDs: []int{7, 9}}, &dr); resp.StatusCode != 200 {
		t.Fatalf("/delete status %d", resp.StatusCode)
	}
	if dr.Deleted != 2 || dr.Live != len(sets)-2 || dr.Tombstones != 2 {
		t.Fatalf("delete response %+v", dr)
	}

	// The deleted set no longer matches; its near-neighbors still do.
	var qr queryResponse
	post(t, ts.URL+"/v1/query", Request{Set: sets[7], All: true}, &qr)
	for _, m := range qr.Matches {
		if m.ID == 7 || m.ID == 9 {
			t.Fatalf("deleted id %d still served: %+v", m.ID, qr)
		}
	}

	// Idempotent: deleting again (plus an unknown id) deletes nothing and
	// is not an error.
	dr = deleteResponse{}
	post(t, ts.URL+"/v1/delete", deleteRequest{IDs: []int{7, 1 << 30}}, &dr)
	if dr.Deleted != 0 || dr.Live != len(sets)-2 {
		t.Fatalf("repeat delete response %+v", dr)
	}
}

// TestServerCompact drives the maintenance endpoint end to end: churn
// the service with appends and deletes over the wire, compact, and check
// the ring shrank while answers are preserved.
func TestServerCompact(t *testing.T) {
	sets, _ := workload(300, 0.8, 311)
	extra, _ := workload(160, 0.8, 313)
	ix := Build(sets, 0.5, &Options{
		Shards: 2, Seed: 43, MergeThreshold: 40, Workers: 2,
		Trees: 2, LeafSize: 1 << 20, // exact mode: answers comparable bit-for-bit
	})
	ts := httptest.NewServer(NewServer(ix))
	t.Cleanup(ts.Close)

	// Append in merge-threshold-sized chunks so several small sealed
	// shards accumulate — the shape compaction exists to clean up.
	var del []int
	for i := 0; i < len(extra); i += 40 {
		end := i + 40
		if end > len(extra) {
			end = len(extra)
		}
		var ar addResponse
		post(t, ts.URL+"/v1/add", batchRequest{Sets: extra[i:end]}, &ar)
		for j, id := range ar.IDs {
			if j%3 == 0 {
				del = append(del, id)
			}
		}
	}
	var dr deleteResponse
	post(t, ts.URL+"/v1/delete", deleteRequest{IDs: del}, &dr)
	if dr.Deleted != len(del) {
		t.Fatalf("delete response %+v, want %d deleted", dr, len(del))
	}

	var before batchResponse
	post(t, ts.URL+"/v1/query_batch", batchRequest{Sets: extra}, &before)
	var preStats Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&preStats)
	resp.Body.Close()

	// GET must be rejected — compaction is a state change.
	resp, err = http.Get(ts.URL + "/v1/compact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compact status %d, want 405", resp.StatusCode)
	}

	var cr compactResponse
	post(t, ts.URL+"/v1/compact", struct{}{}, &cr)
	if cr.Merged == 0 || cr.Reclaimed != len(del) {
		t.Fatalf("compact response %+v, want merged shards and %d reclaimed", cr, len(del))
	}
	if cr.Shards >= preStats.Shards {
		t.Fatalf("ring did not shrink over the wire: %d -> %d", preStats.Shards, cr.Shards)
	}
	if cr.Tombstones != 0 {
		t.Fatalf("tombstones survived compaction: %+v", cr)
	}

	var after batchResponse
	post(t, ts.URL+"/v1/query_batch", batchRequest{Sets: extra}, &after)
	if len(after.Results) != len(before.Results) {
		t.Fatalf("result count changed: %d -> %d", len(before.Results), len(after.Results))
	}
	for i := range after.Results {
		if len(after.Results[i]) != len(before.Results[i]) {
			t.Fatalf("query %d: match count changed across /compact", i)
		}
		for j := range after.Results[i] {
			if after.Results[i][j] != before.Results[i][j] {
				t.Fatalf("query %d match %d changed across /compact", i, j)
			}
		}
	}

	var st Stats
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Compactions != 1 || st.Generation != cr.Generation {
		t.Fatalf("stats after compaction: %+v vs %+v", st, cr)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status %d, want 405", resp.StatusCode)
	}

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", resp.StatusCode)
	}

	// Unknown fields are rejected (catches clients hitting the wrong
	// endpoint shape).
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"sets":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-shape status %d, want 400", resp.StatusCode)
	}

	// Empty sets are rejected at the boundary (they cannot be indexed
	// when the side shard seals).
	resp, err = http.Post(ts.URL+"/v1/add", "application/json", strings.NewReader(`{"sets":[[1,2],[]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-set add status %d, want 400", resp.StatusCode)
	}

	// POST on /stats.
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status %d, want 405", resp.StatusCode)
	}
}

// decodeError reads a non-200 response's body as the uniform structured
// error shape and checks the embedded code matches the HTTP status.
func decodeError(t *testing.T, resp *http.Response) errorResponse {
	t.Helper()
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body is not structured JSON: %v", err)
	}
	if er.Code != resp.StatusCode {
		t.Fatalf("error body code %d != HTTP status %d", er.Code, resp.StatusCode)
	}
	if er.Error == "" {
		t.Fatal("error body carries no message")
	}
	return er
}

// TestServerOnePathPerEndpoint: every endpoint answers under /v1/ and
// nowhere else — the bare pre-/v1 paths are gone, not aliased.
func TestServerOnePathPerEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/stats", "/healthz", "/readyz", "/metrics", "/query"} {
		resp, err := http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("GET /v1%s is not routed", path)
		}
		if resp, err = http.Get(ts.URL + path); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status %d, want 404: bare paths are not served", path, resp.StatusCode)
		}
	}
}

// TestServerStructuredErrors: every failure answers with the uniform
// {"error", "code"} JSON body, matching the HTTP status.
func TestServerStructuredErrors(t *testing.T) {
	sets, _ := workload(500, 0.8, 301)
	ix := Build(sets, 0.5, &Options{Shards: 3, Seed: 41, MergeThreshold: 64, Workers: 2})
	ts := httptest.NewServer(NewServer(ix))
	t.Cleanup(ts.Close)

	// Method not allowed.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status %d, want 405", resp.StatusCode)
	}
	decodeError(t, resp)

	// Malformed JSON.
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d, want 400", resp.StatusCode)
	}
	decodeError(t, resp)

	// Request validation errors: unknown mode, a similarity threshold
	// below the index's λ (0.5) or above 1, containment without a
	// threshold (or out of range).
	for _, req := range []Request{
		{Set: sets[0], Mode: "fuzzy"},
		{Set: sets[0], Threshold: 0.3},
		{Set: sets[0], All: true, Threshold: 1.2},
		{Set: sets[0], Mode: "containment"},
		{Set: sets[0], Mode: "containment", Threshold: -0.2},
		{Set: sets[0], Mode: "containment", Threshold: 1.5},
	} {
		b, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %+v: status %d, want 400", req, resp.StatusCode)
		}
		decodeError(t, resp)
	}

	// A similarity threshold in [λ, 1] narrows, and the wire answer is
	// Search's answer — the one the public facade returns.
	for _, req := range []Request{
		{Set: sets[0], All: true, Threshold: 0.9},
		{Set: sets[0], Threshold: 0.9},
		{Set: sets[0], All: true, Threshold: 0.5, Limit: 2},
	} {
		var got queryResponse
		if resp := post(t, ts.URL+"/v1/query", req, &got); resp.StatusCode != 200 {
			t.Fatalf("request %+v: status %d", req, resp.StatusCode)
		}
		want, err := ix.Search(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != want.Found || got.ID != want.Best.ID || got.Sim != want.Best.Sim ||
			!equalMatches(t, got.Matches, want.Matches) {
			t.Fatalf("request %+v: wire %+v != Search %+v", req, got, want)
		}
		for _, m := range got.Matches {
			if m.Sim < req.Threshold {
				t.Fatalf("request %+v kept %+v below its threshold", req, m)
			}
		}
		if !got.Found {
			t.Fatalf("request %+v found nothing; the self match scores 1.0", req)
		}
	}
}

// TestServerContainmentQuery drives the containment arm of /v1/query end
// to end: a thinned probe of an indexed set must surface its source with
// the exact containment score, limit re-ranks, and the answers match the
// index's own QueryContain.
func TestServerContainmentQuery(t *testing.T) {
	sets, _ := workload(400, 0.8, 331)
	ix := Build(sets, 0.5, &Options{Shards: 3, Seed: 47, Workers: 2})
	ts := httptest.NewServer(NewServer(ix))
	t.Cleanup(ts.Close)

	probe := append([]uint32{}, sets[11][:len(sets[11])*2/3]...)
	var qr queryResponse
	if resp := post(t, ts.URL+"/v1/query",
		Request{Set: probe, Mode: "containment", Threshold: 0.6}, &qr); resp.StatusCode != 200 {
		t.Fatalf("containment query status %d", resp.StatusCode)
	}
	want, err := ix.QueryContain(probe, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Found || !equalMatches(t, qr.Matches, want) {
		t.Fatalf("wire answer %+v != index answer %v", qr, want)
	}
	self := false
	for _, m := range qr.Matches {
		if m.ID == 11 && m.Sim == 1.0 {
			self = true
		}
	}
	if !self {
		t.Fatalf("probe's source set not a full-containment match: %+v", qr.Matches)
	}

	// The empty query matches nothing in every mode: one early return, no
	// fan-out, nothing cached — and still a traced, well-formed answer.
	if err := ix.Configure(RuntimeOptions{CacheSize: 8}); err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Mode: "containment", Threshold: 0.6},
		{},
		{All: true},
	} {
		var empty queryResponse
		post(t, ts.URL+"/v1/query", queryRequest{Request: req, Debug: true}, &empty)
		if empty.Found || empty.ID != -1 || len(empty.Matches) != 0 || empty.Trace == nil || len(empty.Trace.Shards) != 0 {
			t.Fatalf("empty query %+v answered %+v (trace %+v)", req, empty, empty.Trace)
		}
	}
	var batch batchResponse
	post(t, ts.URL+"/v1/query_batch", batchRequest{Sets: [][]uint32{{}, probe}}, &batch)
	if len(batch.Results) != 2 || len(batch.Results[0]) != 0 || len(batch.Results[1]) == 0 {
		t.Fatalf("batch with an empty query answered %+v", batch.Results)
	}
	if st := ix.Stats(); st.CacheEntries != 1 || st.CacheMisses != 1 {
		t.Fatalf("empty queries touched the cache: %+v", st)
	}

	// limit=1 keeps the single best-scored match (ties to the lowest id).
	var limited queryResponse
	post(t, ts.URL+"/v1/query",
		Request{Set: probe, Mode: "containment", Threshold: 0.6, Limit: 1}, &limited)
	if len(limited.Matches) != 1 {
		t.Fatalf("limit=1 returned %d matches", len(limited.Matches))
	}
	best := limited.Matches[0]
	for _, m := range want {
		if m.Sim > best.Sim || (m.Sim == best.Sim && m.ID < best.ID) {
			t.Fatalf("limit=1 kept %+v, but %+v scores higher", best, m)
		}
	}
}

// TestServerColdShardBackendError: a shard whose backend fails at query
// time — here a cold shard whose containment section is damaged and
// re-sealed with fresh checksums, first decoded by the first containment
// query — fails /v1/query with a structured 502, never an answer merged
// without it. Similarity reads only intact sections and still answers.
func TestServerColdShardBackendError(t *testing.T) {
	sets, _ := workload(200, 0.8, 343)
	dir := rewriteContainSection(t, sets, func(b []byte) []byte { return b[:len(b)-4] })
	cold, err := LoadWithOptions(dir, LoadOptions{Tiering: TierCold})
	if err != nil {
		t.Fatalf("the damaged container must still open cold: %v", err)
	}
	ts := httptest.NewServer(NewServer(cold))
	t.Cleanup(ts.Close)

	probe := sets[5][:len(sets[5])*2/3]
	b, _ := json.Marshal(Request{Set: probe, Mode: ModeContainment, Threshold: 0.6})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("containment over a failing shard: status %d, want 502", resp.StatusCode)
	}
	if er := decodeError(t, resp); !strings.Contains(er.Error, "signature bytes") {
		t.Fatalf("error %q does not name the damaged section", er.Error)
	}
	var ok queryResponse
	if resp := post(t, ts.URL+"/v1/query", Request{Set: sets[5], All: true}, &ok); resp.StatusCode != 200 || !ok.Found {
		t.Fatalf("similarity query: status %d, %+v", resp.StatusCode, ok)
	}
}

// TestServerConcurrentTraffic drives queries, batches and adds from many
// goroutines at once — the serving path the race job guards.
func TestServerConcurrentTraffic(t *testing.T) {
	ts, sets := newTestServer(t)
	postJSON := func(url string, body any, out any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 25; i++ {
				switch g % 3 {
				case 0:
					var qr queryResponse
					if err := postJSON(ts.URL+"/v1/query", Request{Set: sets[(g*25+i)%len(sets)]}, &qr); err != nil {
						errc <- err
						return
					}
					if !qr.Found {
						errc <- fmt.Errorf("goroutine %d: self-query %d not found", g, i)
						return
					}
				case 1:
					var br batchResponse
					if err := postJSON(ts.URL+"/v1/query_batch", batchRequest{Sets: sets[:10]}, &br); err != nil {
						errc <- err
						return
					}
					if len(br.Results) != 10 {
						errc <- fmt.Errorf("goroutine %d: bad batch size %d", g, len(br.Results))
						return
					}
				default:
					var ar addResponse
					if err := postJSON(ts.URL+"/v1/add", batchRequest{Sets: [][]uint32{{uint32(1000000 + g*1000 + i)}}}, &ar); err != nil {
						errc <- err
						return
					}
					if len(ar.IDs) != 1 {
						errc <- fmt.Errorf("goroutine %d: bad add response", g)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
