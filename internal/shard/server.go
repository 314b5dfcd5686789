package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/intset"
	"repro/internal/snapshot"
)

// Server wraps a sharded index as an HTTP/JSON query service — the
// serving facade that cmd/serve binds to a listener. All endpoints are
// safe under concurrent requests; /v1/add serializes against queries
// through the index's lock. Every endpoint answers at exactly one path,
// under /v1/. Errors are uniform structured JSON — {"error": "...",
// "code": NNN} — on every endpoint.
//
//	POST /v1/query        {"set":[...], "mode":"similarity"|"containment",
//	                       "threshold":t, "all":bool, "limit":n, "debug":bool}
//	POST /v1/query_batch  {"sets":[[...],...]}      -> per-query match lists
//	POST /v1/add          {"sets":[[...],...]}      -> assigned global ids
//	POST /v1/delete       {"ids":[...]}             -> tombstone ids
//	POST /v1/compact      (no body)                 -> run one compaction pass
//	GET  /v1/stats                                  -> index shape snapshot
//	GET  /v1/metrics                                -> Prometheus text exposition
//	GET  /v1/healthz                                -> liveness: 200 + health JSON
//	GET  /v1/readyz                                 -> readiness: 503 when a remote shard is unanswerable
//
// /v1/query's body is a Request and its answer Index.Search's: the
// default mode ("similarity", or the field absent) answers with the best
// match over the index's similarity threshold, or every match with
// "all":true; a "threshold" in [λ, 1] narrows either. Mode "containment"
// requires "threshold" in (0,1] and returns every indexed set whose
// containment of the query — |q ∩ x| / |q| — reaches it, the
// domain-discovery primitive. "limit", when positive, re-ranks the
// matches by score (ties by id) and keeps the top n. "debug":true returns
// the per-shard trace (timings, candidate counts, cache outcome)
// alongside the answer; with ServerOptions.SlowQuery set, every query
// over the threshold additionally emits one structured log line with the
// same breakdown.
//
// The /v1/shard/* endpoints make any serve instance a peer in a
// distributed topology: a coordinator ships cpshard snapshot files here
// and then fans per-shard queries out to them (see Distribute). They
// operate on the hosted-shard registry, not on the instance's own index,
// so one process can serve its own ring and host replicas for others
// simultaneously.
//
//	POST   /v1/shard/snapshot?shard=K&seed=S&sets=N&total=T  (body: cpshard bytes) -> validated receipt
//	GET    /v1/shard/snapshot?shard=K                        -> the hosted container bytes back
//	DELETE /v1/shard/snapshot?shard=K                        -> evict a hosted shard
//	POST   /v1/shard/query        {"shard":K, "set":[...], "all":bool,
//	                               "mode":"containment", "threshold":t}   -> matches with global ids
//	POST   /v1/shard/query_batch  {"shard":K, "sets":[[...],...]}         -> per-query match lists
type Server struct {
	ix  *Index
	mux *http.ServeMux

	// slowQuery > 0 traces every /v1/query and logs those over the
	// threshold to logger (see ServerOptions).
	slowQuery time.Duration
	logger    *slog.Logger

	// hosted is the peer-side shard registry: shards shipped here by
	// coordinators, keyed by their coordinator-assigned name. The decoded
	// structure answers /v1/shard/query*; a shard keeps its container, the
	// posted body, so /v1/shard/snapshot GETs (compaction recall, save-time
	// fetch-back, transfer verification) return exactly what was shipped.
	hostedMu sync.RWMutex
	hosted   map[string]*localShard
}

// ServerOptions configure the optional observability behavior of a
// Server; the zero value (and a nil pointer) keep every default.
type ServerOptions struct {
	// SlowQuery, when positive, traces every /v1/query request and emits one
	// structured log line for requests whose total latency reaches the
	// threshold: query size, per-shard timings, candidate counts and cache
	// outcome. Tracing allocates per request, so this is a knob, not a
	// default.
	SlowQuery time.Duration
	// Logger receives the slow-query lines (default slog.Default()).
	Logger *slog.Logger
	// DisableMetrics leaves /v1/metrics unregistered — for embedders that
	// mount the registry elsewhere or want no exposition endpoint.
	DisableMetrics bool
}

// maxRequestBytes bounds a single request body (64 MiB covers batches of
// hundreds of thousands of typical sets while keeping one malformed
// client from exhausting memory).
const maxRequestBytes = 64 << 20

// maxShardSnapshotBytes bounds one shard container upload. Shards are
// bulk structures, not query batches, so the bound is deliberately much
// larger (1 GiB ≈ hundreds of millions of tokens per shard) — a shard
// the coordinator could build must also be shippable.
const maxShardSnapshotBytes = 1 << 30

// NewServer returns the HTTP handler serving the index with default
// options (metrics on, slow-query log off).
func NewServer(ix *Index) *Server {
	return NewServerOpts(ix, nil)
}

// NewServerOpts returns the HTTP handler serving the index with the given
// observability options.
func NewServerOpts(ix *Index, o *ServerOptions) *Server {
	opt := ServerOptions{}
	if o != nil {
		opt = *o
	}
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	s := &Server{
		ix:        ix,
		mux:       http.NewServeMux(),
		slowQuery: opt.SlowQuery,
		logger:    opt.Logger,
		hosted:    make(map[string]*localShard),
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/query_batch", s.handleQueryBatch)
	s.mux.HandleFunc("/v1/add", s.handleAdd)
	s.mux.HandleFunc("/v1/delete", s.handleDelete)
	s.mux.HandleFunc("/v1/compact", s.handleCompact)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/shard/snapshot", s.handleShardSnapshot)
	s.mux.HandleFunc("/v1/shard/query", s.handleShardQuery)
	s.mux.HandleFunc("/v1/shard/query_batch", s.handleShardQueryBatch)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/readyz", s.handleReadyz)
	if reg := ix.Metrics(); reg != nil && !opt.DisableMetrics {
		reg.GaugeFunc("cps_hosted_shards", "shards hosted here for coordinators", func() float64 {
			return float64(s.HostedShards())
		})
		s.mux.Handle("/v1/metrics", reg)
	}
	return s
}

// errorResponse is the uniform error body of every endpoint: the
// message plus the HTTP status it rode in on, so clients that log the
// body alone keep the code.
type errorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// writeError emits the structured JSON error body with the matching
// HTTP status. Every handler error funnels through here — no endpoint
// answers with a bare text/plain error.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// handleHealthz is the liveness probe: always 200 (the process serves),
// with the full health report as the body for operators.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ix.Health())
}

// handleReadyz is the readiness probe: 503 with the report when some
// remote-backed shard has no healthy replica and no local copy — the
// state in which queries error — so load balancers drain the node. The
// down peers behind such a shard are re-checked first, so the node turns
// ready again once they heal, with no query traffic to notice.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.ix.ready(r.Context())
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// queryRequest is the /v1/query body: a Request plus the trace switch.
type queryRequest struct {
	Request
	// Debug requests the per-shard trace in the response.
	Debug bool `json:"debug"`
}

// queryResponse is the wire form of a Result, on /v1/query and on the
// shard RPC alike.
type queryResponse struct {
	Found bool `json:"found"`
	// ID and Sim describe the best match of a non-all query; ID is -1
	// when they don't apply. Always present: id 0 is a legitimate match,
	// so omitempty would be ambiguous on the wire.
	ID      int     `json:"id"`
	Sim     float64 `json:"sim"`
	Matches []Match `json:"matches,omitempty"`
	// Trace is present only for "debug":true requests.
	Trace *QueryTrace `json:"trace,omitempty"`
}

func wireResult(res Result) queryResponse {
	return queryResponse{Found: res.Found, ID: res.Best.ID, Sim: res.Best.Sim, Matches: res.Matches}
}

func (r queryResponse) result() Result {
	return Result{Found: r.Found, Best: Match{ID: r.ID, Sim: r.Sim}, Matches: r.Matches}
}

type batchRequest struct {
	Sets [][]uint32 `json:"sets"`
}

type batchResponse struct {
	Results [][]Match `json:"results"`
}

// wireBatch marshals empty match lists as [] rather than null, so clients
// can index the results without nil checks.
func wireBatch(results [][]Match) batchResponse {
	for i := range results {
		if results[i] == nil {
			results[i] = []Match{}
		}
	}
	return batchResponse{Results: results}
}

type addResponse struct {
	IDs      []int `json:"ids"`
	Total    int   `json:"total"`
	Buffered int   `json:"buffered"`
	Shards   int   `json:"shards"`
}

type deleteRequest struct {
	IDs []int `json:"ids"`
}

type deleteResponse struct {
	// Deleted counts ids that were live (unknown and already-deleted ids
	// are skipped, not errors — deletes are idempotent on the wire).
	Deleted    int `json:"deleted"`
	Live       int `json:"live"`
	Tombstones int `json:"tombstones"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decode(w, r, &req) {
		return
	}
	// Trace when the client asked for the breakdown or when the slow-query
	// log might need it — the threshold check can only happen after the
	// fact, so the breakdown must be captured up front. A nil trace is the
	// plain (zero-allocation) path.
	var tr *QueryTrace
	if req.Debug || s.slowQuery > 0 {
		tr = &QueryTrace{}
	}
	res, err := s.ix.Search(req.Request, tr)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := wireResult(res)
	if tr != nil {
		s.logSlow(req.Request, tr)
		if req.Debug {
			resp.Trace = tr
		}
	}
	writeJSON(w, resp)
}

// writeQueryError maps a query error onto its status: the request's own
// fault is a 400; anything else — a dead remote topology (no live replica,
// no local copy), a corrupt cold shard — is a hard serving error, never a
// silently partial answer.
func writeQueryError(w http.ResponseWriter, err error) {
	code := http.StatusBadGateway
	if errors.Is(err, ErrBadRequest) {
		code = http.StatusBadRequest
	}
	writeError(w, code, "%v", err)
}

// logSlow emits the slow-query line when the traced request crossed the
// threshold.
func (s *Server) logSlow(req Request, tr *QueryTrace) {
	if s.slowQuery <= 0 || time.Duration(tr.TotalNs) < s.slowQuery {
		return
	}
	if m := s.ix.metrics; m != nil {
		m.slowQueries.Inc()
	}
	s.logger.Warn("slow query",
		"query_size", len(req.Set),
		"mode", req.Mode,
		"all", req.All,
		"total_ns", tr.TotalNs,
		"cache_hit", tr.CacheHit,
		"candidates", tr.Candidates,
		"verified", tr.Verified,
		"shards", tr.Shards,
	)
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	for i, set := range req.Sets {
		req.Sets[i] = intset.Normalize(set)
	}
	results, err := s.ix.QueryBatchErr(req.Sets)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, wireBatch(results))
}

// hostedShardFor resolves a shard RPC's target, writing the 4xx itself
// when the request names no shard or an unknown one.
func (s *Server) hostedShardFor(w http.ResponseWriter, key string) *localShard {
	if key == "" {
		writeError(w, http.StatusBadRequest, "bad request: missing shard key")
		return nil
	}
	s.hostedMu.RLock()
	h := s.hosted[key]
	s.hostedMu.RUnlock()
	if h == nil {
		writeError(w, http.StatusNotFound, "shard %q not hosted here", key)
		return nil
	}
	return h
}

// handleShardQuery answers a coordinator's per-shard query against a
// hosted shard, with global ids (the shipped container carries the id
// map). This is the internal shard RPC: queries arrive pre-normalized
// and tombstones stay coordinator-side, exactly as for an in-process
// shard. A hosted shard answers containment from the signatures its
// container carries — a peer never signs with guessed options, or the
// global determinism contract would break — and those are decoded on the
// first containment query, so a backend error here is real: it goes back
// as a structured 500 and the coordinator fails over, instead of merging
// an empty shard.
func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	var req shardQueryRequest
	if !decode(w, r, &req) {
		return
	}
	h := s.hostedShardFor(w, req.Shard)
	if h == nil {
		return
	}
	// The coordinator validated any similarity threshold against its λ and
	// applies it after the merge; here only the mode and the containment
	// threshold matter.
	p, err := newPlan(req.Mode, req.All, req.Threshold, 0)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	p.signers = s.ix.signers // hosted shards share this process's signers
	res, _, err := h.query(p, req.Set)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "shard %q: %v", req.Shard, err)
		return
	}
	writeJSON(w, wireResult(res))
}

func (s *Server) handleShardQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req shardBatchRequest
	if !decodeBulk(w, r, &req) {
		return
	}
	h := s.hostedShardFor(w, req.Shard)
	if h == nil {
		return
	}
	results, err := h.queryBatch(req.Sets)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "shard %q: %v", req.Shard, err)
		return
	}
	writeJSON(w, wireBatch(results))
}

// handleShardSnapshot is the shard shipping endpoint. POST accepts one
// cpshard container (the body) under the identity the shipper's manifest
// claims (seed, set count, id bound as query parameters), validates it
// with exactly the guards a disk restart enforces — container checksums,
// seed and count cross-checks, id bounds — and only then registers it;
// the receipt echoes the decoded identity plus the CRC-32C of the hosted
// bytes so the shipper verifies the transfer end to end. GET returns the
// hosted bytes unchanged, for compaction recall and save-time fetch-back.
func (s *Server) handleShardSnapshot(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("shard")
	switch r.Method {
	case http.MethodGet:
		h := s.hostedShardFor(w, key)
		if h == nil {
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(h.res.Load().snap.Bytes()) // the body it was posted as
	case http.MethodPost:
		if key == "" {
			writeError(w, http.StatusBadRequest, "bad request: missing shard key")
			return
		}
		seed, err1 := strconv.ParseUint(r.URL.Query().Get("seed"), 10, 64)
		sets, err2 := strconv.Atoi(r.URL.Query().Get("sets"))
		total, err3 := strconv.Atoi(r.URL.Query().Get("total"))
		if err1 != nil || err2 != nil || err3 != nil || sets < 0 || total < 0 {
			writeError(w, http.StatusBadRequest, "bad request: seed, sets and total must be non-negative integers")
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardSnapshotBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		sub, err := decodeShardBytes(raw, snapshot.ShardEntry{Seed: seed, Sets: sets}, total)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request: shard snapshot rejected: %v", err)
			return
		}
		// Hosted shards answer coordinator RPCs from this process, so their
		// candidate pipeline flushes into this process's counters.
		s.ix.attachCounters(sub)
		s.hostedMu.Lock()
		s.hosted[key] = sub
		s.hostedMu.Unlock()
		writeJSON(w, shipReceipt{Shard: key, Seed: seed, Sets: sets, CRC32C: crc32.Checksum(raw, castagnoli)})
	case http.MethodDelete:
		// Eviction: a coordinator (or operator) retires a hosted shard it
		// no longer routes to — after a re-distribution superseded it, or
		// to unwind a partially failed placement — so long-lived peers
		// don't accumulate dead shards. Idempotent: deleting an unknown
		// key reports removed=false rather than erroring.
		if key == "" {
			writeError(w, http.StatusBadRequest, "bad request: missing shard key")
			return
		}
		s.hostedMu.Lock()
		_, removed := s.hosted[key]
		delete(s.hosted, key)
		s.hostedMu.Unlock()
		writeJSON(w, struct {
			Shard   string `json:"shard"`
			Removed bool   `json:"removed"`
		}{key, removed})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

// HostedShards reports how many shipped shards this server currently
// hosts for coordinators.
func (s *Server) HostedShards() int {
	s.hostedMu.RLock()
	defer s.hostedMu.RUnlock()
	return len(s.hosted)
}

// HostedKeys returns the keys of every hosted shard, sorted — what the
// placement tests and the serving bench compare against the
// coordinator's ring to prove the GC sweep leaves no superseded keys.
func (s *Server) HostedKeys() []string {
	s.hostedMu.RLock()
	keys := make([]string, 0, len(s.hosted))
	for k := range s.hosted {
		keys = append(keys, k)
	}
	s.hostedMu.RUnlock()
	sort.Strings(keys)
	return keys
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	for i, set := range req.Sets {
		req.Sets[i] = intset.Normalize(set)
		if len(req.Sets[i]) == 0 {
			writeError(w, http.StatusBadRequest, "bad request: set %d is empty", i)
			return
		}
	}
	ids := s.ix.Add(req.Sets)
	st := s.ix.Stats()
	writeJSON(w, addResponse{IDs: ids, Total: st.Sets, Buffered: st.Buffered, Shards: st.Shards})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if !decode(w, r, &req) {
		return
	}
	deleted := s.ix.DeleteBatch(req.IDs)
	st := s.ix.Stats()
	writeJSON(w, deleteResponse{Deleted: deleted, Live: st.Sets, Tombstones: st.Tombstones})
}

type compactResponse struct {
	CompactResult
	// Shards and Tombstones describe the ring after the pass.
	Shards     int `json:"shards"`
	Tombstones int `json:"tombstones"`
}

// handleCompact runs one synchronous compaction pass; the response says
// what it did (merged=0 means nothing was eligible). Queries and appends
// are served throughout — the pass only swaps the ring at the end — so
// calling this on a live service is safe; concurrent calls serialize.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	res := s.ix.Compact()
	st := s.ix.Stats()
	writeJSON(w, compactResponse{CompactResult: res, Shards: st.Shards, Tombstones: st.Tombstones})
}

// statsResponse is the index shape plus the server-level hosted-shard
// count (shards shipped here by coordinators live in the server's
// registry, not in the index).
type statsResponse struct {
	Stats
	HostedShards int `json:"hosted_shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	writeJSON(w, statsResponse{Stats: s.ix.Stats(), HostedShards: s.HostedShards()})
}

// decode reads a POST JSON body into v, writing the HTTP error itself and
// returning false when the request is unusable.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeLimited(w, r, v, maxRequestBytes)
}

// decodeBulk is decode with the bulk-transfer bound — for the internal
// shard RPCs, where the coordinator ships a whole batch in one request
// per shard: a batch that an all-local ring would answer must not become
// unanswerable just because its shards moved to peers.
func decodeBulk(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeLimited(w, r, v, maxShardSnapshotBytes)
}

func decodeLimited(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
