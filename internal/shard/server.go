package shard

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/intset"
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
//	GET  /v1/readyz                                 -> readiness: the same 200 + health JSON
//
// /v1/query's body is a Request and its answer Index.Search's: the
// default mode ("similarity", or the field absent) answers with every match
// over the index's similarity threshold with "all":true, or else the top of
// that list (highest similarity, ties to the lower id); a "threshold" in
// [λ, 1] narrows the list first, for either. Mode "containment"
// requires "threshold" in (0,1] and returns every indexed set whose
// containment of the query — |q ∩ x| / |q| — reaches it, the
// domain-discovery primitive. "limit", when positive, re-ranks the
// matches by score (ties by id) and keeps the top n. "debug":true returns
// the per-shard trace (timings, candidate counts, cache outcome)
// alongside the answer; with ServerOptions.SlowQuery set, every query
// over the threshold additionally emits one structured log line with the
// same breakdown.
type Server struct {
	ix  *Index
	mux *http.ServeMux

	// slowQuery > 0 traces every /v1/query and logs those over the
	// threshold to logger (see ServerOptions).
	slowQuery time.Duration
	logger    *slog.Logger
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
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/query_batch", s.handleQueryBatch)
	s.mux.HandleFunc("/v1/add", s.handleAdd)
	s.mux.HandleFunc("/v1/delete", s.handleDelete)
	s.mux.HandleFunc("/v1/compact", s.handleCompact)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/readyz", s.handleHealth)
	if reg := ix.Metrics(); reg != nil && !opt.DisableMetrics {
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

// handleHealth is the liveness and the readiness probe alike: always 200,
// with the health report as the body for operators. The server is built
// over an index that is already built or restored, so serving at all is
// being ready.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ix.Health())
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

// queryResponse is the wire form of a Result on /v1/query.
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
		// The only query error is the request's own fault (ErrBadRequest):
		// every shard was validated when it was built or opened.
		writeError(w, http.StatusBadRequest, "%v", err)
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
	writeJSON(w, wireBatch(s.ix.QueryBatchErr(req.Sets)))
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	writeJSON(w, s.ix.Stats())
}

// decode reads a POST JSON body into v, writing the HTTP error itself and
// returning false when the request is unusable.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
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
