package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"repro/internal/cpindex"
	"repro/internal/exec"
	"repro/internal/snapshot"
)

// Remote shards: the ring's shards are independent failure and build
// domains behind one facade, so making one remote is a client swap, not a
// redesign. A remoteShard proxies the shardBackend queries over HTTP to
// peer serve instances that host the shard's snapshot — shipped to them
// as the self-contained cpshard container a Save would write, verified by
// the same seed and checksum discipline the manifest enforces on disk.
// Each remote shard carries an ordered replica list and fails over down
// it; with KeepLocal the original in-process shard remains as the
// last-resort replica, so a fully partitioned coordinator still answers
// exactly. Only when no replica is live and no local copy exists does a
// query fail — with an error, never a silent partial merge.
//
// Tombstones, global ids and the fan-out/merge stay coordinator-side and
// unchanged: a peer answers shard-local queries with global ids (the
// shipped container includes the id map) and never sees deletes.

// defaultRemoteClient bounds how long a query waits on an unresponsive
// peer before failing over to the next replica.
var defaultRemoteClient = &http.Client{Timeout: 30 * time.Second}

// remoteShard is a ring shard served by peers. It satisfies shardBackend;
// the coordinator keeps the id map (and optionally the full local copy)
// for bookkeeping, persistence and failover.
type remoteShard struct {
	key      string
	seed     uint64
	crc      uint32 // CRC-32C of the shipped container bytes
	ids      []int
	total    int      // id high-water mark at placement; bounds decode validation on fetch
	replicas []string // peer base URLs, failover order
	local    *localShard
	client   *http.Client
	// signers are the owning index's containment signers, kept so a
	// save-time re-encode of the local copy writes the containment section
	// with the right global seed.
	signers *signers
	// metrics is the owning index's instrumentation hub (nil-safe); RPC
	// latency, errors, failovers and passive health are recorded per peer.
	metrics *indexMetrics
}

func (r *remoteShard) size() int                         { return len(r.ids) }
func (r *remoteShard) globalIDs() []int                  { return r.ids }
func (r *remoteShard) traceName(int) (name, kind string) { return r.key, "remote" }

func (r *remoteShard) httpClient() *http.Client {
	if r.client != nil {
		return r.client
	}
	return defaultRemoteClient
}

// deadErr wraps the last replica failure once every replica (and the
// local fallback, when absent) is exhausted.
func (r *remoteShard) deadErr(last error) error {
	return fmt.Errorf("shard %s: no live replica of %d (%v): %w",
		r.key, len(r.replicas), r.replicas, last)
}

// hasFallback reports whether a failure of replica i leaves the query
// another option — a further replica or the local copy. Only such skips
// count as failovers; the last resort failing is a query error instead.
func (r *remoteShard) hasFallback(i int) bool {
	return i+1 < len(r.replicas) || r.local != nil
}

// call posts req to path on each replica in failover order and returns
// the first good response; valid, when set, lets the caller reject a
// malformed one — a replica failure like any other: fail over rather than
// mis-slot the merge. Every attempt lands in the peer's RPC metrics and
// passive health bit. When no replica answers it returns the dead-topology
// error, which callers with a local copy answer from instead.
func call[T any](r *remoteShard, path string, req any, valid func(*T) error) (T, error) {
	var last error
	for i, base := range r.replicas {
		pm := r.metrics.peer(base)
		start := time.Now()
		var resp T
		err := postJSON(r.httpClient(), base+path, req, &resp)
		if err == nil && valid != nil {
			if err = valid(&resp); err != nil {
				err = fmt.Errorf("peer %s: %w", base, err)
			}
		}
		pm.observe(time.Since(start), err)
		if err == nil {
			return resp, nil
		}
		last = err
		if r.hasFallback(i) {
			pm.failover()
		}
	}
	var none T
	return none, r.deadErr(last)
}

func (r *remoteShard) query(p plan, q []uint32) (Result, cpindex.QueryStats, error) {
	req := shardQueryRequest{Shard: r.key, Set: q, All: p.kind == kindAll}
	if p.kind == kindContain {
		req.Mode, req.Threshold = ModeContainment, p.threshold
	}
	resp, err := call[queryResponse](r, "/v1/shard/query", req, nil)
	switch {
	case err == nil:
		return resp.result(), cpindex.QueryStats{}, nil
	case r.local != nil:
		return r.local.query(p, q)
	}
	return noMatch, cpindex.QueryStats{}, err
}

func (r *remoteShard) queryBatch(qs [][]uint32) ([][]Match, error) {
	resp, err := call(r, "/v1/shard/query_batch", shardBatchRequest{Shard: r.key, Sets: qs},
		func(resp *batchResponse) error {
			if len(resp.Results) != len(qs) {
				return fmt.Errorf("%d results for %d queries", len(resp.Results), len(qs))
			}
			return nil
		})
	switch {
	case err == nil:
		return resp.Results, nil
	case r.local != nil:
		return r.local.queryBatch(qs)
	}
	return nil, err
}

// fetchSnapshot downloads the shard's cpshard container from the first
// live replica and validates it — container checksums, seed, set count
// and id map — exactly as a disk load would, so a Save of a moved shard
// writes only verified bytes.
func (r *remoteShard) fetchSnapshot() ([]byte, error) {
	var last error
	for _, base := range r.replicas {
		raw, err := getShardSnapshot(r.httpClient(), base, r.key)
		if err != nil {
			last = err
			continue
		}
		if got := crc32.Checksum(raw, castagnoli); got != r.crc {
			last = fmt.Errorf("peer %s: shard %s bytes changed: crc %08x, shipped %08x", base, r.key, got, r.crc)
			continue
		}
		entry := snapshot.ShardEntry{Seed: r.seed, Sets: len(r.ids)}
		if _, err := decodeShardBytes(raw, entry, r.total); err != nil {
			last = fmt.Errorf("peer %s: %w", base, err)
			continue
		}
		return raw, nil
	}
	if r.local != nil {
		return encodeShardBytes(r.local, r.signers)
	}
	return nil, r.deadErr(last)
}

// shardQueryRequest targets one hosted shard on a peer. Queries arrive
// pre-normalized from the coordinator (this is the internal shard RPC,
// not the public /v1/query API).
type shardQueryRequest struct {
	Shard string   `json:"shard"`
	Set   []uint32 `json:"set"`
	All   bool     `json:"all,omitempty"`
	// Mode "containment" asks for containment matches at Threshold
	// instead of similarity matches; absent means similarity.
	Mode      Mode    `json:"mode,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

type shardBatchRequest struct {
	Shard string     `json:"shard"`
	Sets  [][]uint32 `json:"sets"`
}

// shipReceipt is a peer's acknowledgement of a shard snapshot upload:
// the identity it decoded plus the checksum of the bytes it now hosts,
// so the shipper can verify the transfer end to end.
type shipReceipt struct {
	Shard  string `json:"shard"`
	Seed   uint64 `json:"seed"`
	Sets   int    `json:"sets"`
	CRC32C uint32 `json:"crc32c"`
}

// postJSON posts body as JSON and decodes the 200 response into out; any
// other status is returned as an error carrying the peer's message.
func postJSON(client *http.Client, u string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(u, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", u, resp.Status, readErrBody(resp.Body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readErrBody returns a bounded snippet of an error response body. It
// drains (a bounded amount of) the remainder so the underlying keep-alive
// connection returns to the client's pool instead of being torn down —
// failover paths hit this on every retry, and re-dialing the next peer
// because the previous error body was left unread is pure waste.
func readErrBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	io.Copy(io.Discard, io.LimitReader(r, 64<<10))
	return strings.TrimSpace(string(b))
}

// castagnoli is the CRC-32C table shared by shipping verification and
// the hosted-shard registry (the same polynomial the container's
// sections use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shardKey names a shard on peers: the build seed (unique for an
// index's lifetime — every slot derives a fresh one) plus the CRC-32C
// of the container bytes. The checksum makes the key content-unique
// across coordinators sharing a peer: two indexes built from the same
// default seed over different collections produce different bytes and
// land under different keys instead of silently overwriting each other.
// Re-shipping the same shard reuses the same key (the encoding is
// deterministic), so placement stays idempotent.
func shardKey(seed uint64, crc uint32) string {
	return fmt.Sprintf("cps-%016x-%08x", seed, crc)
}

// encodeShardBytes returns one local shard as the self-contained cpshard
// container Save writes to disk — the unit of shard shipping: the shard's
// own container when it has one (the slice then aliases the mapping, so
// keep sh reachable while using it), a fresh encode otherwise. cs sign
// the containment section, so a hosted shard answers containment queries
// from exactly the structure the coordinator built.
func encodeShardBytes(sh *localShard, cs *signers) ([]byte, error) {
	if snap := sh.res.Load().snap; snap != nil {
		return snap.Bytes(), nil
	}
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, shardKind)
	if err != nil {
		return nil, err
	}
	if err := encodeShardSections(w, sh, cs); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// shipShard uploads one shard snapshot to a peer and verifies the
// receipt: the peer must echo the seed and set count it decoded and the
// CRC-32C of the bytes it now hosts.
func shipShard(client *http.Client, peer, key string, seed uint64, sets, total int, raw []byte) error {
	u := fmt.Sprintf("%s/v1/shard/snapshot?shard=%s&seed=%d&sets=%d&total=%d",
		peer, url.QueryEscape(key), seed, sets, total)
	resp, err := client.Post(u, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", u, resp.Status, readErrBody(resp.Body))
	}
	var rec shipReceipt
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return fmt.Errorf("%s: bad receipt: %v", u, err)
	}
	if want := crc32.Checksum(raw, castagnoli); rec.CRC32C != want || rec.Seed != seed || rec.Sets != sets {
		return fmt.Errorf("%s: receipt mismatch: peer decoded seed=%d sets=%d crc=%08x, shipped seed=%d sets=%d crc=%08x",
			u, rec.Seed, rec.Sets, rec.CRC32C, seed, sets, want)
	}
	return nil
}

// getShardSnapshot downloads a hosted shard's raw container bytes,
// bounded at maxShardSnapshotBytes like the upload path — a misbehaving
// peer must not be able to balloon the coordinator's memory during a
// fetch-back.
func getShardSnapshot(client *http.Client, peer, key string) ([]byte, error) {
	u := fmt.Sprintf("%s/v1/shard/snapshot?shard=%s", peer, url.QueryEscape(key))
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", u, resp.Status, readErrBody(resp.Body))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxShardSnapshotBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxShardSnapshotBytes {
		return nil, fmt.Errorf("%s: snapshot exceeds the %d-byte shard bound", u, maxShardSnapshotBytes)
	}
	return raw, nil
}

// deleteShardSnapshot evicts one hosted shard from a peer. Peers answer
// DELETE idempotently (an unknown key reports removed=false with 200),
// so retrying a delete is always safe.
func deleteShardSnapshot(client *http.Client, peer, key string) error {
	u := fmt.Sprintf("%s/v1/shard/snapshot?shard=%s", peer, url.QueryEscape(key))
	req, err := http.NewRequest(http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", u, resp.Status, readErrBody(resp.Body))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	return nil
}

// pingPeer GETs a peer's liveness endpoint. Any 200 counts — it asks "is
// the process serving", not "is its own ring ready".
func pingPeer(ctx context.Context, client *http.Client, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/v1/healthz: %s: %s", peer, resp.Status, readErrBody(resp.Body))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	return nil
}

// DistributeOptions configure Index.Distribute.
type DistributeOptions struct {
	// Replicas is the number of peers each shard is shipped to (N-way
	// replication for query availability). Default 1; clamped to the peer
	// count.
	Replicas int
	// KeepLocal retains the in-process copy of every shipped shard as the
	// last-resort replica: queries fail over to it when every peer is
	// down, so distribution can never make answers worse — only a moved
	// shard (KeepLocal false) can become unanswerable.
	KeepLocal bool
	// Client overrides the HTTP client used for shipping and queries
	// (default: a shared client with a 30s timeout).
	Client *http.Client
}

// normalizePeers validates and canonicalizes peer base URLs (trailing
// slashes stripped).
func normalizePeers(peers []string) ([]string, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("shard: need at least one peer")
	}
	bases := make([]string, len(peers))
	for i, p := range peers {
		bases[i] = strings.TrimRight(p, "/")
		if bases[i] == "" {
			return nil, fmt.Errorf("shard: empty peer URL at index %d", i)
		}
	}
	return bases, nil
}

// Distribute places the ring's local shards on peers: shard i ships its
// cpshard snapshot (the same verified container Save writes) to Replicas
// peers chosen round-robin starting at peers[i mod len(peers)] — a static
// assignment, so the same flags reproduce the same placement — and the
// ring entry becomes a remote-shard client that fans queries out to those
// replicas in order. Query results are byte-identical to the all-local
// ring: peers answer from exactly the shipped structure, global ids and
// tombstone filtering stay coordinator-side.
//
// Already-remote shards are left untouched. Shipping runs against a read
// snapshot of the ring and the swap is atomic under a generation bump, so
// queries are served throughout.
//
// Every call records its peers and options as the index's placement
// state, and from then on every ring change re-runs it (see placement.go):
// shards sealed or merged later are shipped by the index itself, a
// compaction's before Compact returns, a seal's on the background
// maintenance goroutine. Each pass ends with a garbage-collection sweep:
// hosted (key, peer) pairs this coordinator shipped that the post-swap
// ring no longer references are DELETEd from their peers. The sweep runs
// on the error path too — a failed pass leaves the ring unchanged, so
// everything it shipped before failing is unreferenced and is unwound the
// same way a superseded key from an earlier pass is.
func (x *Index) Distribute(peers []string, o *DistributeOptions) error {
	bases, err := normalizePeers(peers)
	if err != nil {
		return err
	}
	opt := DistributeOptions{Replicas: 1, KeepLocal: true}
	if o != nil {
		opt = *o
	}
	if opt.Replicas < 1 {
		opt.Replicas = 1
	}
	if opt.Replicas > len(bases) {
		opt.Replicas = len(bases)
	}
	client := opt.Client
	if client == nil {
		client = defaultRemoteClient
	}

	// Serialize with compaction: compactMu is the only path that removes
	// ring shards, so every shard shipped below is still in the ring at
	// swap time (seals only append).
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	x.placement.beginPass(bases, opt)
	defer x.placementGC()
	x.mu.RLock()
	shards := append([]shardBackend(nil), x.shards...)
	total := x.total
	x.mu.RUnlock()

	// Shards ship as parallel tasks on the execution layer — like Save's
	// per-shard fan-out, so distribution latency is bounded by the
	// largest shard, not the sum. Within one shard the replicas are
	// shipped in order (the order queries will fail over in).
	remotes := make([]*remoteShard, len(shards))
	errs := make([]error, len(shards))
	exec.RunItems(exec.EffectiveWorkers(x.opt.Workers), len(shards), func(i int) {
		// Every local shard ships, from whichever tier it is in: a shard
		// that has a container uploads those bytes as they lie (for a cold
		// one, the mapping), only a hot never-encoded one pays an encode.
		// Already-remote shards are left in place.
		sub, ok := shards[i].(*localShard)
		if !ok {
			return
		}
		raw, err := encodeShardBytes(sub, x.signers)
		if err != nil {
			errs[i] = fmt.Errorf("shard: encoding shard %d: %w", i, err)
			return
		}
		seed := sub.seed
		crc := crc32.Checksum(raw, castagnoli)
		key := shardKey(seed, crc)
		assigned := make([]string, 0, opt.Replicas)
		for r := 0; r < opt.Replicas; r++ {
			assigned = append(assigned, bases[(i+r)%len(bases)])
		}
		for _, peer := range assigned {
			// Record the pair before the upload, not after: an upload whose
			// acknowledgement was lost may still have registered the shard
			// on the peer, and a pessimistically recorded pair costs only
			// one idempotent DELETE at the next GC sweep.
			x.placement.record(key, peer)
			if err := shipShard(client, peer, key, seed, len(sub.ids), total, raw); err != nil {
				errs[i] = fmt.Errorf("shard: shipping shard %d to %s: %w", i, peer, err)
				return
			}
			if m := x.metrics; m != nil {
				m.placementShipped.Inc()
			}
		}
		runtime.KeepAlive(sub) // raw may be the mapping sub pins; the last upload has read it
		remote := &remoteShard{
			key:      key,
			seed:     seed,
			crc:      crc,
			ids:      sub.ids,
			total:    total,
			replicas: assigned,
			client:   opt.Client,
			metrics:  x.metrics,
			signers:  x.signers,
		}
		// Pre-create the peer collectors so /metrics and Health cover
		// every replica from placement time, not first contact.
		for _, peer := range assigned {
			x.metrics.peer(peer)
		}
		if opt.KeepLocal {
			remote.local = sub
		}
		remotes[i] = remote
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	swap := make(map[shardBackend]shardBackend)
	for i, r := range remotes {
		if r != nil {
			swap[shards[i]] = r
		}
	}
	if len(swap) == 0 {
		return nil
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	// Copy-on-write like the compaction swap: in-flight queries iterate
	// their snapshot of the old slice.
	ring := make([]shardBackend, len(x.shards))
	for i, sh := range x.shards {
		if r, ok := swap[sh]; ok {
			ring[i] = r
		} else {
			ring[i] = sh
		}
	}
	x.shards = ring
	x.generation++
	x.version.Add(1)
	return nil
}
