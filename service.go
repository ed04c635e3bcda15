package hotprefetch

// The networked multi-tenant profiling service: everything below PR 7 ran in
// one process — profiled workload and profile in the same address space. The
// Service turns the sharded profile into a deployable system: remote clients
// capture (pc, addr) reference streams with the client package, frame them
// with internal/tracefile's fuzz-hardened wire format, and publish them over
// HTTP; the service streams each body through a chunked decoder (never
// materializing an upload), routes it to the publishing tenant's own
// ShardedProfile, and serves per-tenant hot streams, stats, and Prometheus
// metrics back out. The paper's bursty tracing (§2.1–2.2) is what makes the
// arrangement affordable: a fleet of clients each sampling ~0.5% of its
// references can share one central profile service — the PGO "central
// profile service for an ephemeral fleet" shape.
//
// Tenancy is key-based and auth-free (put real authentication in front of
// the service; the key is an isolation unit, not a credential): every tenant
// key maps to an independent ShardedProfile with its own shards, grammars,
// ingestion policy, burst front end, and reference quota, so one tenant's
// volume can never shed, slow, or pollute another's profile. The registry is
// bounded: past MaxTenants, publishing under a new key evicts the
// least-recently-published tenant (its profile is closed and dropped;
// in-flight publishes to it fail with 410 Gone, never a partial account).

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hotprefetch/internal/tracefile"
)

// Service defaults; see ServiceConfig.
const (
	defaultMaxTenants     = 64
	defaultMaxBodyBytes   = 32 << 20
	defaultMetricsTenants = 16

	// publishChunk is the streaming-decode granularity of the ingest
	// endpoint: one chunk of references is resident per in-flight publish,
	// however long the upload claims to be.
	publishChunk = 2048

	// maxTenantKeyLen bounds tenant keys; they become Prometheus label
	// values, map keys, and snapshot file names, so they must stay small,
	// printable, and filesystem-safe.
	maxTenantKeyLen = 64

	// defaultSnapshotInterval is the periodic checkpoint cadence when
	// ServiceConfig.SnapshotDir is set without an explicit interval.
	defaultSnapshotInterval = 60 * time.Second
)

// ErrServiceClosed is returned by Service.Tenant after Close.
var ErrServiceClosed = errors.New("hotprefetch: service closed")

// ErrBadTenantKey is returned for tenant keys that are empty, too long, or
// contain characters outside [A-Za-z0-9._-].
var ErrBadTenantKey = errors.New("hotprefetch: bad tenant key (want 1-64 chars of [A-Za-z0-9._-])")

// ServiceConfig configures a multi-tenant profiling Service.
type ServiceConfig struct {
	// Tenant is the profile template instantiated for every tenant key:
	// shard count, ingestion policy, grammar budget, analysis pipeline,
	// burst front end, and — the per-tenant budget — RefQuota. Each tenant
	// gets an independent ShardedProfile built from this configuration.
	Tenant ShardedConfig

	// MaxTenants bounds the registry (0 means 64). Publishing under a new
	// key when the registry is full evicts the least-recently-published
	// tenant.
	MaxTenants int

	// MaxBodyBytes caps one publish body (0 means 32 MiB). The cap bounds
	// wire bytes per request; the streaming decoder already bounds resident
	// memory to one chunk regardless.
	MaxBodyBytes int64

	// MetricsTenants bounds the tenant label cardinality of the Prometheus
	// exposition (0 means 16): the busiest MetricsTenants tenants get their
	// own labeled series, everything else is aggregated under
	// tenant="_other", so a tenant churn storm cannot blow up the scrape.
	MetricsTenants int

	// SnapshotDir, when non-empty, enables durable per-tenant snapshots
	// under <SnapshotDir>/<key>.snap: newly created tenants warm-start from
	// their file when present, CheckpointAll (and the periodic loop) writes
	// them atomically, and hdsprofd checkpoints every tenant during
	// graceful drain. See service_snapshot.go.
	SnapshotDir string

	// SnapshotInterval is the periodic checkpoint cadence when SnapshotDir
	// is set: 0 means 60s, negative disables the background loop (leaving
	// checkpoints to CheckpointAll and the /snapshot endpoints).
	SnapshotInterval time.Duration
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	// The service resolves PrepassAuto to On: its hot-stream contract is
	// equivalence-after-expansion (BankedStreams from grammar cycles), which
	// the two-level ingest front end preserves, and the networked path is
	// exactly where the per-reference compression cost compounds. Tenants
	// that need bit-identical grammars set Prepass to PrepassOff explicitly.
	if c.Tenant.Prepass == PrepassAuto {
		c.Tenant.Prepass = PrepassOn
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = defaultMaxTenants
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	if c.MetricsTenants <= 0 {
		c.MetricsTenants = defaultMetricsTenants
	}
	if c.SnapshotDir != "" && c.SnapshotInterval == 0 {
		c.SnapshotInterval = defaultSnapshotInterval
	}
	return c
}

// Validate reports whether the configuration is well-formed.
func (c ServiceConfig) Validate() error {
	if err := c.Tenant.Validate(); err != nil {
		return fmt.Errorf("Tenant: %w", err)
	}
	return nil
}

// Tenant is one tenant's registry entry: its key, its profile, and its
// publish accounting. A Tenant handle obtained before an eviction stays
// usable for reads; publishes to it fail with ErrClosed once the eviction's
// Close lands.
type Tenant struct {
	key string
	sp  *ShardedProfile

	lastUsed  atomic.Uint64 // service logical clock at last publish
	publishes atomic.Uint64 // publish requests that reached this tenant
	published atomic.Uint64 // references accepted from publish bodies

	// gen is the tenant's snapshot generation: the generation restored at
	// warm start (or adopted from POST /snapshot), advanced by each
	// successful checkpoint. See service_snapshot.go.
	gen atomic.Uint64

	closeOnce sync.Once
}

// Key returns the tenant key.
func (t *Tenant) Key() string { return t.key }

// Profile returns the tenant's ShardedProfile.
func (t *Tenant) Profile() *ShardedProfile { return t.sp }

func (t *Tenant) close() { t.closeOnce.Do(t.sp.Close) }

// Service is the networked multi-tenant profiling service: a bounded
// registry of per-tenant ShardedProfiles behind an HTTP ingest endpoint.
// Create one with NewService, mount Handler on a server, and Close it when
// done.
type Service struct {
	cfg ServiceConfig

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool

	clock   atomic.Uint64 // logical LRU clock, bumped per publish
	closers sync.WaitGroup

	evictions     atomic.Uint64
	publishes     atomic.Uint64
	publishedRefs atomic.Uint64
	decodeErrors  atomic.Uint64
	rejected      atomic.Uint64

	// Snapshot machinery (see service_snapshot.go): snapMu serializes
	// checkpoint passes so generation advancement never races; snapStop
	// stops the periodic loop at Close.
	snapMu        sync.Mutex
	snapStop      chan struct{}
	snapLoads     atomic.Uint64
	snapLoadFails atomic.Uint64
	snapWrites    atomic.Uint64
	snapWriteErrs atomic.Uint64
	snapRefused   atomic.Uint64
}

// NewService returns a service with no tenants; tenants materialize on first
// publish (or Tenant call) and are torn down by LRU eviction or Close.
func NewService(cfg ServiceConfig) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	svc := &Service{cfg: cfg, tenants: make(map[string]*Tenant)}
	if cfg.SnapshotDir != "" && cfg.SnapshotInterval > 0 {
		svc.snapStop = make(chan struct{})
		svc.closers.Add(1)
		go svc.checkpointLoop(svc.snapStop)
	}
	return svc, nil
}

func validTenantKey(key string) bool {
	if len(key) == 0 || len(key) > maxTenantKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Tenant returns the tenant registered under key, creating it (and evicting
// the least-recently-published tenant if the registry is full) when absent.
func (svc *Service) Tenant(key string) (*Tenant, error) {
	if !validTenantKey(key) {
		return nil, ErrBadTenantKey
	}
	now := svc.clock.Add(1)
	svc.mu.RLock()
	t := svc.tenants[key]
	closed := svc.closed
	svc.mu.RUnlock()
	if t != nil {
		t.lastUsed.Store(now)
		return t, nil
	}
	if closed {
		return nil, ErrServiceClosed
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.closed {
		return nil, ErrServiceClosed
	}
	if t := svc.tenants[key]; t != nil {
		t.lastUsed.Store(now)
		return t, nil
	}
	if len(svc.tenants) >= svc.cfg.MaxTenants {
		svc.evictLRULocked()
	}
	sp, err := NewShardedProfileConfig(svc.cfg.Tenant)
	if err != nil {
		return nil, err
	}
	t = &Tenant{key: key, sp: sp}
	if svc.cfg.SnapshotDir != "" {
		svc.warmLoadLocked(t)
	}
	t.lastUsed.Store(now)
	svc.tenants[key] = t
	return t, nil
}

// Lookup returns the tenant registered under key without creating one.
func (svc *Service) Lookup(key string) (*Tenant, bool) {
	svc.mu.RLock()
	t, ok := svc.tenants[key]
	svc.mu.RUnlock()
	return t, ok
}

// evictLRULocked removes the least-recently-published tenant and closes its
// profile off the registry lock: an eviction must never stall other tenants'
// publishes behind a draining profile. Callers hold svc.mu.
func (svc *Service) evictLRULocked() {
	var victim *Tenant
	var oldest uint64
	for _, t := range svc.tenants {
		if u := t.lastUsed.Load(); victim == nil || u < oldest {
			victim, oldest = t, u
		}
	}
	if victim == nil {
		return
	}
	delete(svc.tenants, victim.key)
	svc.evictions.Add(1)
	svc.closers.Add(1)
	go func() {
		defer svc.closers.Done()
		victim.close()
	}()
}

// Evict removes the tenant registered under key, closing its profile after
// draining, and reports whether it existed. In-flight publishes race the
// close and fail with 410 Gone once it lands; their accounting stays exact
// (every decoded reference is either admitted by the profile before the
// close or reported failed to the client, never half-counted).
func (svc *Service) Evict(key string) bool {
	svc.mu.Lock()
	t, ok := svc.tenants[key]
	if ok {
		delete(svc.tenants, key)
		svc.evictions.Add(1)
	}
	svc.mu.Unlock()
	if !ok {
		return false
	}
	t.close()
	return true
}

// Close evicts every tenant, waits for their profiles to drain, and fails
// subsequent publishes with 503. Close is idempotent.
func (svc *Service) Close() {
	svc.mu.Lock()
	if svc.closed {
		svc.mu.Unlock()
		svc.closers.Wait()
		return
	}
	svc.closed = true
	if svc.snapStop != nil {
		close(svc.snapStop)
		svc.snapStop = nil
	}
	tenants := make([]*Tenant, 0, len(svc.tenants))
	for _, t := range svc.tenants {
		tenants = append(tenants, t)
	}
	svc.tenants = make(map[string]*Tenant)
	svc.mu.Unlock()
	for _, t := range tenants {
		t.close()
	}
	svc.closers.Wait()
}

// TenantCount returns the number of registered tenants.
func (svc *Service) TenantCount() int {
	svc.mu.RLock()
	defer svc.mu.RUnlock()
	return len(svc.tenants)
}

// snapshotTenants returns the live tenants, unordered.
func (svc *Service) snapshotTenants() []*Tenant {
	svc.mu.RLock()
	out := make([]*Tenant, 0, len(svc.tenants))
	for _, t := range svc.tenants {
		out = append(out, t)
	}
	svc.mu.RUnlock()
	return out
}

// TenantStats is one tenant's slice of a ServiceStats snapshot.
type TenantStats struct {
	Key           string `json:"key"`
	Generation    uint64 `json:"generation"`
	Publishes     uint64 `json:"publishes"`
	PublishedRefs uint64 `json:"published_refs"`
	Profile       Stats  `json:"profile"`
}

// ServiceStats is a point-in-time snapshot of the whole service: per-tenant
// profile stats plus registry and ingest-endpoint counters. Like Stats it is
// approximate under concurrency and marshals to JSON.
type ServiceStats struct {
	Tenants       []TenantStats `json:"tenants"`
	TenantCount   int           `json:"tenant_count"`
	Evictions     uint64        `json:"evictions"`
	Publishes     uint64        `json:"publishes"`
	PublishedRefs uint64        `json:"published_refs"`
	DecodeErrors  uint64        `json:"decode_errors"`
	Rejected      uint64        `json:"rejected"`

	// Snapshot counters (see service_snapshot.go): warm loads that
	// succeeded, loads the format validator rejected, checkpoints written,
	// checkpoint I/O failures, and checkpoints refused because the existing
	// file carried a newer generation.
	SnapshotLoads        uint64 `json:"snapshot_loads"`
	SnapshotLoadFailures uint64 `json:"snapshot_load_failures"`
	SnapshotWrites       uint64 `json:"snapshot_writes"`
	SnapshotWriteErrors  uint64 `json:"snapshot_write_errors"`
	SnapshotRefused      uint64 `json:"snapshot_refused"`
}

// Stats returns a snapshot of the service's counters, tenants sorted by key.
func (svc *Service) Stats() ServiceStats {
	tenants := svc.snapshotTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].key < tenants[j].key })
	st := ServiceStats{
		Tenants:       make([]TenantStats, len(tenants)),
		TenantCount:   len(tenants),
		Evictions:     svc.evictions.Load(),
		Publishes:     svc.publishes.Load(),
		PublishedRefs: svc.publishedRefs.Load(),
		DecodeErrors:  svc.decodeErrors.Load(),
		Rejected:      svc.rejected.Load(),

		SnapshotLoads:        svc.snapLoads.Load(),
		SnapshotLoadFailures: svc.snapLoadFails.Load(),
		SnapshotWrites:       svc.snapWrites.Load(),
		SnapshotWriteErrors:  svc.snapWriteErrs.Load(),
		SnapshotRefused:      svc.snapRefused.Load(),
	}
	for i, t := range tenants {
		st.Tenants[i] = TenantStats{
			Key:           t.key,
			Generation:    t.gen.Load(),
			Publishes:     t.publishes.Load(),
			PublishedRefs: t.published.Load(),
			Profile:       t.sp.Stats(),
		}
	}
	return st
}

// ingestDecode is one publish's resident decode state: the decoder with its
// read window, and the chunk it decodes into and PublishBatch reads in
// place.
type ingestDecode struct {
	dec   tracefile.Decoder
	chunk [publishChunk]Ref
}

// decodePool recycles ingestDecode across requests, so a publish allocates
// no decode state.
var decodePool = sync.Pool{New: func() any { return new(ingestDecode) }}

// Handler returns the service's HTTP API:
//
//	POST /ingest?tenant=KEY[&stream=ID]  body: tracefile-framed references
//	GET  /hotstreams?tenant=KEY[&top=N]  banked hot streams as JSON
//	GET  /snapshot?tenant=KEY            tenant durable state, snapshot format
//	POST /snapshot?tenant=KEY            restore an uploaded snapshot
//	GET  /stats                          ServiceStats as JSON
//	GET  /metrics                        Prometheus text exposition
//
// Mount it on an http.Server whose Shutdown is called before Service.Close,
// so in-flight publishes and scrapes finish against a live registry.
func (svc *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", svc.handleIngest)
	mux.HandleFunc("GET /hotstreams", svc.handleHotStreams)
	mux.HandleFunc("GET /snapshot", svc.handleSnapshotGet)
	mux.HandleFunc("POST /snapshot", svc.handleSnapshotPost)
	mux.HandleFunc("GET /stats", svc.handleStats)
	mux.Handle("GET /metrics", svc.MetricsHandler())
	return mux
}

// streamID extracts the logical stream identity of a publish: the client's
// explicit &stream= value when present, else a hash of tenant key and remote
// address — so one client's connection keeps landing on one shard even when
// the client doesn't pick an id.
func streamID(stream, tenant, remoteAddr string) uint64 {
	if stream != "" {
		if v, err := strconv.ParseUint(stream, 10, 64); err == nil {
			return v
		}
	}
	h := fnv.New64a()
	io.WriteString(h, tenant)
	io.WriteString(h, "\x00")
	io.WriteString(h, remoteAddr)
	return h.Sum64()
}

// ingestResult is the ingest endpoint's success response body.
type ingestResult struct {
	Tenant   string `json:"tenant"`
	Accepted uint64 `json:"accepted"`
	// TenantRefs is the tenant's cumulative published reference count, the
	// number a client can reconcile its own books against.
	TenantRefs uint64 `json:"tenant_refs"`
}

func (svc *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	key := query.Get("tenant")
	t, err := svc.Tenant(key)
	switch {
	case errors.Is(err, ErrBadTenantKey):
		svc.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ErrServiceClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	stream := streamID(query.Get("stream"), key, r.RemoteAddr)
	st := decodePool.Get().(*ingestDecode)
	defer func() {
		st.dec.Reset(nil) // the pool must not keep this request's body
		decodePool.Put(st)
	}()
	dec, buf := &st.dec, st.chunk[:]
	if err := dec.Reset(http.MaxBytesReader(w, r.Body, svc.cfg.MaxBodyBytes)); err != nil {
		svc.decodeErrors.Add(1)
		http.Error(w, err.Error(), httpDecodeStatus(err))
		return
	}
	// published counts refs admitted into the tenant's profile on every exit
	// path, success or failure: a request that dies mid-body (oversized,
	// truncated, tenant evicted) has still pushed its earlier chunks, and the
	// books must say so or per-tenant reconciliation would leak those refs.
	// Request-level success is counted separately in publishes.
	var accepted uint64
	defer func() {
		t.published.Add(accepted)
		svc.publishedRefs.Add(accepted)
	}()
	for {
		n, derr := dec.Next(buf)
		if n > 0 {
			if perr := t.sp.PublishBatch(stream, buf[:n]); perr != nil {
				// The tenant was evicted (or the service closed) mid-publish;
				// nothing else returns an error from the profile's batch path.
				http.Error(w, fmt.Sprintf("tenant %q evicted during publish after %d refs: %v",
					key, accepted, perr), http.StatusGone)
				return
			}
			accepted += uint64(n)
		}
		if derr == io.EOF {
			break
		}
		if derr != nil {
			svc.decodeErrors.Add(1)
			http.Error(w, fmt.Sprintf("decode failed after %d refs: %v", accepted, derr),
				httpDecodeStatus(derr))
			return
		}
	}
	t.publishes.Add(1)
	svc.publishes.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ingestResult{
		Tenant:   key,
		Accepted: accepted,
		// The deferred accounting hasn't run yet; fold this publish in so the
		// client sees a cumulative count that includes it.
		TenantRefs: t.published.Load() + accepted,
	})
}

// httpDecodeStatus maps a decode failure to its HTTP status: an oversized
// body (MaxBytesReader tripped) is 413, everything else a plain 400.
func httpDecodeStatus(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// streamJSON is the wire shape of one hot stream.
type streamJSON struct {
	Refs []Ref  `json:"refs"`
	Heat uint64 `json:"heat"`
}

func (svc *Service) handleHotStreams(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("tenant")
	if !validTenantKey(key) {
		http.Error(w, ErrBadTenantKey.Error(), http.StatusBadRequest)
		return
	}
	t, ok := svc.Lookup(key)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown tenant %q", key), http.StatusNotFound)
		return
	}
	top := 20
	if s := r.URL.Query().Get("top"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "bad top", http.StatusBadRequest)
			return
		}
		top = v
	}
	// BankedStreams is safe against live producers and consumers; it serves
	// the streams grammar-budget cycles have extracted so far, which is the
	// continuously-updated view a service wants (HotStreams requires
	// producer quiescence, which a server never has).
	streams := t.sp.BankedStreams(top)
	out := make([]streamJSON, len(streams))
	for i, s := range streams {
		out[i] = streamJSON{Refs: s.Refs, Heat: s.Heat}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Tenant  string       `json:"tenant"`
		Streams []streamJSON `json:"streams"`
	}{key, out})
}

func (svc *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(svc.Stats())
}
