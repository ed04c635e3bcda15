// Package client is the thin capture library an application embeds to feed
// the networked profiling service: it buffers (pc, addr) data references in
// memory, frames them with the tracefile wire format, and publishes them
// over HTTP — periodically, when the buffer fills, and on Close (the
// emit-on-shutdown idiom of PGO profile publishers, where an ephemeral
// process's profile must leave the box before the process does).
//
// Capture is deliberately lossy under pressure: if publishes cannot keep up
// with capture, whole batches are dropped and counted, never blocking the
// instrumented application — profiling stays off the critical path, exactly
// as the paper's bursty tracing intends (the service-side burst front end
// and ingestion policies do the principled shedding; the client's only job
// is to not stall its host).
package client

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hotprefetch/internal/ref"
	"hotprefetch/internal/tracefile"
)

// Defaults applied by Config.withDefaults.
const (
	defaultBufferRefs    = 8192
	defaultFlushInterval = 10 * time.Second
	defaultMaxPending    = 4
	defaultTimeout       = 10 * time.Second
	defaultMaxAttempts   = 3
	defaultRetryBackoff  = 50 * time.Millisecond
	maxRetryBackoff      = 2 * time.Second
)

// Config configures a Capture.
type Config struct {
	// Server is the profiling service's base URL, e.g. "http://prof:9190".
	Server string

	// Tenant is the tenant key to publish under (1–64 chars of
	// [A-Za-z0-9._-]).
	Tenant string

	// Stream identifies this capture's logical reference stream; the
	// service keeps one stream's whole trace on one profile shard, which is
	// what lets Sequitur see its regularity. Zero derives a stable id from
	// the process id and start time — right for one capture per process;
	// set distinct explicit ids when one process runs several captures.
	Stream uint64

	// BufferRefs is the number of references buffered before an automatic
	// publish (0 means 8192).
	BufferRefs int

	// FlushInterval publishes whatever has accumulated at this cadence even
	// when the buffer isn't full (0 means 10s; negative disables the timer,
	// leaving buffer-full and Close publishes only).
	FlushInterval time.Duration

	// MaxPending bounds the publish queue (0 means 4): if the publisher
	// falls this many batches behind, Add drops whole batches — counted in
	// Stats().Dropped — instead of blocking the application.
	MaxPending int

	// MaxAttempts bounds how many times one batch is tried before its
	// references are counted Dropped — transient failures (transport errors
	// and 5xx responses) are retried up to this total, while permanent
	// rejections (4xx) and encode failures never are (0 means 3; 1 disables
	// retry entirely).
	MaxAttempts int

	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it, jitters the wait to break fleet-wide
	// synchronization, and caps it at 2s (0 means 50ms; negative retries
	// immediately with no delay).
	RetryBackoff time.Duration

	// HTTPClient overrides the HTTP client used for publishes (nil means a
	// client with a 10s timeout).
	HTTPClient *http.Client

	// OnError, when non-nil, is called with every publish error (from the
	// publisher goroutine). Errors are always counted in Stats regardless.
	OnError func(error)
}

func (c Config) withDefaults() Config {
	if c.BufferRefs <= 0 {
		c.BufferRefs = defaultBufferRefs
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = defaultFlushInterval
	}
	if c.MaxPending <= 0 {
		c.MaxPending = defaultMaxPending
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = defaultMaxAttempts
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: defaultTimeout}
	}
	if c.Stream == 0 {
		c.Stream = uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())
		if c.Stream == 0 {
			c.Stream = 1
		}
	}
	return c
}

// Ref is a single captured data reference: the program counter of the load
// or store and the address it touched. It is the service's reference type,
// so applications can batch captures without importing anything else.
type Ref = ref.Ref

// Stats counts a Capture's activity. All fields are cumulative.
type Stats struct {
	Captured  uint64 // references handed to Add
	Published uint64 // references successfully published
	Dropped   uint64 // references dropped (publisher backlogged or closed)
	Publishes uint64 // successful publish requests
	Errors    uint64 // batches that exhausted every attempt (their refs count as Dropped)
	Retried   uint64 // batches that succeeded only after at least one retry
	Retries   uint64 // retry attempts (publish attempts beyond each batch's first)
}

// Capture buffers data references and publishes them to the profiling
// service. Create one with New, call Add from the instrumented code paths,
// and Close on shutdown to publish the final partial buffer.
//
// Add is safe for concurrent use; captures from multiple goroutines
// interleave in arrival order, which is the right model when they belong to
// one logical trace (use separate Captures with distinct Stream ids
// otherwise).
type Capture struct {
	cfg Config
	url *url.URL

	mu     sync.Mutex
	buf    []ref.Ref
	closed bool

	pending chan []ref.Ref
	done    chan struct{}
	wg      sync.WaitGroup

	// spare recycles the capacity of published (or dropped) batches back to
	// the buffer-rotation sites, and bodyPool recycles the wire-format body
	// (a *[]byte the batch is appended to) across publishes — together they
	// make the steady-state capture loop reuse memory instead of allocating
	// a buffer and a body per publish.
	spare    chan []ref.Ref
	bodyPool sync.Pool

	// enqWG tracks enqueues started before Close flipped closed, so Close can
	// wait for them before closing the pending channel. Enqueuers register
	// under mu (while closed is still false), making registration and Close's
	// closed=true mutually exclusive.
	enqWG sync.WaitGroup

	// queued counts the batches taken from buf for the publisher, and
	// settled those it has published or a full queue dropped; both are
	// guarded by mu. Flush waits on settledCond (on mu) until every batch
	// queued before it has settled, so its own publish cannot overtake
	// them.
	queued, settled uint64
	settledCond     sync.Cond

	captured  atomic.Uint64
	published atomic.Uint64
	dropped   atomic.Uint64
	publishes atomic.Uint64
	errors    atomic.Uint64
	retried   atomic.Uint64
	retries   atomic.Uint64
}

// New returns a running Capture publishing to cfg.Server under cfg.Tenant.
func New(cfg Config) (*Capture, error) {
	cfg = cfg.withDefaults()
	if cfg.Server == "" {
		return nil, fmt.Errorf("client: empty Server URL")
	}
	if _, err := url.Parse(cfg.Server); err != nil {
		return nil, fmt.Errorf("client: bad Server URL: %w", err)
	}
	if cfg.Tenant == "" {
		return nil, fmt.Errorf("client: empty Tenant key")
	}
	// Parse the ingest URL once; publish reuses it so the per-request work
	// is building the Request, not re-parsing the endpoint.
	u, err := url.Parse(fmt.Sprintf("%s/ingest?tenant=%s&stream=%d",
		cfg.Server, url.QueryEscape(cfg.Tenant), cfg.Stream))
	if err != nil {
		return nil, fmt.Errorf("client: bad ingest URL: %w", err)
	}
	c := &Capture{
		cfg:     cfg,
		url:     u,
		buf:     make([]ref.Ref, 0, cfg.BufferRefs),
		pending: make(chan []ref.Ref, cfg.MaxPending),
		done:    make(chan struct{}),
		spare:   make(chan []ref.Ref, cfg.MaxPending+1),
	}
	c.settledCond.L = &c.mu
	c.wg.Add(1)
	go c.publisher()
	if cfg.FlushInterval > 0 {
		c.wg.Add(1)
		go c.ticker()
	}
	return c, nil
}

// Add captures one data reference. It never blocks on the network: a full
// publish queue drops the oldest unpublished batch (counted in Stats) and
// capture continues.
func (c *Capture) Add(pc int, addr uint64) {
	c.captured.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.dropped.Add(1)
		return
	}
	c.buf = append(c.buf, ref.Ref{PC: pc, Addr: addr})
	var full []ref.Ref
	if len(c.buf) >= c.cfg.BufferRefs {
		full = c.buf
		c.buf = c.newBatch()
		c.queued++
		c.enqWG.Add(1)
	}
	c.mu.Unlock()
	if full != nil {
		c.enqueue(full)
		c.enqWG.Done()
	}
}

// AddBatch captures a run of references in order.
func (c *Capture) AddBatch(refs []Ref) {
	c.captured.Add(uint64(len(refs)))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.dropped.Add(uint64(len(refs)))
		return
	}
	var batches [][]ref.Ref
	for len(refs) > 0 {
		n := c.cfg.BufferRefs - len(c.buf)
		if n > len(refs) {
			n = len(refs)
		}
		c.buf = append(c.buf, refs[:n]...)
		refs = refs[n:]
		if len(c.buf) >= c.cfg.BufferRefs {
			batches = append(batches, c.buf)
			c.buf = c.newBatch()
		}
	}
	c.queued += uint64(len(batches))
	c.enqWG.Add(len(batches))
	c.mu.Unlock()
	for _, b := range batches {
		c.enqueue(b)
		c.enqWG.Done()
	}
}

// enqueue hands a full batch to the publisher, dropping the oldest pending
// batch when the queue is full so capture keeps absorbing fresh references.
func (c *Capture) enqueue(batch []ref.Ref) {
	for {
		select {
		case c.pending <- batch:
			return
		default:
		}
		select {
		case old := <-c.pending:
			c.dropped.Add(uint64(len(old)))
			c.recycleBatch(old)
			c.settle()
		default:
		}
	}
}

// settle counts one queued batch as published or dropped and wakes any
// Flush waiting for it.
func (c *Capture) settle() {
	c.mu.Lock()
	c.settled++
	c.mu.Unlock()
	c.settledCond.Broadcast()
}

// Flush publishes the current partial buffer synchronously (unlike the
// background publishes Add triggers), once every batch queued before it has
// been published or dropped, so the service applies the buffer after them,
// in capture order. With nothing queued or in flight it publishes at once.
// It returns the publish error, if any.
func (c *Capture) Flush() error {
	c.mu.Lock()
	batch := c.buf
	if len(batch) == 0 {
		c.mu.Unlock()
		return nil
	}
	c.buf = c.newBatch()
	for target := c.queued; c.settled < target; {
		c.settledCond.Wait()
	}
	c.mu.Unlock()
	return c.publish(batch)
}

// Close stops the timers, publishes everything still buffered, and waits for
// in-flight publishes to finish — the emit-on-shutdown guarantee. Close is
// idempotent; Add after Close drops (and counts) the reference.
func (c *Capture) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	batch := c.buf
	c.buf = nil
	if len(batch) > 0 {
		c.queued++
	}
	c.mu.Unlock()
	close(c.done)
	if len(batch) > 0 {
		c.enqueue(batch)
	}
	c.enqWG.Wait()
	close(c.pending)
	c.wg.Wait()
	if c.errors.Load() > 0 {
		return fmt.Errorf("client: %d publish(es) failed (%d refs dropped)",
			c.errors.Load(), c.dropped.Load())
	}
	return nil
}

// Stats returns a snapshot of the capture's counters. At quiescence (after
// Close) Captured == Published + Dropped + the final buffered remainder of a
// never-published partial batch (zero after a clean Close).
func (c *Capture) Stats() Stats {
	return Stats{
		Captured:  c.captured.Load(),
		Published: c.published.Load(),
		Dropped:   c.dropped.Load(),
		Publishes: c.publishes.Load(),
		Errors:    c.errors.Load(),
		Retried:   c.retried.Load(),
		Retries:   c.retries.Load(),
	}
}

// publisher drains the pending queue until Close.
func (c *Capture) publisher() {
	defer c.wg.Done()
	for batch := range c.pending {
		err := c.publish(batch)
		c.settle()
		if err != nil && c.cfg.OnError != nil {
			c.cfg.OnError(err)
		}
	}
}

// ticker periodically moves the partial buffer onto the publish queue.
func (c *Capture) ticker() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
			c.mu.Lock()
			if c.closed || len(c.buf) == 0 {
				c.mu.Unlock()
				continue
			}
			batch := c.buf
			c.buf = c.newBatch()
			c.queued++
			c.enqWG.Add(1)
			c.mu.Unlock()
			c.enqueue(batch)
			c.enqWG.Done()
		}
	}
}

// newBatch returns an empty capture buffer, reusing a published batch's
// capacity when one is waiting; the allocation happens only until the
// recycle loop is primed.
func (c *Capture) newBatch() []ref.Ref {
	select {
	case b := <-c.spare:
		return b[:0]
	default:
		return make([]ref.Ref, 0, c.cfg.BufferRefs)
	}
}

// recycleBatch returns a dead batch's capacity to the rotation sites. A full
// spare queue (or an undersized batch) just lets the slice go to the
// collector.
func (c *Capture) recycleBatch(batch []ref.Ref) {
	if cap(batch) < c.cfg.BufferRefs {
		return
	}
	select {
	case c.spare <- batch[:0]:
	default:
	}
}

// pooledBody is one checkout of a pooled encode buffer as a request body.
// A RoundTripper may still hold the body after HTTPClient.Do returns, so the
// buffer goes back to the pool when the transport closes the body, not when
// Do returns. Every publish hands out its own pooledBody and only its first
// Close pools the buffer: a stale second Close from an earlier round trip
// cannot pool a buffer a later publish holds.
type pooledBody struct {
	bytes.Reader
	buf    *[]byte
	pool   *sync.Pool
	closed atomic.Bool
}

func (b *pooledBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.pool.Put(b.buf)
	}
	return nil
}

var octetStream = []string{"application/octet-stream"}

// publish delivers one batch, retrying transient failures — transport
// errors and 5xx responses — with jittered exponential backoff up to
// cfg.MaxAttempts total tries. Permanent rejections (4xx) and encode
// failures fail immediately. The books settle exactly once per batch:
// success counts it Published (and Retried if any attempt failed first);
// exhausting the budget counts one error and the whole batch Dropped,
// exactly as an unretried failure would.
func (c *Capture) publish(batch []ref.Ref) error {
	defer c.recycleBatch(batch)
	var err error
	for attempt := 0; ; attempt++ {
		var retryable bool
		retryable, err = c.tryPublish(batch)
		if err == nil {
			if attempt > 0 {
				c.retried.Add(1)
			}
			c.published.Add(uint64(len(batch)))
			c.publishes.Add(1)
			return nil
		}
		if !retryable || attempt+1 >= c.cfg.MaxAttempts {
			break
		}
		c.retries.Add(1)
		backoffSleep(c.cfg.RetryBackoff, attempt)
	}
	c.errors.Add(1)
	c.dropped.Add(uint64(len(batch)))
	return err
}

// backoffSleep waits the attempt's share of the exponential schedule:
// base<<attempt, halved and jittered so a fleet of captures retrying the
// same hiccup doesn't re-synchronize, capped at maxRetryBackoff.
func backoffSleep(base time.Duration, attempt int) {
	if base <= 0 {
		return
	}
	d := base << uint(attempt)
	if d <= 0 || d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	time.Sleep(d/2 + rand.N(d/2+1))
}

// tryPublish frames the batch and POSTs it to the ingest endpoint once,
// reporting whether a failure is worth retrying. The batch is appended
// straight into a pooled byte slice: once the transport has closed the
// request body (see pooledBody) the slice's capacity is reused by a later
// attempt, so a warm capture frames batches without allocating the body
// again. The request is built by hand from the pre-parsed URL
// (http.Client.Post would re-parse it per call); GetBody is deliberately
// absent — the ingest endpoint never redirects, a retry re-frames into a
// fresh pooled buffer, and a transport-level replay would outlive the
// pooled buffer.
func (c *Capture) tryPublish(batch []ref.Ref) (retryable bool, err error) {
	buf, _ := c.bodyPool.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	*buf = tracefile.Append((*buf)[:0], batch)
	// The request and its body handle share one allocation.
	rb := &struct {
		req  http.Request
		body pooledBody
	}{body: pooledBody{buf: buf, pool: &c.bodyPool}}
	rb.body.Reset(*buf)
	u := *c.url // per-request copy; concurrent publishes must not share one URL
	rb.req = http.Request{
		Method:        http.MethodPost,
		URL:           &u,
		Host:          u.Host,
		Header:        http.Header{"Content-Type": octetStream},
		Body:          &rb.body,
		ContentLength: int64(len(*buf)),
	}
	req := &rb.req
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return true, fmt.Errorf("client: publish: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg [256]byte
		n, _ := resp.Body.Read(msg[:])
		return resp.StatusCode >= 500, fmt.Errorf("client: publish: server returned %s: %s", resp.Status, msg[:n])
	}
	return false, nil
}
