// Package server is bsrngd's serving layer: an HTTP front end over a
// sharded pool of deterministic core.Stream worker pools — the paper's
// bitsliced engines operated as a bulk entropy service. Each algorithm
// gets its own shard set; requests check a shard out (round-robin),
// stream bytes from it, and return it. Everything is instrumented
// through internal/metrics and exposed on /metrics.
//
// Every shard stream runs the continuous online health tests of
// internal/health against each produced segment. A shard whose stream
// trips repeated failures is quarantined: ejected from rotation,
// reseeded in the background, re-admitted only after a clean probation
// pass. /healthz degrades to 503 while any algorithm's pool is fully
// quarantined, and optional admission control (MaxInflight) sheds load
// with 429 + Retry-After while the pool is shrunk.
//
// Endpoints:
//
//	GET /bytes?alg=mickey&n=1024[&hex=1]  — n pseudo-random bytes
//	GET /stream?alg=&n=                   — chunked streaming delivery,
//	                                        flushed per chunk; addressed
//	                                        mode via segment=/domain=/
//	                                        off=, resumable lease mode
//	                                        via lease=&off=
//	POST /lease?alg=&segments=            — issue a segment lease (a
//	                                        stateless token over the
//	                                        deterministic address space)
//	GET /lease/{id}                       — resolve a lease token
//	GET /healthz                          — per-algorithm pool state as
//	                                        JSON; 200 ok / 503 degraded
//	                                        or draining
//	GET /metrics                          — text exposition
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/metrics"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// Seed is the deterministic base seed. Shard 0 of every algorithm
	// serves exactly the byte stream of core.NewStream(alg, Seed, ...).
	Seed uint64
	// Algorithms to serve; nil means all four engines.
	Algorithms []core.Algorithm
	// ShardsPerAlg is the number of independent streams per algorithm
	// (default 2). More shards = more concurrent /bytes requests per
	// algorithm before checkout blocks.
	ShardsPerAlg int
	// WorkersPerShard is the core.Stream worker count per shard
	// (default: NumCPU spread evenly over all shards, min 1).
	WorkersPerShard int
	// StagingBytes is the per-worker chunk size (default 64 KiB).
	StagingBytes int
	// Lanes is the engine datapath width. Only 0 and core.DefaultLanes
	// are accepted; New returns core.NewStream's error for any other
	// value.
	//
	// Deprecated: every engine is 64 lanes wide. The field remains only
	// so existing callers compile; leave it at 0.
	Lanes int
	// MaxRequestBytes caps n on /bytes (default 16 MiB).
	MaxRequestBytes int64
	// RequestTimeout bounds shard checkout + generation (default 30s).
	RequestTimeout time.Duration
	// MaxInflight caps concurrent requests across /bytes and /stream;
	// excess requests get 429 with a Retry-After header instead of
	// queueing on checkout. A long-lived /stream holds one slot for its
	// whole duration. 0 disables admission control.
	MaxInflight int
	// MaxLeaseSegments caps the window of one segment lease (default
	// 65536 segments = 128 MiB; also the default window when POST /lease
	// names no size).
	MaxLeaseSegments int
	// DisableHealth turns off the continuous online health tests (and
	// with them shard quarantine). They are ON by default: healthy
	// engines never trip the cutoffs, so the served bytes are unchanged.
	DisableHealth bool
	// Health overrides the per-test cutoffs (zero fields = defaults;
	// see health.Config).
	Health health.Config
	// QuarantineAfter is the number of consecutive checkouts observing
	// new health failures before a shard is quarantined (default 3).
	QuarantineAfter int
	// ProbationSegments is the number of clean segments a reseeded
	// shard must produce before re-admission (default 4).
	ProbationSegments int
	// ProbationInterval is the delay between failed probation attempts
	// (default 1s).
	ProbationInterval time.Duration
}

// Server owns the shard pools, the metrics registry and the HTTP mux.
type Server struct {
	cfg   Config
	pools map[core.Algorithm]*pool
	reg   *metrics.Registry
	mux   *http.ServeMux

	mu       sync.RWMutex // guards draining against inflight.Add
	draining bool
	inflight sync.WaitGroup

	bytesServed   *metrics.Counter
	requests      *metrics.LabeledCounter
	checkoutLat   *metrics.Histogram
	streamsActive *metrics.Gauge
	shardsBusy    *metrics.Gauge

	streamRequests    *metrics.LabeledCounter
	streamBytes       *metrics.Counter
	streamChunks      *metrics.Counter
	streamOpen        *metrics.Gauge
	streamDisconnects *metrics.Counter
	leaseRequests     *metrics.LabeledCounter
	leasesIssued      *metrics.Counter
	leaseStreams      *metrics.Counter
	leaseCounter      atomic.Uint64

	inflightNow       atomic.Int64
	healthFailures    *metrics.LabeledCounter
	healthQuarantines *metrics.LabeledCounter
	healthReseeds     *metrics.LabeledCounter
	healthReadmits    *metrics.LabeledCounter
	healthQuarantined *metrics.LabeledGauge
	admissionRejected *metrics.Counter

	// respBufs recycles the per-request staging buffer of the hex
	// response path (the binary path streams shard chunks zero-copy via
	// WriteTo and needs no buffer). Get returns nil on a cold pool.
	respBufs      sync.Pool
	respBufReused *metrics.Counter

	// testHookServing, when set, runs while a /bytes request holds its
	// shard — it lets tests freeze a request in flight.
	testHookServing func()
}

// New builds the pools and registers the metric set.
func New(cfg Config) (*Server, error) {
	if cfg.Algorithms == nil {
		cfg.Algorithms = core.ServedAlgorithms
	}
	if len(cfg.Algorithms) == 0 {
		return nil, fmt.Errorf("server: no algorithms configured")
	}
	if cfg.ShardsPerAlg == 0 {
		cfg.ShardsPerAlg = 2
	}
	if cfg.ShardsPerAlg < 1 {
		return nil, fmt.Errorf("server: shards per algorithm %d out of range", cfg.ShardsPerAlg)
	}
	if cfg.WorkersPerShard == 0 {
		cfg.WorkersPerShard = runtime.NumCPU() / (len(cfg.Algorithms) * cfg.ShardsPerAlg)
		if cfg.WorkersPerShard < 1 {
			cfg.WorkersPerShard = 1
		}
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 16 << 20
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("server: max in-flight %d out of range", cfg.MaxInflight)
	}
	if cfg.MaxLeaseSegments == 0 {
		cfg.MaxLeaseSegments = 65536
	}
	if cfg.MaxLeaseSegments < 1 || uint64(cfg.MaxLeaseSegments) > maxLeaseSegmentsHard {
		return nil, fmt.Errorf("server: max lease segments %d out of range", cfg.MaxLeaseSegments)
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.QuarantineAfter < 1 {
		return nil, fmt.Errorf("server: quarantine-after %d out of range", cfg.QuarantineAfter)
	}
	if cfg.ProbationSegments == 0 {
		cfg.ProbationSegments = 4
	}
	if cfg.ProbationSegments < 1 {
		return nil, fmt.Errorf("server: probation segments %d out of range", cfg.ProbationSegments)
	}
	if cfg.ProbationInterval == 0 {
		cfg.ProbationInterval = time.Second
	}

	s := &Server{
		cfg:   cfg,
		pools: make(map[core.Algorithm]*pool, len(cfg.Algorithms)),
		reg:   metrics.NewRegistry(),
		mux:   http.NewServeMux(),
	}
	s.bytesServed = s.reg.NewCounter("bsrngd_bytes_served_total",
		"Random bytes delivered to clients.")
	s.requests = s.reg.NewLabeledCounter("bsrngd_requests_total",
		"Requests to /bytes by algorithm and HTTP status.", "alg", "status")
	s.checkoutLat = s.reg.NewHistogram("bsrngd_shard_checkout_seconds",
		"Time spent acquiring a stream shard.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	s.streamsActive = s.reg.NewGauge("bsrngd_streams_active",
		"Live core.Stream pools (shards) across all algorithms.")
	s.shardsBusy = s.reg.NewGauge("bsrngd_shards_busy",
		"Shards currently checked out by requests.")
	s.healthFailures = s.reg.NewLabeledCounter("bsrngd_health_failures_total",
		"Segments condemned by the continuous online health tests, by algorithm and test.",
		"alg", "test")
	s.healthQuarantines = s.reg.NewLabeledCounter("bsrngd_health_quarantines_total",
		"Shards ejected from rotation after repeated health failures.", "alg")
	s.healthReseeds = s.reg.NewLabeledCounter("bsrngd_health_reseeds_total",
		"Background shard stream reseeds attempted during rehabilitation.", "alg")
	s.healthReadmits = s.reg.NewLabeledCounter("bsrngd_health_readmits_total",
		"Quarantined shards re-admitted after a clean probation pass.", "alg")
	s.healthQuarantined = s.reg.NewLabeledGauge("bsrngd_health_quarantined_shards",
		"Shards currently quarantined.", "alg")
	s.admissionRejected = s.reg.NewCounter("bsrngd_admission_rejected_total",
		"Requests shed with 429 by MaxInflight admission control.")
	s.streamRequests = s.reg.NewLabeledCounter("bsrngd_stream_requests_total",
		"Requests to /stream by algorithm, mode (pooled, addressed, lease) and HTTP status.",
		"alg", "mode", "status")
	s.streamBytes = s.reg.NewCounter("bsrngd_stream_bytes_total",
		"Bytes delivered over /stream responses.")
	s.streamChunks = s.reg.NewCounter("bsrngd_stream_chunks_flushed_total",
		"Chunks written and flushed on /stream responses.")
	s.streamOpen = s.reg.NewGauge("bsrngd_stream_open",
		"Currently open /stream responses.")
	s.streamDisconnects = s.reg.NewCounter("bsrngd_stream_disconnects_total",
		"Streams ended before their byte budget: client disconnect, drain or pool shutdown.")
	s.leaseRequests = s.reg.NewLabeledCounter("bsrngd_lease_requests_total",
		"Requests to the lease endpoints by algorithm and HTTP status.", "alg", "status")
	s.leasesIssued = s.reg.NewCounter("bsrngd_leases_issued_total",
		"Segment leases issued by POST /lease.")
	s.leaseStreams = s.reg.NewCounter("bsrngd_lease_streams_total",
		"Stream requests addressed through a lease token.")
	s.respBufReused = s.reg.NewCounter("bsrngd_response_buffers_reused_total",
		"Per-request response buffers reused from the pool instead of freshly allocated.")
	s.reg.NewGaugeFunc("bsrngd_inflight_requests",
		"Concurrent /bytes requests currently being served.",
		func() float64 { return float64(s.inflightNow.Load()) })

	for _, alg := range cfg.Algorithms {
		if _, dup := s.pools[alg]; dup {
			return nil, fmt.Errorf("server: algorithm %v configured twice", alg)
		}
		algL := alg.String()
		s.healthQuarantined.With(algL).Set(0)
		p, err := newPool(poolConfig{
			alg:               alg,
			seed:              cfg.Seed,
			shards:            cfg.ShardsPerAlg,
			workers:           cfg.WorkersPerShard,
			staging:           cfg.StagingBytes,
			lanes:             cfg.Lanes,
			healthOff:         cfg.DisableHealth,
			healthCfg:         cfg.Health,
			quarantineAfter:   cfg.QuarantineAfter,
			probationSegments: cfg.ProbationSegments,
			probationInterval: cfg.ProbationInterval,
			onFailure:         func(test string) { s.healthFailures.With(algL, test).Inc() },
			onQuarantine: func() {
				s.healthQuarantines.With(algL).Inc()
				s.healthQuarantined.With(algL).Add(1)
			},
			onReseed: func() { s.healthReseeds.With(algL).Inc() },
			onReadmit: func() {
				s.healthReadmits.With(algL).Inc()
				s.healthQuarantined.With(algL).Add(-1)
			},
		})
		if err != nil {
			s.closePools()
			return nil, err
		}
		s.pools[alg] = p
	}
	s.streamsActive.Set(int64(len(cfg.Algorithms) * cfg.ShardsPerAlg))
	s.reg.NewGaugeFunc("bsrngd_engine_chunks_produced_total",
		"Staging chunks produced by stream workers, summed over shards.",
		func() float64 { return float64(s.poolStats().ChunksProduced) })
	s.reg.NewGaugeFunc("bsrngd_engine_bytes_delivered_total",
		"Bytes delivered by stream Read, summed over shards.",
		func() float64 { return float64(s.poolStats().BytesDelivered) })
	s.reg.NewGaugeFunc("bsrngd_engine_recycle_hits_total",
		"Staging buffers recycled from the free list, summed over shards.",
		func() float64 { return float64(s.poolStats().RecycleHits) })
	s.reg.NewGaugeFunc("bsrngd_health_segments_checked_total",
		"Segments evaluated by the continuous health tests across all pools.",
		func() float64 {
			var sum uint64
			for _, p := range s.pools {
				sum += p.healthSnapshot().SegmentsChecked
			}
			return float64(sum)
		})
	s.reg.NewGaugeFunc("bsrngd_health_engine_reseeds_total",
		"In-stream engine reseeds triggered by condemned segments, summed over shards.",
		func() float64 { return float64(s.poolStats().EngineReseeds) })

	s.mux.HandleFunc("GET /bytes", s.handleBytes)
	s.mux.HandleFunc("GET /stream", s.handleStream)
	s.mux.HandleFunc("POST /lease", s.handleLeaseCreate)
	s.mux.HandleFunc("GET /lease/{id}", s.handleLeaseGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) poolStats() core.StreamStats {
	var sum core.StreamStats
	for _, p := range s.pools {
		st := p.stats()
		sum.ChunksProduced += st.ChunksProduced
		sum.BytesDelivered += st.BytesDelivered
		sum.RecycleHits += st.RecycleHits
	}
	return sum
}

// enter registers an in-flight request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the service: new /bytes and /healthz requests get
// 503, in-flight requests run to completion, then the stream pools are
// closed. If ctx expires first the pools are closed anyway, cutting
// stragglers short (their stream reads return core.ErrClosed), and the
// context error is returned. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	//bsrng:lint-ignore goroutine-hygiene WaitGroup-to-channel adapter: Wait cannot select, and the goroutine's lifetime is bounded by the in-flight requests Shutdown is draining
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closePools()
	s.streamsActive.Set(0)
	return err
}

func (s *Server) closePools() {
	for _, p := range s.pools {
		p.close()
	}
}

// healthzResponse is the /healthz document: overall status plus the
// per-algorithm pool state.
type healthzResponse struct {
	// Status is "ok", "degraded" (some algorithm's pool is fully
	// quarantined) or "draining" (shutdown in progress). The non-ok
	// states respond 503.
	Status string                `json:"status"`
	Pools  map[string]poolHealth `json:"pools"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()

	resp := healthzResponse{Status: "ok", Pools: make(map[string]poolHealth, len(s.pools))}
	for alg, p := range s.pools {
		resp.Pools[alg.String()] = p.healthSnapshot()
		if p.fullyQuarantined() {
			resp.Status = "degraded"
		}
	}
	if draining {
		resp.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if resp.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

// fail records and writes an error response for /bytes.
func (s *Server) fail(w http.ResponseWriter, algLabel string, status int, msg string) {
	s.requests.With(algLabel, strconv.Itoa(status)).Inc()
	http.Error(w, msg, status)
}

func (s *Server) handleBytes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	algName := q.Get("alg")
	if algName == "" {
		algName = "mickey"
	}
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		s.fail(w, "invalid", http.StatusBadRequest, err.Error())
		return
	}
	p, ok := s.pools[alg]
	if !ok {
		s.fail(w, alg.String(), http.StatusBadRequest,
			fmt.Sprintf("algorithm %v not served", alg))
		return
	}
	n := int64(32)
	if v := q.Get("n"); v != "" {
		n, err = strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			s.fail(w, alg.String(), http.StatusBadRequest, "n must be a positive integer")
			return
		}
	}
	if n > s.cfg.MaxRequestBytes {
		s.fail(w, alg.String(), http.StatusRequestEntityTooLarge,
			fmt.Sprintf("n exceeds per-request cap %d", s.cfg.MaxRequestBytes))
		return
	}
	useHex := false
	if v := q.Get("hex"); v != "" && v != "0" && v != "false" {
		useHex = true
	}

	if !s.enter() {
		s.fail(w, alg.String(), http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.inflight.Done()

	// Admission control: when the configured in-flight budget is spent
	// (e.g. a quarantine shrank the pool under sustained load), shed the
	// request immediately instead of piling it onto checkout.
	n2 := s.inflightNow.Add(1)
	defer s.inflightNow.Add(-1)
	if s.cfg.MaxInflight > 0 && n2 > int64(s.cfg.MaxInflight) {
		s.admissionRejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.fail(w, alg.String(), http.StatusTooManyRequests,
			fmt.Sprintf("server at max in-flight requests (%d)", s.cfg.MaxInflight))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	t0 := time.Now()
	sh, err := p.checkout(ctx)
	s.checkoutLat.Observe(time.Since(t0).Seconds())
	if err != nil {
		s.fail(w, alg.String(), http.StatusServiceUnavailable, "all shards busy")
		return
	}
	st := sh.stream.Load()
	s.shardsBusy.Add(1)
	defer func() {
		p.handback(sh)
		s.shardsBusy.Add(-1)
	}()
	if s.testHookServing != nil {
		s.testHookServing()
	}

	if useHex {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	}
	w.Header().Set("X-Bsrng-Algorithm", alg.String())
	w.Header().Set("X-Bsrng-Shard", strconv.Itoa(sh.id))

	var served int64
	if useHex {
		served = s.serveHex(w, st, n)
		fmt.Fprintln(w)
	} else {
		// Bulk path: the shard stream writes its staging chunks straight
		// to the response — no per-request buffer, each byte copied once
		// (chunk → ResponseWriter). The limit writer truncates the final
		// chunk so the shard's stream cursor advances by exactly n and
		// the next request resumes the deterministic stream mid-chunk.
		lw := &limitedWriter{w: w, n: n}
		served, err = st.WriteTo(lw)
		_ = err // budget spent, client gone, or stream closed: served says how far we got
	}
	s.bytesServed.Add(uint64(served))
	s.requests.With(alg.String(), strconv.Itoa(http.StatusOK)).Inc()
}

// respBufBytes is the hex path's per-request staging buffer size.
const respBufBytes = 64 << 10

// getRespBuf checks a response buffer out of the pool, counting reuse.
func (s *Server) getRespBuf() []byte {
	if b, ok := s.respBufs.Get().(*[]byte); ok {
		s.respBufReused.Inc()
		return *b
	}
	return make([]byte, respBufBytes)
}

// serveHex streams n bytes hex-encoded through a pooled buffer.
func (s *Server) serveHex(w http.ResponseWriter, st *core.Stream, n int64) int64 {
	buf := s.getRespBuf()
	defer s.respBufs.Put(&buf)
	enc := hex.NewEncoder(w)
	var served int64
	for served < n {
		k := int64(len(buf))
		if k > n-served {
			k = n - served
		}
		if _, err := st.Read(buf[:k]); err != nil {
			break // stream closed under us (forced shutdown); stop short
		}
		if _, err := enc.Write(buf[:k]); err != nil {
			break // client went away
		}
		served += k
	}
	return served
}

// errResponseFull marks a response whose byte budget has been spent; it
// stops Stream.WriteTo after exactly the requested count.
var errResponseFull = errors.New("server: response budget spent")

// limitedWriter forwards to w until n bytes have been written, then
// fails with errResponseFull. An oversized write is truncated to the
// remaining budget, so the source's cursor advances by exactly the
// bytes the response consumed.
type limitedWriter struct {
	w io.Writer
	n int64
}

func (lw *limitedWriter) Write(p []byte) (int, error) {
	if lw.n <= 0 {
		return 0, errResponseFull
	}
	trunc := false
	if int64(len(p)) > lw.n {
		p = p[:lw.n]
		trunc = true
	}
	k, err := lw.w.Write(p)
	lw.n -= int64(k)
	if err == nil && (trunc || lw.n == 0) {
		err = errResponseFull
	}
	return k, err
}
