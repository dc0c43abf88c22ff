package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
)

// GET /stream is the long-lived streaming delivery endpoint: a chunked
// binary response flushed after every chunk, so a consumer sees bytes
// as they are generated instead of waiting for the full body. It comes
// in three modes sharing one handler:
//
//   - pooled (no addressing params): the request checks a shard out of
//     the algorithm's pool — exactly like /bytes — and streams the
//     shard's continuation via the zero-copy Stream.WriteTo path. The
//     bytes are whatever the shared shard stream serves next.
//
//   - addressed (any of segment=, domain=, off= present): the request
//     names a window of the deterministic (seed, domain, segment)
//     address space and is served by a per-request core.SegmentReader —
//     no shard is held and the response is byte-reproducible by anyone
//     holding the seed.
//
//   - lease (lease=<id>): like addressed, but the window comes from a
//     lease token issued by POST /lease; off= resumes mid-window after
//     a disconnect (absolute resume position = lease start + off).
//
// Every mode honors the per-request byte cap, MaxInflight admission
// control (429 + Retry-After), client disconnects (the stream ends, the
// shard token — if any — is returned) and graceful drain (the stream
// ends at the next chunk boundary).

// streamChunkCap bounds how much one /stream chunk can carry: the
// addressed path reuses the pooled 64 KiB response buffers, and the
// pooled path flushes per staging chunk.
const streamChunkCap = respBufBytes

// errStreamDraining ends an in-flight /stream at the next chunk
// boundary when the server starts draining.
var errStreamDraining = errors.New("server: draining")

// streamParams is one parsed /stream request.
type streamParams struct {
	mode   string // "pooled", "addressed" or "lease"
	alg    core.Algorithm
	domain uint64
	offset uint64 // absolute byte offset into (seed, domain); addressed modes only
	n      int64
}

// IsAddressedStream reports whether a /stream query names a window of
// the deterministic address space (lease=, segment=, domain= or off=)
// rather than asking for pooled bytes. It is the one definition of the
// rule: the cluster router ring-routes exactly these requests.
func IsAddressedStream(q url.Values) bool {
	return q.Get("lease") != "" || q.Has("segment") || q.Has("domain") || q.Has("off")
}

// parseStream validates the request into streamParams. It returns a
// non-nil *httpError describing the failure response otherwise.
func (s *Server) parseStream(r *http.Request) (streamParams, *httpError) {
	q := r.URL.Query()
	p := streamParams{mode: "pooled"}

	if v := q.Get("hex"); v != "" && v != "0" && v != "false" {
		return p, &httpError{http.StatusBadRequest, "hex is not supported on /stream; use /bytes"}
	}
	if q.Has("lanes") {
		return p, &httpError{http.StatusBadRequest,
			"lanes was removed: every stream is served by the one 64-lane datapath; drop the parameter"}
	}

	var (
		window   int64 = -1 // lease byte budget left from the offset; -1 = unbounded
		leaseTok       = q.Get("lease")
	)
	addressed := IsAddressedStream(q)

	var off uint64
	if v := q.Get("off"); v != "" {
		var err error
		off, err = strconv.ParseUint(v, 10, 64)
		if err != nil || off >= maxAddressableBytes {
			return p, &httpError{http.StatusBadRequest, "off must be a byte offset below 2^52"}
		}
	}

	if leaseTok != "" {
		p.mode = "lease"
		l, err := decodeLease(leaseTok)
		if err != nil {
			return p, &httpError{http.StatusBadRequest, fmt.Sprintf("invalid lease token: %v", err)}
		}
		if a := q.Get("alg"); a != "" && a != l.Alg.String() {
			return p, &httpError{http.StatusBadRequest,
				fmt.Sprintf("alg=%s contradicts the lease's algorithm %s", a, l.Alg)}
		}
		if off >= l.bytes() {
			return p, &httpError{http.StatusRequestedRangeNotSatisfiable,
				fmt.Sprintf("off %d is past the lease window (%d bytes)", off, l.bytes())}
		}
		p.alg = l.Alg
		p.domain = l.Domain
		p.offset = l.StartSegment*core.SegmentBytes + off
		window = int64(l.bytes() - off)
	} else {
		alg, herr := s.parseAlg(q.Get("alg"))
		if herr != nil {
			return p, herr
		}
		p.alg = alg
		if addressed {
			p.mode = "addressed"
			if v := q.Get("domain"); v != "" {
				d, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return p, &httpError{http.StatusBadRequest, "domain must be an unsigned integer"}
				}
				p.domain = d
			}
			var seg uint64
			if v := q.Get("segment"); v != "" {
				var err error
				seg, err = strconv.ParseUint(v, 10, 64)
				if err != nil || seg >= maxLeaseStartSegment {
					return p, &httpError{http.StatusBadRequest, "segment must be an index below 2^40"}
				}
			}
			p.offset = seg*core.SegmentBytes + off
		} else if off != 0 {
			return p, &httpError{http.StatusBadRequest, "off requires segment=, domain= or lease="}
		}
	}

	// n defaults to the remaining lease window, else to the per-request
	// cap: a /stream without n is "as much as one request may carry".
	p.n = s.cfg.MaxRequestBytes
	if window >= 0 && window < p.n {
		p.n = window
	}
	if v := q.Get("n"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return p, &httpError{http.StatusBadRequest, "n must be a positive integer"}
		}
		if n > s.cfg.MaxRequestBytes {
			return p, &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("n exceeds per-request cap %d", s.cfg.MaxRequestBytes)}
		}
		p.n = n
		if window >= 0 && p.n > window {
			p.n = window // clamp to the lease window: resume semantics, not an error
		}
	}
	return p, nil
}

// httpError is a deferred error response: status plus body message.
type httpError struct {
	status int
	msg    string
}

// parseAlg resolves an algorithm name (default mickey) against the
// served pools.
func (s *Server) parseAlg(name string) (core.Algorithm, *httpError) {
	if name == "" {
		name = "mickey"
	}
	alg, err := core.ParseAlgorithm(name)
	if err != nil {
		return 0, &httpError{http.StatusBadRequest, err.Error()}
	}
	if _, ok := s.pools[alg]; !ok {
		return 0, &httpError{http.StatusBadRequest, fmt.Sprintf("algorithm %v not served", alg)}
	}
	return alg, nil
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	p, herr := s.parseStream(r)
	algLabel := "invalid"
	if herr == nil {
		algLabel = p.alg.String()
	}
	record := func(status int) {
		s.streamRequests.With(algLabel, p.mode, strconv.Itoa(status)).Inc()
	}
	if herr != nil {
		record(herr.status)
		http.Error(w, herr.msg, herr.status)
		return
	}

	if !s.enter() {
		record(http.StatusServiceUnavailable)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()

	// Admission control is shared with /bytes: a long-lived stream holds
	// one in-flight slot for its whole duration.
	inflight := s.inflightNow.Add(1)
	defer s.inflightNow.Add(-1)
	if s.cfg.MaxInflight > 0 && inflight > int64(s.cfg.MaxInflight) {
		s.admissionRejected.Inc()
		w.Header().Set("Retry-After", "1")
		record(http.StatusTooManyRequests)
		http.Error(w, fmt.Sprintf("server at max in-flight requests (%d)", s.cfg.MaxInflight),
			http.StatusTooManyRequests)
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Bsrng-Algorithm", p.alg.String())
	w.Header().Set("X-Bsrng-Mode", p.mode)

	s.streamOpen.Add(1)
	defer s.streamOpen.Add(-1)

	var (
		served int64
		err    error
	)
	if p.mode == "pooled" {
		served, err = s.servePooledStream(w, r, p)
		if err != nil {
			// Checkout failed before any byte was written: a plain error
			// response is still possible.
			record(http.StatusServiceUnavailable)
			http.Error(w, "all shards busy", http.StatusServiceUnavailable)
			return
		}
	} else {
		var herr *httpError
		served, herr = s.serveAddressedStream(w, r, p)
		if herr != nil {
			record(herr.status)
			http.Error(w, herr.msg, herr.status)
			return
		}
		if p.mode == "lease" {
			s.leaseStreams.Inc()
		}
	}
	s.streamBytes.Add(uint64(served))
	s.bytesServed.Add(uint64(served))
	record(http.StatusOK)
	if served < p.n {
		// Ended early: client went away, drain began, or the pool closed.
		s.streamDisconnects.Inc()
	}
}

// servePooledStream checks a shard out and rides Stream.WriteTo: each
// staging chunk the engine filled is written straight to the response
// and flushed. A non-nil error means checkout failed and nothing was
// written; after the first byte, failures end the stream silently
// (served < n tells the caller).
func (s *Server) servePooledStream(w http.ResponseWriter, r *http.Request, p streamParams) (int64, error) {
	pool := s.pools[p.alg]
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	t0 := time.Now()
	sh, err := pool.checkout(ctx)
	cancel()
	s.checkoutLat.Observe(time.Since(t0).Seconds())
	if err != nil {
		return 0, err
	}
	st := sh.stream.Load()
	s.shardsBusy.Add(1)
	defer func() {
		pool.handback(sh)
		s.shardsBusy.Add(-1)
	}()
	if s.testHookServing != nil {
		s.testHookServing()
	}
	w.Header().Set("X-Bsrng-Shard", strconv.Itoa(sh.id))

	cw := &chunkWriter{s: s, w: w, ctx: r.Context(), flush: flusherFor(w)}
	served, werr := st.WriteTo(&limitedWriter{w: cw, n: p.n})
	_ = werr // budget spent, client gone, drain, or stream closed; served says how far
	return served, nil
}

// serveAddressedStream serves a deterministic window of the
// (seed, domain, segment) address space from a per-request
// core.SegmentReader through a pooled chunk buffer. The reader's
// aligned path writes whole segments straight into the buffer (the
// zero-copy engine path), so the steady state allocates nothing per
// chunk. A non-nil *httpError means nothing was written.
func (s *Server) serveAddressedStream(w http.ResponseWriter, r *http.Request, p streamParams) (int64, *httpError) {
	src, err := core.NewSegmentReader(p.alg, s.cfg.Seed, p.domain, 0, p.offset)
	if err != nil {
		return 0, &httpError{http.StatusBadRequest, err.Error()}
	}
	w.Header().Set("X-Bsrng-Domain", strconv.FormatUint(p.domain, 10))
	w.Header().Set("X-Bsrng-Offset", strconv.FormatUint(p.offset, 10))
	buf := s.getRespBuf()
	defer s.respBufs.Put(&buf)
	cw := &chunkWriter{s: s, w: w, ctx: r.Context(), flush: flusherFor(w)}
	served, _ := streamCopy(cw, src, buf, p.n)
	return served, nil
}

// streamCopy pumps n bytes from src (an infallible reader: a
// SegmentReader) to w in len(buf)-sized chunks. It stops at w's first
// error — disconnect, drain — and reports how far it got.
func streamCopy(w io.Writer, src io.Reader, buf []byte, n int64) (int64, error) {
	var served int64
	for served < n {
		k := int64(len(buf))
		if k > n-served {
			k = n - served
		}
		if _, err := src.Read(buf[:k]); err != nil {
			return served, err
		}
		wk, err := w.Write(buf[:k])
		served += int64(wk)
		if err != nil {
			return served, err
		}
	}
	return served, nil
}

// chunkWriter is the per-chunk policy of a /stream response: refuse to
// start a chunk once the client is gone or the server is draining,
// write, flush so the chunk leaves the process immediately, and count
// it. Wrapped by limitedWriter on the pooled path so the shard stream's
// cursor advances by exactly the bytes the response consumed.
type chunkWriter struct {
	s     *Server
	w     io.Writer
	ctx   context.Context
	flush func()
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	if err := cw.ctx.Err(); err != nil {
		return 0, err
	}
	if cw.s.isDraining() {
		return 0, errStreamDraining
	}
	k, err := cw.w.Write(p)
	if k > 0 {
		if cw.flush != nil {
			cw.flush()
		}
		cw.s.streamChunks.Inc()
	}
	return k, err
}

// flusherFor extracts the response's flush hook; nil when the writer
// cannot flush (plain io.Writer in tests).
func flusherFor(w io.Writer) func() {
	if f, ok := w.(http.Flusher); ok {
		return f.Flush
	}
	return nil
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}
