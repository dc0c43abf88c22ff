package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program: the client's operation and each HTTP call it
// makes, the router's handler and each node's handler.
const (
	spanOp     = "client.op"
	spanHTTP   = "client.http"
	spanRouter = "router"
	spanNode   = "node"
)

// spanHeader carries the client's span ID to the first handler;
// spanParam carries the router's span ID to the node, because the
// router forwards the request URI but not the request headers.
const (
	spanHeader = "X-Bench-Span"
	spanParam  = "bench_span"
)

// span is one timed interval. Times are nanoseconds since the run's
// epoch, on the process's monotonic clock.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Where  string `json:"where,omitempty"` // node name for node spans
	What   string `json:"what,omitempty"`  // "METHOD /path" for handler spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// WriteNs is the time a node handler spent inside
	// ResponseWriter.Write and Flush: the HTTP write layer.
	WriteNs int64 `json:"write_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrapRouter records a router span per request and hands its ID to the
// node through the forwarded query string.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.id(), Name: spanRouter, What: r.Method + " " + r.URL.Path, Start: t.now()}
		s.Parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		u := *r.URL
		if u.RawQuery != "" {
			u.RawQuery += "&"
		}
		u.RawQuery += spanParam + "=" + strconv.FormatUint(s.ID, 10)
		r2 := r.WithContext(r.Context())
		r2.URL = &u
		h.ServeHTTP(w, r2)
		s.End = t.now()
		t.add(s)
	})
}

// wrapNode records a node span per request, timing the handler's
// writes to the response separately.
func (t *tracer) wrapNode(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.id(), Name: spanNode, Where: name, What: r.Method + " " + r.URL.Path, Start: t.now()}
		parent := r.URL.Query().Get(spanParam)
		if parent == "" {
			parent = r.Header.Get(spanHeader)
		}
		s.Parent, _ = strconv.ParseUint(parent, 10, 64)
		tw := &timedWriter{ResponseWriter: w, t: t}
		h.ServeHTTP(tw, r)
		s.End = t.now()
		s.WriteNs = tw.ns
		t.add(s)
	})
}

// timedWriter sums the time spent in Write and Flush. It keeps
// http.Flusher visible so /stream still flushes per chunk.
type timedWriter struct {
	http.ResponseWriter
	t  *tracer
	ns int64
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	t0 := tw.t.now()
	n, err := tw.ResponseWriter.Write(p)
	tw.ns += tw.t.now() - t0
	return n, err
}

func (tw *timedWriter) Flush() {
	if f, ok := tw.ResponseWriter.(http.Flusher); ok {
		t0 := tw.t.now()
		f.Flush()
		tw.ns += tw.t.now() - t0
	}
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of its interval that
// the children cover (overlapping children are counted once; parts of
// a child outside the parent are ignored).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - covered
}

// opBreakdown is one client operation split by layer, in nanoseconds.
type opBreakdown struct {
	client     int64 // the operation as the client saw it
	clientSelf int64 // client time no server-side span covers
	node       int64 // summed node handler spans
	write      int64 // summed time inside node ResponseWriter writes
	routerSelf int64 // router spans minus the node spans inside them
}

// spanTree indexes spans by parent.
type spanTree struct {
	kids map[uint64][]span
}

func newSpanTree(spans []span) spanTree {
	t := spanTree{kids: make(map[uint64][]span)}
	for _, s := range spans {
		if s.Parent != 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], s)
		}
	}
	return t
}

// breakdown splits one operation span into its layers. A node span
// hangs either under a router span (routed) or directly under the
// client's HTTP span (single node).
func (t spanTree) breakdown(op span) opBreakdown {
	b := opBreakdown{client: op.dur()}
	var top []span // the first server-side span of each HTTP call
	for _, call := range t.kids[op.ID] {
		for _, s := range t.kids[call.ID] {
			top = append(top, s)
			switch s.Name {
			case spanNode:
				b.node += s.dur()
				b.write += s.WriteNs
			case spanRouter:
				nodes := t.kids[s.ID]
				b.routerSelf += selfTime(s, nodes)
				for _, n := range nodes {
					b.node += n.dur()
					b.write += n.WriteNs
				}
			}
		}
	}
	b.clientSelf = selfTime(op, top)
	return b
}

// nodeSpans returns every node span below op whose What matches.
func (t spanTree) nodeSpans(op span, what string) []span {
	var out []span
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, s := range t.kids[id] {
			if s.Name == spanNode && s.What == what {
				out = append(out, s)
			}
			walk(s.ID)
		}
	}
	walk(op.ID)
	return out
}
