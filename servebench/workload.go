package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

// workload is one traffic mix. All three are closed loops of
// `clients` clients: an entropy consumer waits for its bytes before
// drawing again.
type workload struct {
	name   string
	why    string
	routed bool // through a cluster.Router over two nodes
}

var workloads = []workload{
	{"bulk-grain", "4 MiB grain /bytes on one node: kernel, transpose, health and staging do the work; per-request HTTP cost is negligible", false},
	{"small-mixed", "4 KiB /bytes rotating over all six served families: per-request handler cost dominates, chunk refills of every family show in the tail", false},
	{"routed-lease", "POST /lease then GET /stream of the 64 KiB lease through a two-node router: per-request segment reader, no health hook, ring routing and proxy copy", true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clients is the number of closed-loop clients, and so of client
// connections: at most one per CPU of the 2-CPU reference host.
const clients = 2

// Request shapes.
const (
	bulkBytes     = 4 << 20
	smallBytes    = 4 << 10
	leaseSegments = 32
	leaseBytes    = leaseSegments * core.SegmentBytes
)

// opKind is what one client operation does.
type opKind int

const (
	opBytes opKind = iota // GET /bytes?alg=&n=
	opLease               // POST /lease?alg=&segments=, then GET /stream?lease=
)

// op is one closed-loop operation.
type op struct {
	kind opKind
	alg  core.Algorithm
	n    int // payload bytes the operation must return
}

// plan is everything a workload's inputs derive from the seed: the
// nodes' generator seed and each client's operation sequence.
type plan struct {
	w        workload
	seed     uint64
	nodeSeed uint64
}

// splitmix64 is the seed expander for everything a plan derives.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newPlan(w workload, seed uint64) plan {
	st := seed
	return plan{w: w, seed: seed, nodeSeed: splitmix64(&st)}
}

// rotation is client c's order over the served families in round r: a
// fresh seeded permutation every round, so which families two clients
// request at the same time varies through the run rather than being
// fixed by the seed.
func (p plan) rotation(c, r int) []core.Algorithm {
	st := p.seed ^ uint64(c+1)<<56 ^ uint64(r)*0xD1B54A32D192ED03
	out := append([]core.Algorithm(nil), core.ServedAlgorithms...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(splitmix64(&st) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// op returns client c's i-th operation.
func (p plan) op(c, i int) op {
	switch p.w.name {
	case "bulk-grain":
		return op{kind: opBytes, alg: core.GRAIN, n: bulkBytes}
	case "small-mixed":
		n := len(core.ServedAlgorithms)
		return op{kind: opBytes, alg: p.rotation(c, i/n)[i%n], n: smallBytes}
	default:
		return op{kind: opLease, alg: core.GRAIN, n: leaseBytes}
	}
}

// nodeConfig is the node configuration every workload serves: the
// defaults, with the plan's seed.
func (p plan) nodeConfig() server.Config { return server.Config{Seed: p.nodeSeed} }

// node is one in-process bsrngd serving on a loopback port.
type node struct {
	name string
	srv  *server.Server
	http *httpServer
}

// httpServer is an http.Server on a loopback listener.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops accepting, waits for open requests and for Serve to
// return.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close()
	}
	<-s.done
}

// topology is a booted workload target: one node, or two nodes behind
// a router.
type topology struct {
	nodes    []*node
	router   *cluster.Router
	routerHS *httpServer
	entry    string // base URL the clients use
}

// probe is a 1-byte /bytes response read during boot. Probes run one
// at a time before any workload traffic, so they are the first bytes
// each shard stream served, in order.
type probe = record

// boot starts the workload's topology and returns once a 1-byte
// /bytes succeeds for every served family on every node (and through
// the router, where there is one). tr, when non-nil, wraps the
// handlers in span-recording middleware.
func boot(ctx context.Context, p plan, tr *tracer, cl *http.Client) (*topology, []probe, error) {
	t := &topology{}
	n := 1
	if p.w.routed {
		n = 2
	}
	var probes []probe
	for i := 0; i < n; i++ {
		srv, err := server.New(p.nodeConfig())
		if err != nil {
			t.close()
			return nil, nil, fmt.Errorf("node %d: %w", i, err)
		}
		nd := &node{name: nodeName(i), srv: srv}
		t.nodes = append(t.nodes, nd)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrapNode(nd.name, h)
		}
		if nd.http, err = listen(h); err != nil {
			t.close()
			return nil, nil, err
		}
		ps, err := probeAll(ctx, cl, nd.http.url, i)
		if err != nil {
			t.close()
			return nil, nil, err
		}
		probes = append(probes, ps...)
	}
	t.entry = t.nodes[0].http.url
	if !p.w.routed {
		return t, probes, nil
	}
	ring, err := cluster.NewRing(cluster.RingConfig{Nodes: []cluster.Node{
		{Name: t.nodes[0].name, URL: t.nodes[0].http.url},
		{Name: t.nodes[1].name, URL: t.nodes[1].http.url},
	}})
	if err != nil {
		t.close()
		return nil, nil, err
	}
	if t.router, err = cluster.NewRouter(cluster.RouterConfig{Ring: ring}); err != nil {
		t.close()
		return nil, nil, err
	}
	t.router.Start()
	var h http.Handler = t.router.Handler()
	if tr != nil {
		h = tr.wrapRouter(h)
	}
	if t.routerHS, err = listen(h); err != nil {
		t.close()
		return nil, nil, err
	}
	t.entry = t.routerHS.url
	ps, err := probeAll(ctx, cl, t.entry, -1)
	if err != nil {
		t.close()
		return nil, nil, err
	}
	return t, append(probes, ps...), nil
}

// probeAll fetches one byte of every served family from base, node
// node's URL; node -1 means base is the router, which names the
// serving node.
func probeAll(ctx context.Context, cl *http.Client, base string, node int) ([]probe, error) {
	var out []probe
	for _, alg := range core.ServedAlgorithms {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/bytes?n=1&alg="+alg.String(), nil)
		if err != nil {
			return nil, err
		}
		resp, err := cl.Do(req)
		if err != nil {
			return nil, fmt.Errorf("probe %v: %w", alg, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("probe %v: %w", alg, err)
		}
		if resp.StatusCode != http.StatusOK || len(b) != 1 {
			return nil, fmt.Errorf("probe %v: status %d, %d bytes", alg, resp.StatusCode, len(b))
		}
		pr := probe{Alg: alg, Node: node, Want: 1, Size: 1, CRC: crc32.Checksum(b, castagnoli), Ordered: true}
		if node < 0 {
			pr.Node = nodeIndex(resp.Header.Get("X-Bsrng-Cluster-Node"))
		}
		if pr.Shard, err = strconv.Atoi(resp.Header.Get("X-Bsrng-Shard")); err != nil {
			return nil, fmt.Errorf("probe %v: bad shard header: %w", alg, err)
		}
		out = append(out, pr)
	}
	return out, nil
}

// close stops the router, then the nodes; every goroutine the
// topology started has exited when it returns.
func (t *topology) close() {
	if t.routerHS != nil {
		t.routerHS.close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, n := range t.nodes {
		if n.http != nil {
			n.http.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := n.srv.Shutdown(ctx)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(logw, "node %s shutdown: %v\n", n.name, err)
		}
	}
}

// nodeByName returns the named node (nil if absent).
func (t *topology) nodeByName(name string) *node {
	for _, n := range t.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// shardShape mirrors how server.New lays out one algorithm's pooled
// streams, so verification can rebuild the library stream each shard
// serves. The defaults below are those documented on server.Config.
type shardShape struct {
	seed    uint64
	shards  int
	workers int
	staging int
	lanes   int
}

func shapeOf(cfg server.Config) shardShape {
	sh := shardShape{seed: cfg.Seed, shards: cfg.ShardsPerAlg, workers: cfg.WorkersPerShard,
		staging: cfg.StagingBytes, lanes: cfg.Lanes}
	algs := len(cfg.Algorithms)
	if cfg.Algorithms == nil {
		algs = len(core.ServedAlgorithms)
	}
	if sh.shards == 0 {
		sh.shards = 2
	}
	if sh.workers == 0 {
		sh.workers = max(1, runtime.NumCPU()/(algs*sh.shards))
	}
	return sh
}

// shardSeed is the stream seed of pooled shard i: shard 0 serves the
// configured seed verbatim, later shards take golden-ratio offsets
// (internal/server/pool.go).
func (sh shardShape) shardSeed(i int) uint64 {
	return sh.seed + uint64(i)*0x9E3779B97F4A7C15
}
