package main

import (
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one client operation (or boot probe) as the client saw it.
// Payload bytes are not kept: a crc32c of the body is, and verification
// regenerates the expected bytes after the run. It holds no pointers
// (see arena).
type record struct {
	Client int
	Seq    int
	Alg    core.Algorithm
	Node   int // serving node's index ("n<index>")
	Shard  int // pooled shard (from X-Bsrng-Shard); -1 when not pooled
	// Lease is the decoded lease a leased response was served from.
	Lease  server.Lease
	Leased bool
	Want   int // payload bytes requested
	Size   int // payload bytes received
	CRC    uint32
	Fail   failure // why the operation failed; served when it did not
	Status int     // HTTP status of the failing response
	// Ordered marks a boot probe: consumed alone, before any
	// concurrent traffic, so its position in the shard stream is known.
	Ordered bool
	// Start and End are nanoseconds since the run epoch.
	Start, End int64
	SpanID     uint64
}

// failure classifies a failed operation.
type failure uint8

const (
	served        failure = iota
	failTransport         // the request or the body read failed
	failStatus            // non-2xx, or not the status the endpoint promises
	failShort             // fewer payload bytes than requested
	failLease             // unreadable lease document or token
)

func (f failure) String() string {
	return [...]string{"served", "transport error", "unexpected status", "short body", "bad lease"}[f]
}

// nodeName is the name of node i in the topology and the ring.
func nodeName(i int) string { return "n" + strconv.Itoa(i) }

// nodeIndex parses a node name; -1 if it is not one.
func nodeIndex(name string) int {
	i, err := strconv.Atoi(strings.TrimPrefix(name, "n"))
	if err != nil || !strings.HasPrefix(name, "n") {
		return -1
	}
	return i
}

// Phases of a run. Clients read the phase before each operation and
// count payload toward the window only while it is phaseMeasure.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// warmup runs the workload untimed first, so shard streams reach their
// steady state and connections are open before timing starts.
const warmup = time.Second

// subWindow is the unit the measured window is cut into. Rates are
// interquartile means over sub-windows, so a burst of load from
// outside the benchmark moves a few sub-windows rather than the result.
const subWindow = time.Second

// runner drives one workload's closed loop against a booted topology.
type runner struct {
	p     plan
	entry string
	cl    *http.Client
	tr    *tracer // nil when untraced
	epoch time.Time
	phase atomic.Int32
	t0    atomic.Int64 // window start, ns since epoch
	sub   int64        // sub-window length, ns
	k     int          // sub-windows in the window
	// acc is each client's payload per sub-window; only that client
	// writes it, and only the coordinator reads it after the clients
	// have stopped.
	acc [clients][]progress
}

// progress is payload delivered in one sub-window: bytes, and the
// operations they amount to (an operation counts by the share of its
// payload read there).
type progress struct {
	bytes int64
	ops   float64
}

// window is the measured interval, cut into k sub-windows of sub ns,
// and what the process spent in each.
type window struct {
	t0, sub int64
	k       int
	served  []progress // summed over clients
	cpuNs   []int64    // process user+system CPU
	stealNs []int64    // CPU time the host withheld from this machine
	heap    []uint64   // peak HeapInuse
	before  scrape
	after   scrape
}

func (w window) totalCPU() (ns int64) {
	for _, c := range w.cpuNs {
		ns += c
	}
	return ns
}

func (w window) t1() int64        { return w.t0 + int64(w.k)*w.sub }
func (w window) seconds() float64 { return float64(w.t1()-w.t0) / 1e9 }

// index is the sub-window holding time t (ns since epoch), or -1.
func (w window) index(t int64) int {
	if t < w.t0 || t >= w.t1() {
		return -1
	}
	return int((t - w.t0) / w.sub)
}

// run drives the clients for warmup plus d (whole sub-windows), and
// returns every operation's record, per client in issue order, in
// arenas the caller must free.
func (d *runner) run(ctx context.Context, dur time.Duration, topo *topology) ([]*arena, window, error) {
	w := window{sub: int64(subWindow), k: int(dur / subWindow)}
	if w.k < 1 {
		w.sub, w.k = int64(dur), 1
	}
	d.sub, d.k = w.sub, w.k
	recs := make([]*arena, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		d.acc[c] = make([]progress, w.k)
		recs[c] = &arena{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for i := 0; d.phase.Load() != phaseStop; i++ {
				if _, errs[c] = recs[c].add(d.do(ctx, c, i, buf)); errs[c] != nil {
					return
				}
			}
		}(c)
	}

	sleep(ctx, warmup)
	w.before = scrapeAll(topo)
	cpu, steal := cpuTime(), stealTime()
	w.t0 = d.now()
	d.t0.Store(w.t0)
	d.phase.Store(phaseMeasure)

	stopHeap := make(chan struct{})
	heapDone := make(chan []uint64)
	go func(w window) { heapDone <- d.sampleHeap(stopHeap, w) }(w)

	w.cpuNs, w.stealNs = make([]int64, w.k), make([]int64, w.k)
	for i := range w.cpuNs {
		sleep(ctx, time.Duration(w.t0+int64(i+1)*w.sub-d.now()))
		now, st := cpuTime(), stealTime()
		w.cpuNs[i], cpu = now-cpu, now
		w.stealNs[i], steal = st-steal, st
	}
	d.phase.Store(phaseStop)
	close(stopHeap)
	w.heap = <-heapDone
	wg.Wait()
	w.after = scrapeAll(topo)
	w.served = make([]progress, w.k)
	for c := range d.acc {
		for i, p := range d.acc[c] {
			w.served[i].bytes += p.bytes
			w.served[i].ops += p.ops
		}
	}
	return recs, w, errors.Join(errs...)
}

func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (d *runner) now() int64 { return int64(time.Since(d.epoch)) }

// count credits n payload bytes of an operation wanting want bytes to
// client c's current sub-window.
func (d *runner) count(c, n, want int) {
	if d.phase.Load() != phaseMeasure {
		return
	}
	i := (d.now() - d.t0.Load()) / d.sub
	if i < 0 || i >= int64(d.k) {
		return
	}
	d.acc[c][i].bytes += int64(n)
	d.acc[c][i].ops += float64(n) / float64(want)
}

// do performs client c's i-th operation.
func (d *runner) do(ctx context.Context, c, i int, buf []byte) record {
	o := d.p.op(c, i)
	r := record{Client: c, Seq: i, Alg: o.alg, Want: o.n, Shard: -1, Start: d.now()}
	var opSpan span
	if d.tr != nil {
		opSpan = span{ID: d.tr.id(), Name: spanOp, Start: d.tr.now()}
		r.SpanID = opSpan.ID
	}
	switch o.kind {
	case opBytes:
		q := "/bytes?alg=" + url.QueryEscape(o.alg.String()) + "&n=" + strconv.Itoa(o.n)
		d.get(ctx, &r, q, opSpan.ID, buf)
	case opLease:
		d.lease(ctx, &r, opSpan.ID, buf)
	}
	if r.Fail == served && r.Size != r.Want {
		r.Fail = failShort
	}
	r.End = d.now()
	if d.tr != nil {
		opSpan.End = d.tr.now()
		d.tr.add(opSpan)
	}
	return r
}

// call issues one HTTP request, tagged with a client span when traced.
// The caller must run finish once the body is consumed.
func (d *runner) call(ctx context.Context, method, path string, parent uint64) (resp *http.Response, finish func(), err error) {
	req, err := http.NewRequestWithContext(ctx, method, d.entry+path, nil)
	if err != nil {
		return nil, nil, err
	}
	var s span
	if d.tr != nil {
		s = span{ID: d.tr.id(), Parent: parent, Name: spanHTTP, What: method + " " + req.URL.Path, Start: d.tr.now()}
		req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	}
	resp, err = d.cl.Do(req)
	finish = func() {
		if resp != nil {
			resp.Body.Close()
		}
		if d.tr != nil {
			s.End = d.tr.now()
			d.tr.add(s)
		}
	}
	if err != nil {
		finish()
		return nil, nil, err
	}
	return resp, finish, nil
}

// get fetches a payload: /bytes, or a lease's /stream.
func (d *runner) get(ctx context.Context, r *record, path string, parent uint64, buf []byte) {
	resp, finish, err := d.call(ctx, http.MethodGet, path, parent)
	if err != nil {
		r.Fail = failTransport
		return
	}
	defer finish()
	r.Node = 0
	if v := resp.Header.Get("X-Bsrng-Cluster-Node"); v != "" {
		r.Node = nodeIndex(v)
	}
	if v := resp.Header.Get("X-Bsrng-Shard"); v != "" {
		r.Shard, _ = strconv.Atoi(v)
	}
	if resp.StatusCode != http.StatusOK {
		r.Fail, r.Status = failStatus, resp.StatusCode
		return
	}
	h := crc32.New(castagnoli)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			h.Write(buf[:n])
			r.Size += n
			d.count(r.Client, n, r.Want)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Fail = failTransport
			return
		}
	}
	r.CRC = h.Sum32()
}

// lease allocates a lease through the entry point and streams it.
func (d *runner) lease(ctx context.Context, r *record, parent uint64, buf []byte) {
	path := "/lease?alg=" + url.QueryEscape(r.Alg.String()) + "&segments=" + strconv.Itoa(leaseSegments)
	resp, finish, err := d.call(ctx, http.MethodPost, path, parent)
	if err != nil {
		r.Fail = failTransport
		return
	}
	var doc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	status := resp.StatusCode
	finish()
	if status != http.StatusCreated {
		r.Fail, r.Status = failStatus, status
		return
	}
	if err != nil {
		r.Fail = failLease
		return
	}
	if r.Lease, err = server.DecodeLeaseToken(doc.ID); err != nil {
		r.Fail = failLease
		return
	}
	r.Leased = true
	d.get(ctx, r, "/stream?lease="+url.QueryEscape(doc.ID), parent, buf)
	r.Shard = -1
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// userHZ is the tick rate of /proc/stat on Linux.
const userHZ = 100

// stealTime is the CPU time, summed over CPUs, that the hypervisor has
// given to other guests while this machine had work to run (the steal
// column of /proc/stat), in nanoseconds; 0 where it is not reported.
// On a shared host it is the main source of run-to-run noise: in one
// second the host can withhold 40% of a 2-CPU guest.
func stealTime() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks * (1e9 / userHZ)
}

// heapSampleEvery is the heap sampler's period.
const heapSampleEvery = 5 * time.Millisecond

// sampleHeap returns, per sub-window of w, the peak in-use heap
// (HeapInuse: object bytes plus unused bytes of in-use spans) seen
// until stop closes.
func (d *runner) sampleHeap(stop <-chan struct{}, w window) []uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	peak := make([]uint64, w.k)
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if i := w.index(d.now()); i >= 0 {
			peak[i] = max(peak[i], s[0].Value.Uint64()+s[1].Value.Uint64())
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}
