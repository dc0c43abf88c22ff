package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// pass is one boot-drive-verify cycle of a workload.
type pass struct {
	p      plan
	traced bool
	setup  []float64 // seconds per boot
	recs   []*record // boot probes, then every operation
	bad    []bool    // verification verdict per record
	win    window
	spans  []span
	arenas []*arena // hold recs; released by free
}

// free releases the operation records; the pass must not be used
// after.
func (ps *pass) free() {
	for _, a := range ps.arenas {
		a.free()
	}
	ps.recs = nil
}

// runPass boots the topology reps times (the last boot serves), drives
// the workload for d after the warm-up, shuts everything down and
// verifies every served byte.
func runPass(ctx context.Context, w workload, seed uint64, d time.Duration, traced bool, reps int) (*pass, error) {
	ps := &pass{p: newPlan(w, seed), traced: traced}
	cl := newClient()
	defer cl.CloseIdleConnections()
	epoch := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(epoch)
	}

	var topo *topology
	for i := 0; i < reps; i++ {
		t0, steal := time.Now(), stealTime()
		t, probes, err := boot(ctx, ps.p, tr, cl)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		// Like the rates, set-up time is net of the host's steal.
		took := netOfSteal(int64(time.Since(t0)), stealTime()-steal)
		ps.setup = append(ps.setup, float64(took)/1e9)
		if i < reps-1 {
			cl.CloseIdleConnections()
			t.close()
			continue
		}
		topo = t
		for j := range probes {
			probes[j].Seq = j
			ps.recs = append(ps.recs, &probes[j])
		}
	}

	drv := &runner{p: ps.p, entry: topo.entry, cl: cl, tr: tr, epoch: epoch}
	arenas, win, err := drv.run(ctx, d, topo)
	ps.arenas = arenas
	cl.CloseIdleConnections()
	topo.close()
	if err != nil {
		ps.free()
		return nil, err
	}
	ps.win = win
	for _, a := range arenas {
		ps.recs = append(ps.recs, a.all()...)
	}
	if tr != nil {
		ps.spans = tr.snapshot()
	}

	v := verifier{shape: shapeOf(ps.p.nodeConfig()), healthHook: win.after["bsrngd_health_engine_reseeds_total"] > 0}
	bad, err := v.verify(ps.recs)
	if err != nil {
		ps.free()
		return nil, err
	}
	ps.bad = bad
	return ps, nil
}

// ok reports whether record i was served in full and verified.
func (ps *pass) ok(i int) bool { return ps.recs[i].Fail == served && !ps.bad[i] }

// failed counts non-2xx responses, short bodies and byte mismatches.
func (ps *pass) failed() int {
	n := 0
	for i := range ps.recs {
		if !ps.ok(i) {
			n++
		}
	}
	return n
}

// errs describes up to ten failures.
func (ps *pass) errs() []string {
	var out []string
	for i, r := range ps.recs {
		if ps.ok(i) {
			continue
		}
		if len(out) == 10 {
			out = append(out, "...")
			break
		}
		msg := r.Fail.String()
		switch {
		case r.Fail == served:
			msg = "bytes differ from the library"
		case r.Status != 0:
			msg += " " + strconv.Itoa(r.Status)
		}
		out = append(out, fmt.Sprintf("client %d op %d %v node %s shard %d: %s", r.Client, r.Seq, r.Alg, nodeName(r.Node), r.Shard, msg))
	}
	return out
}

// timed reports whether record i is a verified operation that
// completed inside the window.
func (ps *pass) timed(i int) bool {
	r := ps.recs[i]
	return !r.Ordered && ps.ok(i) && ps.win.index(r.End) >= 0
}

// latencies returns, in ms, the operations timed in the window, per
// sub-window they completed in.
func (ps *pass) latencies() [][]float64 {
	out := make([][]float64, ps.win.k)
	for i, r := range ps.recs {
		if ps.timed(i) {
			j := ps.win.index(r.End)
			out[j] = append(out[j], float64(r.End-r.Start)/1e6)
		}
	}
	return out
}

// latency summarizes the timed operations: the median over the whole
// window, and the tail as tailOf reports it.
func (ps *pass) latency() summary {
	subs := ps.latencies()
	var all []float64
	for _, s := range subs {
		all = append(all, s...)
	}
	s := summarize(all)
	s.Tail, s.TailQ, s.Beyond = tailOf(subs)
	return s
}

// tailOf is the tail latency of per-sub-window samples. Consecutive
// sub-windows are merged into groups of at least p99Samples; the tail
// is the interquartile mean of the groups' p99, which a burst of
// outside load in one group cannot move. With fewer than p99Samples in the whole
// window it is the highest percentile with minBeyond samples beyond it,
// over the window. beyond is the fewest samples beyond the tail in any
// group.
func tailOf(subs [][]float64) (tail, q float64, beyond int) {
	var groups [][]float64
	var cur []float64
	for _, s := range subs {
		cur = append(cur, s...)
		if len(cur) >= p99Samples {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(groups) == 0 {
		s := summarize(cur)
		return s.Tail, s.TailQ, s.Beyond
	}
	groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	tails := make([]float64, len(groups))
	beyond = math.MaxInt
	for i, g := range groups {
		sort.Float64s(g)
		var b int
		tails[i], b = percentile(g, 0.99)
		beyond = min(beyond, b)
	}
	return iqm(tails), 0.99, beyond
}

// rates are the per-sub-window served MB/s, operations/s, CPU ms per
// MiB and peak heap MiB. The rates are per second of machine time the
// host let the benchmark have: a sub-window's length is reduced by the
// steal time in it, divided over the CPUs.
func (ps *pass) rates() (mbps, ops, cpu, heap []float64) {
	w := ps.win
	for i, p := range w.served {
		sec := w.available(i)
		mbps = append(mbps, float64(p.bytes)/sec/1e6)
		ops = append(ops, p.ops/sec)
		cpu = append(cpu, float64(w.cpuNs[i])/1e6/(float64(p.bytes)/(1<<20)))
		heap = append(heap, float64(w.heap[i])/(1<<20))
	}
	return mbps, ops, cpu, heap
}

// stealShare is the share of the machine's CPU time in the window that
// the host withheld.
func (w window) stealShare() float64 {
	var s int64
	for _, v := range w.stealNs {
		s += v
	}
	return float64(s) / float64(runtime.NumCPU()) / float64(w.t1()-w.t0)
}

// available is sub-window i's length in seconds, net of steal.
func (w window) available(i int) float64 {
	return float64(netOfSteal(w.sub, w.stealNs[i])) / 1e9
}

// netOfSteal is an interval of d ns less the steal time in it spread
// over the CPUs, never below a tenth of d.
func netOfSteal(d, steal int64) int64 {
	return max(d-steal/int64(runtime.NumCPU()), d/10)
}

func (ps *pass) servedMBps() float64 {
	mbps, _, _, _ := ps.rates()
	return iqm(mbps)
}

// endToEnd computes the metrics a user of the service sees. Rates are
// interquartile means over the window's sub-windows.
func (ps *pass) endToEnd() []metric {
	mbps, ops, cpu, heap := ps.rates()
	lat := ps.latency()
	vals := map[string]float64{
		"served_MBps":    iqm(mbps),
		"req_per_s":      iqm(ops),
		"latency_p50_ms": lat.P50,
		"setup_s":        median(ps.setup),
		"cpu_ms_per_MiB": iqm(cpu),
		"heap_MiB":       iqm(heap),
	}
	return fill(endToEndUnits, vals)
}

func fill(units []metric, vals map[string]float64) []metric {
	out := make([]metric, len(units))
	for i, u := range units {
		out[i] = metric{name: u.name, unit: u.unit, value: vals[u.name]}
	}
	return out
}

// perLayer computes the per-layer metrics from the traced pass's spans,
// the nodes' and router's counters over its window, and the direct
// layer timings. A layer that does no work on the workload reads 0.
func perLayer(plain, traced *pass, ls layerStats) []metric {
	win := traced.win
	tree := newSpanTree(traced.spans)
	byID := map[uint64]span{}
	for _, s := range traced.spans {
		if s.Name == spanOp {
			byID[s.ID] = s
		}
	}
	var (
		sum                   opBreakdown
		handlerMs, routerMs   []float64
		leaseMs               []float64
		poolSpan, poolOutside int64
	)
	for i, r := range traced.recs {
		op, ok := byID[r.SpanID]
		if !traced.timed(i) || !ok {
			continue
		}
		b := tree.breakdown(op)
		sum.client += b.client
		sum.clientSelf += b.clientSelf
		sum.node += b.node
		sum.write += b.write
		sum.routerSelf += b.routerSelf
		handlerMs = append(handlerMs, float64(b.node)/1e6)
		if traced.p.w.routed {
			routerMs = append(routerMs, float64(b.routerSelf)/1e6)
		}
		for _, s := range tree.nodeSpans(op, "POST /lease") {
			leaseMs = append(leaseMs, float64(s.dur())/1e6)
		}
		for _, s := range tree.nodeSpans(op, "GET /bytes") {
			poolSpan += s.dur()
			poolOutside += s.dur() - s.WriteNs
		}
	}
	handler := summarize(handlerMs)
	client := float64(sum.client)
	segs := win.delta("bsrngd_health_segments_checked_total")
	vals := map[string]float64{
		"health.check_MBps":           ls.checkMBps,
		"health.check_us_p50":         ls.checkUsP50,
		"health.segments_checked":     segs,
		"health.cpu_share":            ratio(segs*ls.checkMeanSec, float64(win.totalCPU())/1e9),
		"grain.clock_MBps":            ls.clockMBps,
		"bitslice.transpose_MBps":     ls.transposeMBps,
		"core.generator_MBps":         ls.genMBps,
		"core.stream_MBps":            ls.streamMBps,
		"core.stream_health_MBps":     ls.streamHealthMBps,
		"core.chunk_wait_share":       ratio(float64(poolOutside), float64(poolSpan)),
		"core.recycle_ratio":          ratio(win.delta("bsrngd_engine_recycle_hits_total"), win.delta("bsrngd_engine_chunks_produced_total")),
		"core.health_reseeds":         win.delta("bsrngd_health_engine_reseeds_total"),
		"core.segreader_setup_us_p50": ls.segreaderSetupUsP50,
		"core.segreader_MBps":         ls.segreaderMBps,
		"server.handler_ms_p50":       zeroNaN(handler.P50),
		"server.handler_ms_tail":      zeroNaN(handler.Tail),
		"server.self_share":           ratio(float64(sum.node), client),
		"server.write_share":          ratio(float64(sum.write), client),
		"server.checkout_wait_ms":     1e3 * ratio(win.delta("bsrngd_shard_checkout_seconds_sum"), win.delta("bsrngd_shard_checkout_seconds_count")),
		"server.lease_issue_ms_p50":   zeroNaN(summarize(leaseMs).P50),
		"cluster.router_self_ms_p50":  zeroNaN(summarize(routerMs).P50),
		"cluster.router_self_share":   ratio(float64(sum.routerSelf), client),
		"cluster.retries":             win.delta("bsrngd_cluster_retries_total"),
		"cluster.failovers":           win.delta("bsrngd_cluster_failovers_total"),
		"client.latency_tail_ms":      plain.latency().Tail,
		"client.self_share":           ratio(float64(sum.clientSelf), client),
		"harness.steal_share":         win.stealShare(),
		"harness.span_accounting":     ratio(float64(sum.node+sum.routerSelf+sum.clientSelf), client),
		"harness.trace_overhead":      ratio(traced.servedMBps(), plain.servedMBps()),
	}
	return fill(perLayerUnits, vals)
}

// zeroNaN maps "no samples" to 0 for layers the workload does not use.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
