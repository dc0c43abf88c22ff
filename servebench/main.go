// Command servebench measures the bytes/s a client receives from an
// in-process bsrngd node, or a two-node cluster behind the router, and
// splits each result by layer. See README.md.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash servebench/run.sh --workload bulk-grain --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, times the library layers directly, and
// prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --workload all runs every workload in turn.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// logw receives diagnostics; standard output carries only results.
var logw io.Writer = os.Stderr

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// Metric names and units, in report order. BENCHMARK.json declares the
// same set.
var (
	endToEndUnits = []metric{
		{name: "served_MBps", unit: "MB/s"},
		{name: "req_per_s", unit: "1/s"},
		{name: "latency_p50_ms", unit: "ms"},
		{name: "setup_s", unit: "s"},
		{name: "cpu_ms_per_MiB", unit: "ms/MiB"},
		{name: "heap_MiB", unit: "MiB"},
	}
	perLayerUnits = []metric{
		{name: "health.check_MBps", unit: "MB/s"},
		{name: "health.check_us_p50", unit: "us"},
		{name: "health.segments_checked", unit: "count"},
		{name: "health.cpu_share", unit: "ratio"},
		{name: "grain.clock_MBps", unit: "MB/s"},
		{name: "bitslice.transpose_MBps", unit: "MB/s"},
		{name: "core.generator_MBps", unit: "MB/s"},
		{name: "core.stream_MBps", unit: "MB/s"},
		{name: "core.stream_health_MBps", unit: "MB/s"},
		{name: "core.chunk_wait_share", unit: "ratio"},
		{name: "core.recycle_ratio", unit: "ratio"},
		{name: "core.health_reseeds", unit: "count"},
		{name: "core.segreader_setup_us_p50", unit: "us"},
		{name: "core.segreader_MBps", unit: "MB/s"},
		{name: "server.handler_ms_p50", unit: "ms"},
		{name: "server.handler_ms_tail", unit: "ms"},
		{name: "server.self_share", unit: "ratio"},
		{name: "server.write_share", unit: "ratio"},
		{name: "server.checkout_wait_ms", unit: "ms"},
		{name: "server.lease_issue_ms_p50", unit: "ms"},
		{name: "cluster.router_self_ms_p50", unit: "ms"},
		{name: "cluster.router_self_share", unit: "ratio"},
		{name: "cluster.retries", unit: "count"},
		{name: "cluster.failovers", unit: "count"},
		{name: "client.latency_tail_ms", unit: "ms"},
		{name: "client.self_share", unit: "ratio"},
		{name: "harness.steal_share", unit: "ratio"},
		{name: "harness.span_accounting", unit: "ratio"},
		{name: "harness.trace_overhead", unit: "ratio"},
	}
)

// setupReps is how many times an untraced run boots the topology; the
// median boot is setup_s and the last boot serves the workload.
const setupReps = 5

// accountingSlack is how far the server, router and client shares of
// the client-observed time may sum away from 1 before the trace is
// flagged: spans are taken on the same monotonic clock, but a handler
// may return after its last bytes reach the client.
const accountingSlack = 0.05

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(logw)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "bulk-grain, small-mixed, routed-lease, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: node seed and request order derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: per-layer run (untraced pass, traced pass, direct layer timings)")
	fs.StringVar(&o.out, "out", ".bench_build/servebench-out", "directory for result files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(logw, "servebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var todo []workload
	if o.workload == "all" {
		todo = workloads
	} else if w, ok := findWorkload(o.workload); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(logw, "servebench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(logw, "servebench:", err)
		return 1
	}

	hf := fingerprint()
	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "# host: %s\n", hf)

	all := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var last result
	for _, w := range todo {
		res, err := runWorkload(context.Background(), w, o, hf, bw)
		if err != nil {
			fmt.Fprintf(logw, "servebench: %s: %v\n", w.name, err)
			return 1
		}
		last = res
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	if len(todo) > 1 {
		last = all
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(logw, "servebench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in the requested mode, writes its
// result file (and trace) under o.out and prints a summary to bw.
func runWorkload(ctx context.Context, w workload, o options, hf host, bw io.Writer) (result, error) {
	d := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(bw, "# workload=%s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds, o.trace)
	reps := setupReps
	if o.trace {
		// A per-layer run makes two passes; each gets half the window
		// so the run takes about as long as an end-to-end one.
		reps, d = 1, d/2
	}
	plain, err := runPass(ctx, w, o.seed, d, false, reps)
	if err != nil {
		return result{}, err
	}
	defer plain.free()
	passes := []*pass{plain}
	var ms []metric
	if !o.trace {
		ms = plain.endToEnd()
		printPass(bw, plain)
	} else {
		traced, err := runPass(ctx, w, o.seed, d, true, reps)
		if err != nil {
			return result{}, err
		}
		defer traced.free()
		passes = append(passes, traced)
		ls := measureLayers(newPlan(w, o.seed))
		ms = perLayer(plain, traced, ls)
		printPass(bw, plain)
		printPass(bw, traced)
		acc := valueOf(ms, "harness.span_accounting")
		fmt.Fprintf(bw, "# span accounting: server %.3f + router %.3f + client %.3f = %.3f (slack %.2f)\n",
			valueOf(ms, "server.self_share"), valueOf(ms, "cluster.router_self_share"),
			valueOf(ms, "client.self_share"), acc, accountingSlack)
		if math.Abs(acc-1) > accountingSlack {
			fmt.Fprintln(bw, "# WARNING: layer shares do not account for the client-observed time")
		}
		tracePath := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeJSONL(tracePath, traced.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(bw, "# trace: %s (%d spans)\n", tracePath, len(traced.spans))
	}

	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, p := range passes {
		res.Correct = res.Correct && p.failed() == 0
		res.Attempted += len(p.recs)
		res.Failed += p.failed()
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return result{}, fmt.Errorf("metric %s could not be measured", m.name)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(bw, "# %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if err := writeResultFile(o, w, hf, res, passes); err != nil {
		return result{}, err
	}
	return res, nil
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// printPass prints what the JSON line cannot carry: the failure count,
// which percentile the tail is, and the sample count.
func printPass(bw io.Writer, p *pass) {
	lat := p.latency()
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	fmt.Fprintf(bw, "# %s pass: failed_ratio %g (%d of %d), latency n=%d p50 %.4g ms, p%.0f %.4g ms (%d beyond), window %.3f s\n",
		kind, ratio(float64(p.failed()), float64(len(p.recs))), p.failed(), len(p.recs),
		lat.N, lat.P50, lat.TailQ*100, lat.Tail, lat.Beyond, p.win.seconds())
	mbps, _, _, _ := p.rates()
	fmt.Fprintf(bw, "# %s pass: host steal %.1f%% of CPU time; served MB/s per %v sub-window, net of steal: %.4g\n",
		kind, 100*p.win.stealShare(), time.Duration(p.win.sub), mbps)
	for _, e := range p.errs() {
		fmt.Fprintf(bw, "# failure: %s\n", e)
	}
}

// host is the fingerprint every result records.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Platform)
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// writeResultFile records the run with its host fingerprint and seed.
func writeResultFile(o options, w workload, hf host, res result, passes []*pass) error {
	type passDoc struct {
		Traced   bool      `json:"traced"`
		SetupS   []float64 `json:"setup_s"`
		Window   float64   `json:"window_s"`
		Latency  summary   `json:"latency_ms"`
		Attempts int       `json:"attempted"`
		Failures []string  `json:"failures,omitempty"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Why      string    `json:"why"`
		Seed     uint64    `json:"seed"`
		Seconds  float64   `json:"seconds"`
		Trace    bool      `json:"trace"`
		Host     host      `json:"host"`
		Clients  int       `json:"clients"`
		Result   result    `json:"result"`
		Passes   []passDoc `json:"passes"`
	}{w.name, w.why, o.seed, o.seconds, o.trace, hf, clients, res, nil}
	for _, p := range passes {
		lat := p.latency()
		if math.IsNaN(lat.Tail) {
			lat.Tail = 0
		}
		doc.Passes = append(doc.Passes, passDoc{p.traced, p.setup, p.win.seconds(), lat, len(p.recs), p.errs()})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, trace)
	return os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644)
}

// newClient is the benchmark's HTTP client: at most `clients`
// connections per host.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}
