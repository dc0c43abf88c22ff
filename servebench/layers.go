package main

import (
	"bufio"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/bitslice"
	"repro/internal/core"
	"repro/internal/grain"
	"repro/internal/health"
)

// scrape is a /metrics exposition summed over label sets, by series
// name (histograms contribute name_sum and name_count).
type scrape map[string]float64

// parseMetrics reads the text exposition format.
func parseMetrics(text string) scrape {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

// scrapeHandler calls h's /metrics in-process.
func scrapeHandler(h http.Handler) scrape {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseMetrics(rec.Body.String())
}

// scrapeAll sums the nodes' metrics and adds the router's.
func scrapeAll(t *topology) scrape {
	out := scrape{}
	for _, n := range t.nodes {
		for k, v := range scrapeHandler(n.srv.Handler()) {
			out[k] += v
		}
	}
	if t.router != nil {
		for k, v := range scrapeHandler(t.router.Handler()) {
			out[k] += v
		}
	}
	return out
}

// delta is the change of a series across the window.
func (w window) delta(name string) float64 { return w.after[name] - w.before[name] }

// layerBudget is how long each direct layer measurement runs.
const layerBudget = 300 * time.Millisecond

// layerStats are the direct-call measurements of the library layers,
// taken on the workload's own shapes after the served passes.
type layerStats struct {
	checkMBps, checkUsP50, checkMeanSec float64
	clockMBps, transposeMBps, genMBps   float64
	streamMBps, streamHealthMBps        float64
	segreaderSetupUsP50, segreaderMBps  float64
}

// timeLoop calls fn until budget has elapsed (at least once) and
// returns the calls made and the seconds spent.
func timeLoop(budget time.Duration, fn func()) (calls int, sec float64) {
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < budget {
		fn()
		calls++
	}
	return calls, time.Since(t0).Seconds()
}

// sink keeps loop results observable so the compiler cannot drop the
// measured calls.
var sink uint64

func measureLayers(p plan) layerStats {
	var ls layerStats
	algs := []core.Algorithm{core.GRAIN}
	if p.w.name == "small-mixed" {
		algs = core.ServedAlgorithms
	}
	shape := shapeOf(p.nodeConfig())

	// health: Checker.Check on served 2 KiB segments of the workload's
	// families.
	var segs [][]byte
	for _, alg := range algs {
		g, err := core.NewGenerator(alg, p.nodeSeed)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 64/len(algs)+1; i++ {
			s := make([]byte, core.SegmentBytes)
			g.Read(s)
			segs = append(segs, s)
		}
	}
	chk := health.NewChecker(health.Config{})
	var lat []float64
	i := 0
	calls, sec := timeLoop(layerBudget, func() {
		t0 := time.Now()
		if chk.Check(segs[i%len(segs)]) != nil {
			sink++
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		i++
	})
	ls.checkMBps = float64(calls*core.SegmentBytes) / sec / 1e6
	ls.checkMeanSec = sec / float64(calls)
	ls.checkUsP50 = summarize(lat).P50

	// grain kernel: one ClockVec yields one keystream bit per lane.
	keys, ivs := make([][]byte, core.DefaultLanes), make([][]byte, core.DefaultLanes)
	for l := range keys {
		keys[l] = segs[0][l%len(segs[0]) : l%len(segs[0])+grain.KeySize]
		ivs[l] = segs[1][l%len(segs[1]) : l%len(segs[1])+grain.IVSize]
	}
	gs, err := grain.NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		panic(err)
	}
	calls, sec = timeLoop(layerBudget, func() {
		for k := 0; k < 1024; k++ {
			v := gs.ClockVec()
			sink += v[0]
		}
	})
	ls.clockMBps = float64(calls*1024*core.DefaultLanes/8) / sec / 1e6

	// transpose: one 64×64-bit block of lane words.
	var blk [64]bitslice.V64
	for k := range blk {
		blk[k][0] = uint64(k) * 0x9E3779B97F4A7C15
	}
	calls, sec = timeLoop(layerBudget, func() {
		for k := 0; k < 256; k++ {
			bitslice.TransposeVec(&blk)
		}
		sink += blk[0][0]
	})
	ls.transposeMBps = float64(calls*256*64*8) / sec / 1e6

	// generator: one engine (kernel + transpose + segmenting), 64 KiB
	// reads, rotating over the workload's families.
	buf := make([]byte, 64<<10)
	var gens []*core.Generator
	for _, alg := range algs {
		g, err := core.NewGenerator(alg, p.nodeSeed+1)
		if err != nil {
			panic(err)
		}
		gens = append(gens, g)
	}
	i = 0
	calls, sec = timeLoop(layerBudget, func() {
		gens[i%len(gens)].Read(buf)
		i++
	})
	ls.genMBps = float64(calls*len(buf)) / sec / 1e6

	// stream: NewStream at the node's shard config, health hook off/on.
	ls.streamMBps = streamRate(algs, p.nodeSeed, shape, nil)
	ls.streamHealthMBps = streamRate(algs, p.nodeSeed, shape, chk.Check)

	// segment reader: what one leased /stream does — key a reader at a
	// fresh lease domain, read the window. Setup is keying plus the
	// first segment (one lane pass).
	var setup []float64
	var total time.Duration
	d := uint64(1) << 33
	calls, _ = timeLoop(layerBudget, func() {
		t0 := time.Now()
		g, err := core.NewSegmentReader(core.GRAIN, p.nodeSeed, d, 0, 0)
		if err != nil {
			panic(err)
		}
		g.Read(buf[:core.SegmentBytes])
		t1 := time.Now()
		g.Read(buf[core.SegmentBytes:leaseBytes])
		total += time.Since(t0)
		setup = append(setup, float64(t1.Sub(t0).Nanoseconds())/1e3)
		sink += uint64(crc32.Checksum(buf[:8], castagnoli))
		d++
	})
	ls.segreaderSetupUsP50 = summarize(setup).P50
	ls.segreaderMBps = float64(calls*leaseBytes) / total.Seconds() / 1e6
	return ls
}

// streamRate reads each family's stream for an equal share of the
// budget, after the workers' run-ahead chunks are drained, and returns
// the combined MB/s.
func streamRate(algs []core.Algorithm, seed uint64, sh shardShape, hook func([]byte) error) float64 {
	var bytes int
	var sec float64
	for _, alg := range algs {
		st, err := core.NewStream(alg, seed, core.StreamConfig{
			Workers: sh.workers, StagingBytes: sh.staging, Lanes: sh.lanes, Health: hook})
		if err != nil {
			panic(err)
		}
		for k := 0; k < 4*sh.workers; k++ {
			if _, err := st.NextChunk(); err != nil {
				panic(err)
			}
		}
		_, s := timeLoop(layerBudget/time.Duration(len(algs)), func() {
			c, err := st.NextChunk()
			if err != nil {
				panic(err)
			}
			bytes += len(c)
		})
		sec += s
		st.Close()
	}
	return float64(bytes) / sec / 1e6
}
