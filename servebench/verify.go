package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/health"
)

// streamKey names one pooled shard stream.
type streamKey struct {
	node  int
	alg   core.Algorithm
	shard int
}

// verifier checks served records against the library, outside the
// timed window.
type verifier struct {
	shape shardShape
	// healthHook rebuilds shard streams with the served health hook.
	// Healthy output never trips it, so it is only needed (and only
	// paid for) when the nodes report engine reseeds.
	healthHook bool
}

// verify marks every record whose bytes differ from the library's.
// Failed records (Fail != served) are not checked; the caller counts
// them.
//
// A pooled /bytes response is a window of its shard's stream (named by
// the serving node and X-Bsrng-Shard). Boot probes come first, in
// order; after them the workload's responses are equal-size windows in
// an order the client cannot observe, so they are compared as a
// multiset of checksums. A leased response is compared with
// core.NewSegmentReader at the lease's address.
func (v verifier) verify(recs []*record) (bad []bool, err error) {
	bad = make([]bool, len(recs))
	groups := map[streamKey][]int{}
	var leased []int
	for i, r := range recs {
		switch {
		case r.Fail != served:
		case r.Leased:
			leased = append(leased, i)
		default:
			k := streamKey{r.Node, r.Alg, r.Shard}
			groups[k] = append(groups[k], i)
		}
	}

	var tasks []func() error
	for k, idx := range groups {
		tasks = append(tasks, func() error { return v.verifyPooled(k, recs, idx, bad) })
	}
	for lo := 0; lo < len(leased); lo += 64 {
		part := leased[lo:min(lo+64, len(leased))]
		tasks = append(tasks, func() error { return v.verifyLeased(recs, part, bad) })
	}
	return bad, runTasks(tasks, clients)
}

// runTasks runs fns on at most workers goroutines and returns the
// first error.
func runTasks(fns []func() error, workers int) error {
	ch := make(chan func() error)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for fn := range ch {
				if err := fn(); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, fn := range fns {
		ch <- fn
	}
	close(ch)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (v verifier) verifyPooled(k streamKey, recs []*record, idx []int, bad []bool) error {
	if k.shard < 0 || k.shard >= v.shape.shards {
		for _, i := range idx {
			bad[i] = true
		}
		return nil
	}
	cfg := core.StreamConfig{Workers: v.shape.workers, StagingBytes: v.shape.staging, Lanes: v.shape.lanes}
	if v.healthHook {
		cfg.Health = health.NewChecker(health.Config{}).Check
	}
	st, err := core.NewStream(k.alg, v.shape.shardSeed(k.shard), cfg)
	if err != nil {
		return fmt.Errorf("verify %v shard %d: %w", k.alg, k.shard, err)
	}
	defer st.Close()

	var ordered, rest []int
	for _, i := range idx {
		if recs[i].Ordered {
			ordered = append(ordered, i)
		} else {
			rest = append(rest, i)
		}
	}
	sort.Slice(ordered, func(a, b int) bool { return recs[ordered[a]].Seq < recs[ordered[b]].Seq })
	var buf []byte
	next := func(n int) (uint32, error) {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(st, buf[:n]); err != nil {
			return 0, err
		}
		return crc32.Checksum(buf[:n], castagnoli), nil
	}
	for _, i := range ordered {
		c, err := next(recs[i].Size)
		if err != nil {
			return err
		}
		bad[i] = c != recs[i].CRC
	}
	if len(rest) == 0 {
		return nil
	}
	size := recs[rest[0]].Size
	want := map[uint32]int{}
	for range rest {
		c, err := next(size)
		if err != nil {
			return err
		}
		want[c]++
	}
	for _, i := range rest {
		r := recs[i]
		if r.Size != size || want[r.CRC] == 0 {
			bad[i] = true
			continue
		}
		want[r.CRC]--
	}
	return nil
}

func (v verifier) verifyLeased(recs []*record, idx []int, bad []bool) error {
	buf := make([]byte, leaseBytes)
	for _, i := range idx {
		r := recs[i]
		l := r.Lease
		if uint64(r.Size) > l.Bytes() {
			bad[i] = true
			continue
		}
		g, err := core.NewSegmentReader(l.Alg, v.shape.seed, l.Domain, 0, l.StartSegment*core.SegmentBytes)
		if err != nil {
			return fmt.Errorf("verify lease: %w", err)
		}
		if cap(buf) < r.Size {
			buf = make([]byte, r.Size)
		}
		g.Read(buf[:r.Size])
		bad[i] = crc32.Checksum(buf[:r.Size], castagnoli) != r.CRC
	}
	return nil
}
