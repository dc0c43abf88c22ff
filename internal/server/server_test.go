package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// The acceptance contract: /bytes?alg=mickey&n=1024 on a freshly seeded
// server returns exactly the prefix of the equivalent library stream.
func TestBytesDeterministicSeededOutput(t *testing.T) {
	cfg := Config{Seed: 42, ShardsPerAlg: 1, WorkersPerShard: 2, StagingBytes: 2048}
	_, ts := newTestServer(t, cfg)

	status, body, hdr := get(t, ts.URL+"/bytes?alg=mickey&n=1024")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(body) != 1024 {
		t.Fatalf("got %d bytes", len(body))
	}
	if hdr.Get("X-Bsrng-Algorithm") != "mickey" {
		t.Errorf("algorithm header %q", hdr.Get("X-Bsrng-Algorithm"))
	}

	ref, err := core.NewStream(core.MICKEY, 42, core.StreamConfig{Workers: 2, StagingBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]byte, 2048)
	ref.Read(want)
	if !bytes.Equal(body, want[:1024]) {
		t.Fatal("served bytes diverge from library stream prefix")
	}

	// A second request continues the same shard stream, not a reset.
	status, body2, _ := get(t, ts.URL+"/bytes?alg=mickey&n=1024")
	if status != http.StatusOK {
		t.Fatalf("second request status %d", status)
	}
	if !bytes.Equal(body2, want[1024:2048]) {
		t.Fatal("second request does not continue the stream")
	}
}

func TestBytesHexOutput(t *testing.T) {
	cfg := Config{Seed: 7, ShardsPerAlg: 1, WorkersPerShard: 1, StagingBytes: 1024}
	_, ts := newTestServer(t, cfg)
	status, body, hdr := get(t, ts.URL+"/bytes?alg=grain&n=16&hex=1")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	s := string(body)
	if len(s) != 33 || s[32] != '\n' {
		t.Fatalf("unexpected hex body %q", s)
	}
	raw, err := hex.DecodeString(s[:32])
	if err != nil {
		t.Fatalf("not hex: %v", err)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("hex content type %q", hdr.Get("Content-Type"))
	}
	ref, _ := core.NewStream(core.GRAIN, 7, core.StreamConfig{Workers: 1, StagingBytes: 1024})
	defer ref.Close()
	want := make([]byte, 16)
	ref.Read(want)
	if !bytes.Equal(raw, want) {
		t.Fatal("hex bytes diverge from library stream")
	}
}

func TestMetricsAfterRequest(t *testing.T) {
	cfg := Config{Seed: 1, ShardsPerAlg: 1, WorkersPerShard: 1, StagingBytes: 1024}
	_, ts := newTestServer(t, cfg)
	if status, _, _ := get(t, ts.URL+"/bytes?alg=trivium&n=4096"); status != http.StatusOK {
		t.Fatalf("bytes status %d", status)
	}
	status, body, _ := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	out := string(body)
	for _, want := range []string{
		"bsrngd_bytes_served_total 4096",
		`bsrngd_requests_total{alg="trivium",status="200"} 1`,
		"bsrngd_shard_checkout_seconds_count 1",
		fmt.Sprintf("bsrngd_streams_active %d", len(core.ServedAlgorithms)), // default algorithms × 1 shard
		"bsrngd_shards_busy 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// Engine-level gauges must be live and non-zero after traffic.
	for _, name := range []string{
		"bsrngd_engine_chunks_produced_total",
		"bsrngd_engine_bytes_delivered_total",
	} {
		if strings.Contains(out, name+" 0\n") {
			t.Errorf("%s still zero after a request:\n%s", name, out)
		}
	}
}

func TestBadRequests(t *testing.T) {
	cfg := Config{Seed: 1, ShardsPerAlg: 1, WorkersPerShard: 1,
		StagingBytes: 1024, MaxRequestBytes: 1 << 10}
	_, ts := newTestServer(t, cfg)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/bytes?alg=rot13&n=16", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=0", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=-5", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=zzz", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=2048", http.StatusRequestEntityTooLarge},
		{"/nope", http.StatusNotFound},
	} {
		if status, _, _ := get(t, ts.URL+tc.path); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, status, tc.want)
		}
	}
	// Error statuses are visible in request metrics.
	_, body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `bsrngd_requests_total{alg="invalid",status="400"}`) {
		t.Errorf("invalid-alg requests not counted:\n%s", body)
	}
	if !strings.Contains(string(body), `bsrngd_requests_total{alg="mickey",status="413"} 1`) {
		t.Errorf("oversized requests not counted:\n%s", body)
	}
}

func TestAlgorithmNotServed(t *testing.T) {
	cfg := Config{Seed: 1, Algorithms: []core.Algorithm{core.GRAIN},
		ShardsPerAlg: 1, WorkersPerShard: 1, StagingBytes: 1024}
	_, ts := newTestServer(t, cfg)
	if status, _, _ := get(t, ts.URL+"/bytes?alg=mickey&n=16"); status != http.StatusBadRequest {
		t.Errorf("unserved algorithm status %d, want 400", status)
	}
	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=16"); status != http.StatusOK {
		t.Errorf("served algorithm status %d, want 200", status)
	}
}

// Shutdown must 503 new work, wait for in-flight requests, then close
// the pools — the SIGTERM drain path of cmd/bsrngd.
func TestShutdownDrainsInFlight(t *testing.T) {
	cfg := Config{Seed: 3, ShardsPerAlg: 1, WorkersPerShard: 1, StagingBytes: 1024}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	// Set before NewServer spawns the accept loop so handler goroutines
	// observe the hook without a data race.
	s.testHookServing = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	type result struct {
		status int
		n      int
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/bytes?alg=mickey&n=2048")
		if err != nil {
			reqDone <- result{-1, 0}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		reqDone <- result{resp.StatusCode, len(body)}
	}()
	<-entered // request is in flight, holding its shard

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()

	// healthz flips to draining promptly, while the request is still open.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if status, _, _ := get(t, ts.URL+"/healthz"); status == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New byte requests are refused during the drain.
	if status, _, _ := get(t, ts.URL+"/bytes?alg=mickey&n=16"); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", status)
	}
	// Shutdown must still be blocked on the in-flight request.
	select {
	case <-shutDone:
		t.Fatal("Shutdown returned before in-flight request finished")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-reqDone
	if res.status != http.StatusOK || res.n != 2048 {
		t.Fatalf("in-flight request: status %d, %d bytes; want full 200", res.status, res.n)
	}
}

// A held shard plus a short request timeout produces 503, not a hang.
func TestCheckoutTimeout(t *testing.T) {
	cfg := Config{Seed: 3, ShardsPerAlg: 1, WorkersPerShard: 1,
		StagingBytes: 1024, RequestTimeout: 50 * time.Millisecond}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookServing = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default: // later requests pass straight through
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	go http.Get(ts.URL + "/bytes?alg=grain&n=64") //nolint:errcheck
	<-entered

	start := time.Now()
	status, body, _ := get(t, ts.URL+"/bytes?alg=grain&n=64")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("contended request got %d (%q), want 503", status, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("503 took %v; timeout not honored", elapsed)
	}
	close(release)
}

// An invalid Config is rejected at construction, not at the first
// request.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty algorithm list", Config{Algorithms: []core.Algorithm{}}},
		{"negative shards", Config{ShardsPerAlg: -1}},
		{"duplicate algorithm", Config{Algorithms: []core.Algorithm{core.GRAIN, core.GRAIN},
			ShardsPerAlg: 1, WorkersPerShard: 1}},
		{"unknown algorithm", Config{Algorithms: []core.Algorithm{core.Algorithm(99)},
			ShardsPerAlg: 1, WorkersPerShard: 1}},
		// The deprecated Lanes field accepts only 0 and core.DefaultLanes.
		{"lanes -1", Config{ShardsPerAlg: 1, WorkersPerShard: 1, Lanes: -1}},
		{"lanes 63", Config{ShardsPerAlg: 1, WorkersPerShard: 1, Lanes: 63}},
		{"lanes 256", Config{ShardsPerAlg: 1, WorkersPerShard: 1, Lanes: 256}},
		{"lanes 512", Config{ShardsPerAlg: 1, WorkersPerShard: 1, Lanes: 512}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Errorf("%+v accepted", tc.cfg)
			}
		})
	}
}

// The 400 response for an unknown algorithm must name the valid set so
// a client can self-correct, and parsing must be case-insensitive.
func TestBadAlgorithmResponseListsValidSet(t *testing.T) {
	cfg := Config{Seed: 1, ShardsPerAlg: 1, WorkersPerShard: 1, StagingBytes: 1024}
	_, ts := newTestServer(t, cfg)

	status, body, _ := get(t, ts.URL+"/bytes?alg=rot13&n=16")
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	for _, name := range core.AlgorithmNames {
		if !strings.Contains(string(body), name) {
			t.Errorf("400 body %q does not mention %q", body, name)
		}
	}

	// Case-insensitive algorithm names serve normally.
	status, _, hdr := get(t, ts.URL+"/bytes?alg=MICKEY&n=16")
	if status != http.StatusOK {
		t.Errorf("uppercase alg status %d, want 200", status)
	}
	if got := hdr.Get("X-Bsrng-Algorithm"); got != "mickey" {
		t.Errorf("algorithm header %q, want mickey", got)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s, err := New(Config{Seed: 1, ShardsPerAlg: 1, WorkersPerShard: 1, StagingBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
