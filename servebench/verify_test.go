package main

import (
	"context"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// testNode is a grain-only node with an explicit shard layout.
func testNode(t *testing.T) (*server.Server, server.Config) {
	t.Helper()
	cfg := server.Config{Seed: 77, Algorithms: []core.Algorithm{core.GRAIN}, ShardsPerAlg: 2, WorkersPerShard: 1}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, cfg
}

func serve(t *testing.T, h http.Handler, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	if rec.Code/100 != 2 {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec
}

// pooledRecord fetches n pooled bytes and records them as the client
// would, with flip applied to the body first.
func pooledRecord(t *testing.T, h http.Handler, n int, ordered bool, flip bool) *record {
	rec := serve(t, h, http.MethodGet, "/bytes?alg=grain&n="+strconv.Itoa(n))
	shard, err := strconv.Atoi(rec.Header().Get("X-Bsrng-Shard"))
	if err != nil {
		t.Fatal(err)
	}
	body := rec.Body.Bytes()
	if flip {
		body[len(body)/2] ^= 0x10
	}
	return &record{Alg: core.GRAIN, Shard: shard, Want: n, Size: len(body),
		CRC: crc32.Checksum(body, castagnoli), Ordered: ordered}
}

func countBad(bad []bool) (n int) {
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

func TestVerifyRejectsOneFlippedPooledByte(t *testing.T) {
	for _, flipAt := range []int{-1, 0, 5} { // -1: nothing flipped; 0: a probe
		srv, cfg := testNode(t)
		h := srv.Handler()
		var recs []*record
		for i := 0; i < 2; i++ { // probes: one per shard, in order
			r := pooledRecord(t, h, 1, true, flipAt == len(recs))
			r.Seq = i
			recs = append(recs, r)
		}
		for i := 0; i < 8; i++ {
			recs = append(recs, pooledRecord(t, h, 4096, false, flipAt == len(recs)))
		}
		// The client cannot observe the order in which a shard served
		// concurrent requests; verification must not depend on it.
		for i, j := 2, len(recs)-1; i < j; i, j = i+1, j-1 {
			recs[i], recs[j] = recs[j], recs[i]
		}
		bad, err := verifier{shape: shapeOf(cfg)}.verify(recs)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if flipAt < 0 {
			want = 0
		}
		if got := countBad(bad); got != want {
			t.Errorf("flip at %d: %d records rejected, want %d", flipAt, got, want)
		}
	}
}

func TestVerifyRejectsOneFlippedLeasedByte(t *testing.T) {
	srv, cfg := testNode(t)
	h := srv.Handler()
	var recs []*record
	for i := 0; i < 3; i++ {
		var doc struct {
			ID string `json:"id"`
		}
		rec := serve(t, h, http.MethodPost, "/lease?alg=grain&segments=32")
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		body := serve(t, h, http.MethodGet, "/stream?lease="+url.QueryEscape(doc.ID)).Body.Bytes()
		if len(body) != leaseBytes {
			t.Fatalf("lease stream: %d bytes, want %d", len(body), leaseBytes)
		}
		if i == 1 {
			body[leaseBytes-1] ^= 0x01
		}
		l, err := server.DecodeLeaseToken(doc.ID)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, &record{Alg: core.GRAIN, Shard: -1, Lease: l, Leased: true,
			Want: leaseBytes, Size: len(body), CRC: crc32.Checksum(body, castagnoli)})
	}
	bad, err := verifier{shape: shapeOf(cfg)}.verify(recs)
	if err != nil {
		t.Fatal(err)
	}
	if countBad(bad) != 1 || !bad[1] {
		t.Errorf("rejected %v, want only the flipped lease (index 1)", bad)
	}
}

func TestVerifySkipsFailedRecords(t *testing.T) {
	recs := []*record{{Alg: core.GRAIN, Shard: 0, Want: 10, Fail: failStatus, Status: 503}}
	bad, err := verifier{shape: shapeOf(server.Config{Seed: 1})}.verify(recs)
	if err != nil || bad[0] {
		t.Fatalf("verify(failed record) = %v, %v; want it left to the failure count", bad, err)
	}
}
