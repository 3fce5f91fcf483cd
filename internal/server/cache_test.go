package server

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"testing"

	"srumma/internal/core"
	"srumma/internal/mat"
	"srumma/internal/obs"
	"srumma/internal/sched"
)

// bitsEqual compares float slices by IEEE bit pattern — the cache's
// bit-identity contract, stricter than numeric equality.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCacheHitBitIdentical pins the headline guarantee: a cache hit serves
// exactly the bytes a fresh compute produced — same result digest, same
// float bits — while skipping the engine, and the digests are
// wire-independent (a JSON-filled entry hits from the binary wire).
func TestCacheHitBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 16})
	req := randReq(24, 32, 16, 900)
	req.ID = "fresh"

	var fresh MultiplyResponse
	code, _ := post(t, s, req, &fresh)
	if code != http.StatusOK {
		t.Fatalf("fresh status %d", code)
	}
	if fresh.Cached || fresh.Route == routeCache {
		t.Fatalf("first request served from cache: %+v", fresh)
	}
	if fresh.Digest == "" || fresh.DigestA == "" || fresh.DigestB == "" {
		t.Fatalf("fresh response missing digest chain: %+v", fresh)
	}

	req.ID = "hit"
	var hit MultiplyResponse
	code, _ = post(t, s, req, &hit)
	if code != http.StatusOK {
		t.Fatalf("hit status %d", code)
	}
	if !hit.Cached || hit.Route != routeCache {
		t.Fatalf("identical request not served from cache: route %q cached %v", hit.Route, hit.Cached)
	}
	if hit.Digest != fresh.Digest || hit.DigestA != fresh.DigestA || hit.DigestB != fresh.DigestB {
		t.Fatalf("hit digest chain differs from fresh:\n%+v\n%+v", fresh, hit)
	}
	if !bitsEqual(fresh.C, hit.C) {
		t.Fatal("cache hit is not bit-identical to the fresh compute")
	}

	// Same operands over the binary wire: digests are computed over the
	// decoded operand, not the wire encoding, so this hits too.
	w := binPost(t, s, req, false, "")
	if w.Code != http.StatusOK {
		t.Fatalf("binary status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Srumma-Cached"); got != "1" {
		t.Fatalf("binary-wire repeat of a JSON-cached request missed the cache (X-Srumma-Cached %q)", got)
	}
	if got := w.Header().Get("X-Srumma-Digest"); got != fresh.Digest {
		t.Fatalf("binary hit digest %q, want %q", got, fresh.Digest)
	}
	rows, cols, c := decodeBinRecorder(t, w)
	if rows != fresh.Rows || cols != fresh.Cols || !bitsEqual(fresh.C, c) {
		t.Fatal("binary-wire cache hit is not bit-identical to the fresh compute")
	}

	m := s.Metrics()
	if m.Cache == nil || m.Cache.Hits != 2 || m.Cache.Misses != 1 {
		t.Fatalf("cache stats: %+v", m.Cache)
	}
}

// TestCacheHitSRUMMARoute repeats the bit-identity pin on the distributed
// route: the cached Gather output must match a fresh engine run bit for
// bit.
func TestCacheHitSRUMMARoute(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, SmallMNK: 1, CacheEntries: 4})
	req := randReq(48, 32, 40, 901)
	var fresh, hit MultiplyResponse
	if code, _ := post(t, s, req, &fresh); code != http.StatusOK {
		t.Fatalf("fresh status %d", code)
	}
	if fresh.Route != routeSRUMMA {
		t.Fatalf("route %q, want %q", fresh.Route, routeSRUMMA)
	}
	if code, _ := post(t, s, req, &hit); code != http.StatusOK {
		t.Fatalf("hit status %d", code)
	}
	if hit.Route != routeCache || !bitsEqual(fresh.C, hit.C) {
		t.Fatalf("SRUMMA-route cache hit not bit-identical (route %q)", hit.Route)
	}
	checkResult(t, hit, wantGemm(t, req), 1e-10)
}

// TestCacheKeyDiscriminates: the key covers operands, case, scalars and
// input C, so near-identical requests do not collide.
func TestCacheKeyDiscriminates(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 16})
	req := randReq(8, 8, 8, 902)
	var r1, r2, r3 MultiplyResponse
	post(t, s, req, &r1)

	alpha := 2.0
	req2 := req
	req2.Alpha = &alpha
	if code, _ := post(t, s, req2, &r2); code != http.StatusOK {
		t.Fatal("alpha variant failed")
	}
	if r2.Cached {
		t.Fatal("different alpha hit the same cache entry")
	}

	beta := 1.0
	req3 := req
	req3.Beta = &beta
	req3.C = make([]float64, 64)
	for i := range req3.C {
		req3.C[i] = float64(i)
	}
	if code, _ := post(t, s, req3, &r3); code != http.StatusOK {
		t.Fatal("beta variant failed")
	}
	if r3.Cached {
		t.Fatal("beta/C variant hit the same cache entry")
	}
	if r3.DigestCIn == "" {
		t.Fatal("beta != 0 response missing digest_c_in")
	}

	// The original request still hits.
	var again MultiplyResponse
	post(t, s, req, &again)
	if !again.Cached {
		t.Fatal("original request evicted or mis-keyed")
	}
}

func newTestCache(entries int, bytes int64) *resultCache {
	return newResultCache(entries, bytes, obs.NewRegistry())
}

func matOf(vals ...float64) mat.Matrix {
	return mat.Matrix{Rows: 1, Cols: len(vals), Stride: len(vals), Data: vals}
}

func TestResultCacheLRU(t *testing.T) {
	c := newTestCache(2, 0)
	k := func(i byte) cacheKey { return cacheKey{a: digest{i}} }
	c.put(k(1), matOf(1), digest{1})
	c.put(k(2), matOf(2), digest{2})
	if _, _, ok := c.get(k(1)); !ok { // refresh 1: now 2 is LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), matOf(3), digest{3}) // evicts 2
	if _, _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, _, ok := c.get(k(1)); !ok {
		t.Fatal("recently-used entry 1 evicted")
	}
	if st := c.stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries %d, evictions %d; want 2 and 1", st.Entries, st.Evictions)
	}
}

func TestResultCacheByteBound(t *testing.T) {
	c := newTestCache(0, 100) // 100 bytes = 12 floats max resident
	k := func(i byte) cacheKey { return cacheKey{a: digest{i}} }
	c.put(k(1), matOf(make([]float64, 8)...), digest{1}) // 64 bytes
	c.put(k(2), matOf(make([]float64, 8)...), digest{2}) // 128 total: evicts 1
	if _, _, ok := c.get(k(1)); ok {
		t.Fatal("byte bound did not evict")
	}
	if _, _, ok := c.get(k(2)); !ok {
		t.Fatal("newest entry evicted instead of oldest")
	}
	// An entry larger than the whole cache is refused outright.
	c.put(k(3), matOf(make([]float64, 64)...), digest{3})
	if _, _, ok := c.get(k(3)); ok {
		t.Fatal("oversized entry retained")
	}
}

// TestAbandonedRequestWithholdsItsBuffers: a request answered 504 while its
// dispatch is still held never returns its operand buffers to operandBufs —
// the dispatch may yet read them — with the cache off and on.
func TestAbandonedRequestWithholdsItsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("pool recycling assertions are meaningless under the race detector")
	}
	// A collection empties sync.Pools, and a recycled buffer with it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, entries := range []int{0, 4} {
		s := newTestServer(t, Config{NProcs: 4, Teams: 1, CacheEntries: entries})
		held := make(chan [2]uintptr, 1)
		rel := make(chan struct{})
		var once sync.Once
		t.Cleanup(func() { once.Do(func() { close(rel) }) }) // before the server's shutdown
		s.setBatchHook(func(tk *sched.Task) {
			job := tk.Payload.(*schedJob)
			held <- [2]uintptr{uintptrOf(job.req.A), uintptrOf(job.req.B)}
			<-rel
		})
		req := blockerReq()
		req.TimeoutMillis = 50
		if w := binPost(t, s, req, false, ""); w.Code != http.StatusGatewayTimeout {
			t.Fatalf("cache entries %d: status %d, want 504", entries, w.Code)
		}
		ops := <-held
		for i := 0; i < 4; i++ {
			if got := uintptrOf(operandBufs.get(req.ARows * req.ACols).data); got == ops[0] || got == ops[1] {
				t.Fatalf("cache entries %d: an abandoned request's operand buffer came back from the pool", entries)
			}
		}
		once.Do(func() { close(rel) })
	}
}

// TestIdenticalOperandsDigestEqually: a request whose A and B are the same
// matrix echoes one digest for both, on either wire.
func TestIdenticalOperandsDigestEqually(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 4})
	sq := mat.Random(16, 16, 77)
	req := MultiplyRequest{
		ARows: 16, ACols: 16, A: sq.Data,
		BRows: 16, BCols: 16, B: sq.Data,
	}
	var resp MultiplyResponse
	if code, _ := post(t, s, req, &resp); code != http.StatusOK {
		t.Fatal("request failed")
	}
	if resp.DigestA == "" || resp.DigestA != resp.DigestB {
		t.Fatalf("identical operands digested differently: %q vs %q", resp.DigestA, resp.DigestB)
	}
	w := binPost(t, s, req, false, "")
	if a, b := w.Header().Get("X-Srumma-Digest-A"), w.Header().Get("X-Srumma-Digest-B"); a != resp.DigestA || b != a {
		t.Fatalf("binary wire digests %q, %q; want both %q", a, b, resp.DigestA)
	}
}

// TestResultKeyAllocatesOnlyDigests: decoding a binary request with content
// addressing on and building its cache key allocate nothing beyond the two
// digests' nonce+tag scratch — the operands stay where they were decoded.
func TestResultKeyAllocatesOnlyDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	req := randReq(32, 32, 32, 801)
	body, err := EncodeBinaryRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	var wr wireRequest
	run := func() {
		rd.Reset(body)
		wr = wireRequest{}
		if werr := decodeBinaryRequest(rd, int64(len(body)), 4096, &operandBufs, processDigester, &wr); werr != nil {
			t.Fatal(werr)
		}
		if key := wr.resultKey(core.NN); key.a != wr.dig[0] || key.b != wr.dig[1] {
			t.Fatal("key does not carry the operand digests")
		}
		wr.release()
	}
	for i := 0; i < 3; i++ {
		run() // warm the pool's size class
	}
	if avg := testing.AllocsPerRun(100, run); avg > 2 {
		t.Fatalf("decode + cache key allocates %.1f objects/op, want <= 2 (one per digest)", avg)
	}
}

// TestDigestCacheLookupAllocs pins the cache probe hot path: digesting two
// operands and probing the LRU allocates O(1) small objects, independent
// of matrix size.
func TestDigestCacheLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a := mat.Random(64, 64, 5)
	b := mat.Random(64, 64, 6)
	c := newTestCache(8, 0)
	key := cacheKey{a: processDigester.sum(64, 64, a.Data), b: processDigester.sum(64, 64, b.Data)}
	c.put(key, matOf(1, 2, 3), digest{1})
	avg := testing.AllocsPerRun(100, func() {
		k := cacheKey{a: processDigester.sum(64, 64, a.Data), b: processDigester.sum(64, 64, b.Data)}
		if _, _, ok := c.get(k); !ok {
			t.Fatal("lookup missed")
		}
	})
	// The only tolerated allocation is the nonce+tag scratch that escapes
	// through the cipher interfaces (one per digest).
	if avg > 2 {
		t.Fatalf("digest+lookup allocates %.1f objects/op, want <= 2", avg)
	}
}

// TestMetricsWireAndCacheSnapshot: the /metrics JSON round-trips the new
// wire and cache sections (srumma-load parses this shape).
func TestMetricsWireAndCacheSnapshot(t *testing.T) {
	s := newTestServer(t, Config{NProcs: 4, CacheEntries: 4})
	req := randReq(8, 8, 8, 903)
	post(t, s, req, nil)
	post(t, s, req, nil)
	binPost(t, s, req, false, "")

	raw, err := json.Marshal(s.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache == nil || snap.Cache.Hits != 2 || snap.Cache.Misses != 1 {
		t.Fatalf("cache section: %+v", snap.Cache)
	}
	if snap.Cache.HitRate < 0.6 || snap.Cache.HitRate > 0.7 {
		t.Fatalf("hit rate %g, want 2/3", snap.Cache.HitRate)
	}
	jw, bw := snap.Wire[wireJSON], snap.Wire[wireBinary]
	if jw.Requests != 2 || bw.Requests != 1 {
		t.Fatalf("wire request counts: json %d binary %d", jw.Requests, bw.Requests)
	}
	if jw.BytesIn == 0 || jw.BytesOut == 0 || bw.BytesIn == 0 || bw.BytesOut == 0 {
		t.Fatalf("wire byte counters empty: %+v %+v", jw, bw)
	}
	// The binary body is dense: 3 8x8 float64 payloads' worth of JSON text
	// is strictly larger than the 48-byte header + 1024 bytes of floats.
	if bw.BytesInP50 >= jw.BytesInP50 {
		t.Fatalf("binary request body (%g) not smaller than JSON (%g)", bw.BytesInP50, jw.BytesInP50)
	}
}

// flipBit returns a copy of v with one bit of element pos inverted.
func flipBit(v []float64, pos int, bit uint) []float64 {
	out := append([]float64(nil), v...)
	out[pos] = math.Float64frombits(math.Float64bits(out[pos]) ^ 1<<bit)
	return out
}

// TestDigestProperties pins what the cache relies on:
// equal content digests equally, and shape, every element position and the
// sign of zero are all bound.
func TestDigestProperties(t *testing.T) {
	dg := processDigester
	elems := mat.Random(2, 8, 11).Data
	if dg.sum(2, 8, elems) != dg.sum(2, 8, append([]float64(nil), elems...)) {
		t.Fatal("equal content digested differently")
	}
	if dg.sum(2, 8, elems) == dg.sum(8, 2, elems) {
		t.Fatal("2x8 and 8x2 with equal elements share a digest: shape is not bound")
	}
	if dg.sum(1, 1, []float64{0}) == dg.sum(1, 1, []float64{math.Copysign(0, -1)}) {
		t.Fatal("0.0 and -0.0 share a digest")
	}
	// One flipped bit anywhere moves the digest: a length-1 operand, one
	// shorter than a GHASH block pair, and one long enough for the 8-block
	// assembly stride plus a ragged tail.
	for _, n := range []int{1, 3, 16, 389} {
		base := mat.Random(1, n, uint64(20+n)).Data
		want := dg.sum(1, n, base)
		for _, pos := range []int{0, n / 2, n - 1} {
			for _, bit := range []uint{0, 29, 52, 63} {
				if dg.sum(1, n, flipBit(base, pos, bit)) == want {
					t.Fatalf("n=%d: flipping bit %d of element %d left the digest unchanged", n, bit, pos)
				}
			}
		}
	}
}

// TestDigestKeyedAndNeverTheRawTag builds digesters from fixed keys: two
// keyings disagree on the same content, and what sum returns is the GCM tag
// seen through the second key — computed here independently — never the tag
// itself, which would let a client solve for GHASH collisions.
func TestDigestKeyedAndNeverTheRawTag(t *testing.T) {
	k1, k2 := []byte("0123456789abcdef"), []byte("fedcba9876543210")
	data := mat.Random(5, 7, 31).Data
	got := newDigester(k1, k2).sum(5, 7, data)
	if other := newDigester(k2, k1).sum(5, 7, data); other == got {
		t.Fatal("digesters under different keys agree")
	}

	blk, err := aes.NewCipher(k1)
	if err != nil {
		t.Fatal(err)
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 12)
	binary.LittleEndian.PutUint32(nonce[0:], 5)
	binary.LittleEndian.PutUint32(nonce[4:], 7)
	tag := gcm.Seal(nil, nonce, nil, floatBytes(data))
	if bytes.Equal(got[:], tag) {
		t.Fatal("digest is the raw GCM tag")
	}
	prp, err := aes.NewCipher(k2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16)
	prp.Encrypt(want, tag)
	if !bytes.Equal(got[:], want) {
		t.Fatalf("digest %x, want AES_k2(tag) = %x", got, want)
	}
	if h := hexDigest(got); len(h) != 32 {
		t.Fatalf("hex digest %q: %d chars, want 32", h, len(h))
	}
}

// TestDigestAcrossWiresAndServers: within one process the same matrix
// digests identically whether it arrived as JSON on one Server or as binary
// on another, and so does the (deterministic) result.
func TestDigestAcrossWiresAndServers(t *testing.T) {
	s1 := newTestServer(t, Config{NProcs: 4, CacheEntries: 4})
	s2 := newTestServer(t, Config{NProcs: 4, CacheEntries: 4})
	req := randReq(12, 9, 7, 904)
	beta := 0.5
	req.Beta = &beta
	req.C = mat.Random(12, 7, 905).Data

	var viaJSON MultiplyResponse
	if code, _ := post(t, s1, req, &viaJSON); code != http.StatusOK {
		t.Fatalf("json status %d", code)
	}
	w := binPost(t, s2, req, false, "")
	if w.Code != http.StatusOK {
		t.Fatalf("binary status %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("X-Srumma-Cached") != "" {
		t.Fatal("second Server answered from the first one's cache")
	}
	for _, p := range []struct{ name, header, json string }{
		{"a", "X-Srumma-Digest-A", viaJSON.DigestA},
		{"b", "X-Srumma-Digest-B", viaJSON.DigestB},
		{"c_in", "X-Srumma-Digest-C-In", viaJSON.DigestCIn},
		{"result", "X-Srumma-Digest", viaJSON.Digest},
	} {
		if got := w.Header().Get(p.header); len(got) != 32 || got != p.json {
			t.Fatalf("digest %s: binary wire on another Server says %q, JSON wire said %q (want equal 32-char tokens)", p.name, got, p.json)
		}
	}
}

// TestStageHistograms: the server reports what decode, validation and
// content addressing cost from inside; the digest stage records nothing
// when the cache is off.
func TestStageHistograms(t *testing.T) {
	for _, entries := range []int{4, 0} {
		s := newTestServer(t, Config{NProcs: 4, CacheEntries: entries})
		if w := binPost(t, s, randReq(16, 16, 16, 906), false, ""); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		want := map[string]uint64{"decode": 1, "validate": 1, "digest": 1}
		if entries == 0 {
			want["digest"] = 0
		}
		stages := s.Metrics().Stages
		for name, n := range want {
			if got := stages[name].Count; got != n {
				t.Fatalf("cache entries %d: stage %q has %d samples, want %d (%+v)", entries, name, got, n, stages)
			}
		}
		var prom bytes.Buffer
		if err := obs.WritePrometheus(&prom, s.met.reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for name, n := range want {
			line := fmt.Sprintf("\nserver_%s_ms_count %d\n", name, n)
			if !bytes.Contains(prom.Bytes(), []byte(line)) {
				t.Fatalf("cache entries %d: Prometheus surface lacks %q", entries, line)
			}
		}
	}
}
