package server

// Content addressing for the serving layer. Every operand is identified
// by a keyed 128-bit digest of its shape and native float64 image (see
// digester) — wire-independent, so the same matrix sent over JSON and over
// the binary wire digests identically. The digests key one structure,
// resultCache: a bounded LRU keyed by the full multiply identity
// (digest_A, digest_B, case, alpha, beta, digest_C). A hit returns the
// cached result matrix and skips admission queueing, the scheduler, and the
// engine entirely. Hits are bit-identical to a fresh compute because the
// engine itself is: GemmParallel partitions deterministically and is pinned
// thread-count-invariant, so the same operand bytes always produce the same
// result bytes — an entry never goes stale, and leaves only by LRU eviction.
//
// Cached results are always freshly-allocated matrices (mat.New or
// engine Gather output) — never pooled request storage — so retaining
// them in the cache cannot alias a recycled decode buffer.

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"srumma/internal/core"
	"srumma/internal/mat"
	"srumma/internal/obs"
)

// digest is a keyed 128-bit content address: an opaque token, equal for
// equal content within one server process and meaningless outside it.
type digest = [16]byte

// digester computes AES_k2(GCM_k1.Seal(nonce = shape, plaintext = nil,
// additionalData = the operand's float64 image)): a hash-then-PRP MAC from
// the standard library's AES alone, at GHASH speed (several times SHA-256's).
// GHASH is almost-XOR-universal, not collision resistant against someone who
// sees its output, so the GCM tag never leaves sum: seen only through the
// second key, collisions can neither be searched for offline nor solved for
// from echoed digests — what a cache shared between clients needs.
type digester struct {
	mac cipher.AEAD  // GCM under k1
	prp cipher.Block // AES under k2
}

// newDigester panics on a key that is not an AES key (a bug, never input).
func newDigester(k1, k2 []byte) *digester {
	b1, err1 := aes.NewCipher(k1)
	prp, err2 := aes.NewCipher(k2)
	if err1 != nil || err2 != nil {
		panic("server: digester keys must be AES keys")
	}
	mac, err := cipher.NewGCM(b1)
	if err != nil {
		panic(err)
	}
	return &digester{mac: mac, prp: prp}
}

// processDigester is keyed once and shared by every Server in the process.
var processDigester = func() *digester {
	var k [32]byte
	if _, err := rand.Read(k[:]); err != nil {
		panic(err)
	}
	return newDigester(k[:16], k[16:])
}()

// sum content-addresses one operand. The shape rides in the nonce (a 2x8 and
// an 8x2 with equal elements differ); the image is the host's own float64
// bytes — keys are per process, there is no other host to agree with.
func (dg *digester) sum(rows, cols int, data []float64) (d digest) {
	var buf [12 + 16]byte // nonce | tag; the one allocation (escapes through the cipher interfaces)
	binary.LittleEndian.PutUint32(buf[0:], uint32(rows))
	binary.LittleEndian.PutUint32(buf[4:], uint32(cols))
	tag := dg.mac.Seal(buf[12:12], buf[:12], nil, floatBytes(data))
	dg.prp.Encrypt(tag, tag)
	copy(d[:], tag)
	return d
}

// cacheKey is the full identity of one multiply: operand content, the
// transpose case, and the exact scalar bits. digC is the zero digest when
// beta == 0 (C unread). Scalars are keyed by their IEEE bit patterns so
// -0.0 and 0.0 — which can produce different result bits — stay distinct.
type cacheKey struct {
	a, b, cIn digest
	cs        core.Case
	alphaBits uint64
	betaBits  uint64
}

type cacheEntry struct {
	key   cacheKey
	out   mat.Matrix
	dig   digest // result digest, echoed on every hit
	bytes int64
	elem  *list.Element
}

// CacheStats is the result-cache slice of a metrics snapshot.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
}

// resultCache is the bounded LRU result store. All methods are
// goroutine-safe; the cached matrices themselves are immutable by
// convention (handlers copy-on-write into responses only in the sense of
// encoding them — nothing mutates out.Data after insert).
type resultCache struct {
	mu         sync.Mutex
	entries    map[cacheKey]*cacheEntry
	lru        *list.List // front = most recent
	maxEntries int
	maxBytes   int64
	bytes      int64

	hits, misses, evictions *obs.Counter
	gEntries, gBytes        *obs.Gauge
}

func newResultCache(maxEntries int, maxBytes int64, reg *obs.Registry) *resultCache {
	return &resultCache{
		entries:    make(map[cacheKey]*cacheEntry),
		lru:        list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		hits:       reg.Counter("server.cache.hits"),
		misses:     reg.Counter("server.cache.misses"),
		evictions:  reg.Counter("server.cache.evictions"),
		gEntries:   reg.Gauge("server.cache.entries"),
		gBytes:     reg.Gauge("server.cache.bytes"),
	}
}

// get returns the cached result for key, refreshing its LRU position.
func (c *resultCache) get(key cacheKey) (mat.Matrix, digest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return mat.Matrix{}, digest{}, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits.Inc()
	return e.out, e.dig, true
}

// put inserts (or refreshes) a result, then evicts from the LRU tail
// until both bounds hold. out must be freshly allocated — the cache takes
// ownership of its backing array.
func (c *resultCache) put(key cacheKey, out mat.Matrix, dig digest) {
	size := int64(len(out.Data)) * 8
	if c.maxBytes > 0 && size > c.maxBytes {
		return // larger than the whole cache; not worth evicting everything
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: key, out: out, dig: dig, bytes: size}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	for (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.remove(tail.Value.(*cacheEntry))
		c.evictions.Inc()
	}
	c.gEntries.Set(int64(len(c.entries)))
	c.gBytes.Set(c.bytes)
}

// remove unlinks e. Caller holds c.mu.
func (c *resultCache) remove(e *cacheEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// stats snapshots the cache counters.
func (c *resultCache) stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.gEntries.Load(),
		Bytes:     c.gBytes.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// resultKey builds the key wr's result is cached under from the digests
// admit computed. dims must already have validated the request. Called only
// when the cache is enabled.
func (wr *wireRequest) resultKey(cs core.Case) cacheKey {
	key := cacheKey{
		a:         wr.dig[0],
		b:         wr.dig[1],
		cs:        cs,
		alphaBits: math.Float64bits(wr.req.alpha()),
		betaBits:  math.Float64bits(wr.req.beta()),
	}
	// C only contributes when beta != 0 (otherwise it is never read, and
	// keying on it would split identical computations).
	if wr.req.beta() != 0 {
		key.cIn = wr.dig[2]
	}
	return key
}

func hexDigest(d digest) string { return hex.EncodeToString(d[:]) }
