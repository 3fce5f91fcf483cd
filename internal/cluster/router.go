package cluster

// The shard router. Placement is by locality key: jobs with the same
// (shape, transpose case) hash to the same preferred node, so its
// persistent segment pool stays warm for exactly that shape — the repeat
// jobs of a serving workload pay zero mmap calls in steady state. If the
// preferred node is busy a job takes any free node rather than queue
// behind the one running there.

// PlaceKey describes one job for placement.
type PlaceKey struct {
	// Class is read by nothing: every job scans from its preferred node
	// for a free one. It stays because benchmark/probe_cluster.go sets it.
	Class string
	// Shape + transpose case form the locality key (the segment-pool
	// affinity domain: same key, same operand size profile).
	M, N, K int
	Case    int
}

// Locality folds the shape and case into the affinity hash. Same packing
// as the serving layer's cache locality key: M<<42 | N<<22 | K<<2 | case,
// mixed so consecutive shapes don't all land on node 0.
func (k PlaceKey) Locality() uint64 {
	v := uint64(k.M)<<42 | uint64(k.N)<<22 | uint64(k.K)<<2 | uint64(k.Case&3)
	// SplitMix64 finalizer: cheap, well-distributed over small n.
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// preferredNode is the pure placement decision: the locality-preferred
// index, skipping unhealthy nodes (wrapping scan), or -1 when every node
// is down.
func preferredNode(n int, key PlaceKey, healthy func(i int) bool) int {
	if n <= 0 {
		return -1
	}
	pref := int(key.Locality() % uint64(n))
	for off := 0; off < n; off++ {
		if i := (pref + off) % n; healthy(i) {
			return i
		}
	}
	return -1
}

// acquire picks a node for key and returns it LOCKED: the first free
// healthy node scanning from the preferred one, or, when every node is
// busy, the preferred node once it frees. With every node unhealthy the
// preferred node is used anyway — its poisoned cluster fails the job with
// the typed error the caller's retry policy expects.
func (p *Pool) acquire(key PlaceKey) *node {
	n := len(p.nodes)
	healthy := func(i int) bool { return p.nodes[i].healthy.Load() }
	pref := preferredNode(n, key, healthy)
	if pref < 0 {
		pref = int(key.Locality() % uint64(n))
	}
	for off := 0; off < n; off++ {
		nd := p.nodes[(pref+off)%n]
		if nd.healthy.Load() && nd.mu.TryLock() {
			return nd
		}
	}
	nd := p.nodes[pref]
	nd.mu.Lock()
	return nd
}
