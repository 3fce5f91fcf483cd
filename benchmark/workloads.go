package main

import (
	"fmt"

	"srumma"
	"srumma/internal/server"
)

// gemm is one product shape: C (m x n) = op(A) op(B) with contraction k.
type gemm struct {
	cs      srumma.Case
	m, n, k int
}

func (g gemm) flops() float64 { return 2 * float64(g.m) * float64(g.n) * float64(g.k) }

// caseName is the transpose case as the wire spells it.
func (g gemm) caseName() string { return [...]string{"NN", "TN", "NT", "TT"}[g.cs] }

func (g gemm) String() string { return fmt.Sprintf("%s %dx%dx%d", g.caseName(), g.m, g.n, g.k) }

// stored returns the stored operand shapes (the transposed cases store the
// operand the other way round).
func (g gemm) stored() (ar, ac, br, bc int) {
	ar, ac, br, bc = g.m, g.k, g.k, g.n
	if g.cs.TransA() {
		ar, ac = g.k, g.m
	}
	if g.cs.TransB() {
		br, bc = g.n, g.k
	}
	return
}

// workload is one traffic mix and the system it runs against. Every workload
// is a closed loop: callers of a GEMM library or service block on C, so each
// client issues its next operation when the previous one returns.
type workload struct {
	name, why string
	// serve selects the end-to-end path: POST /v1/multiply over loopback
	// HTTP (true) or srumma.Cluster.Multiply (false).
	serve bool
	// cfg is the server under test (serving workloads), and the server the
	// per-layer probes push a library workload's shapes through.
	cfg server.Config
	// round is the sequence every client repeats; a shape's weight is how
	// often it appears. Runs stop on round boundaries only, so the mix — and
	// with it every per-operation count — is the same whatever the run length.
	round    []gemm
	variants int // operand pairs per distinct shape
	clients  int
	// route is what X-Srumma-Route must read for a fresh (uncached) request.
	route string
	// revisit turns the round into fresh, repeat, repeat: the first request
	// of a round carries a new A[0] (new digest, cache miss), the other two
	// resend it unchanged (hits).
	revisit bool
	// ops is the nominal timed operation count (smoke tests run a hundredth
	// of it).
	ops int
	// extra are the fixed-shape layer probes that explain this workload and
	// no other; they run in its traced run only.
	extra []func(shrink int, diag metrics) error
}

func (w *workload) nprocs() int { return w.cfg.NProcs }
func (w *workload) ppn() int    { return w.cfg.ProcsPerNode }

// primary is the shape the per-layer probes run at: the round's most frequent.
func (w *workload) primary() gemm {
	count := map[gemm]int{}
	best := w.round[0]
	for _, g := range w.round {
		count[g]++
		if count[g] > count[best] {
			best = g
		}
	}
	return best
}

// reference is the bit-identity reference of the workload's results on its
// end-to-end path.
func (w *workload) reference() func(*item) (*srumma.Matrix, error) {
	if w.serve && w.route == "small" {
		return func(it *item) (*srumma.Matrix, error) {
			return serialGemm(it.g.cs, it.a, it.b, it.g.m, it.g.n)
		}
	}
	return w.planReference()
}

func (w *workload) planReference() func(*item) (*srumma.Matrix, error) {
	return func(it *item) (*srumma.Matrix, error) {
		return planReplay(it.g, it.a, it.b, w.nprocs(), w.ppn())
	}
}

func cube(n int) gemm { return gemm{srumma.NN, n, n, n} }

// flatServer is the serving configuration most workloads share: one team of
// four ranks in two shared-memory domains.
func flatServer() server.Config {
	return server.Config{NProcs: 4, ProcsPerNode: 2, QueueCap: 64}
}

func workloads() []*workload {
	ragged := func(cs srumma.Case) gemm { return gemm{cs, 1021, 509, 1531} }
	cached := flatServer()
	cached.CacheEntries = 64
	clustered := flatServer()
	clustered.Cluster, clustered.ClusterNodes = true, 2
	return []*workload{
		{
			name: "lib-nn-1024",
			why:  "library NN 1024^3 on a persistent 4-rank team: mat does ~85% of the work, so a kernel or executor gain shows here and a serving gain must not",
			cfg:  flatServer(), round: []gemm{cube(1024)}, variants: 1, clients: 1, route: "srumma", ops: 200,
			extra: []func(int, metrics) error{probeGemm1024},
		},
		{
			name: "lib-trans-ragged",
			why:  "library TN/NT/TT round-robin at prime dims 1021x509x1531: uses pack and transposed fetches differently, so an NN-square gain that costs the other cases shows",
			cfg:  flatServer(), round: []gemm{ragged(srumma.TN), ragged(srumma.NT), ragged(srumma.TT)}, variants: 1, clients: 1, route: "srumma", ops: 240,
			extra: []func(int, metrics) error{probeGemmTrans},
		},
		{
			name: "serve-small", serve: true,
			why: "HTTP small route, 64^3:96^3:128^3 weighted 1:4:1: the kernel is under a quarter of a request; decode, admission, sched dispatch and encode do the work",
			cfg: flatServer(), round: []gemm{cube(96), cube(64), cube(96), cube(96), cube(128), cube(96)}, variants: 16, clients: 2, route: "small", ops: 40000,
			extra: []func(int, metrics) error{probeGemm96, probeSched},
		},
		{
			name: "serve-srumma-384", serve: true,
			why: "HTTP srumma route 384^3, cache off: scatter, engine, gather and wire are ~75% of the request; the latency-budget and pipeline-collapse work is judged here",
			cfg: flatServer(), round: []gemm{cube(384)}, variants: 16, clients: 2, route: "srumma", ops: 2000,
		},
		{
			// Measured and reported like the others, but not listed in
			// BENCHMARK.json: with nine processes on two cores its latency
			// sits in one of two modes (~270 ms, ~400 ms) for minutes at a
			// time, which no relative bound up to 25% can hold (README).
			name: "serve-cluster-256", serve: true,
			why: "HTTP cluster route 256^3 over 2 worker-process nodes (unix transport): the cluster hop; more processes than cores, so latency and CPU cost, not scaling",
			cfg: clustered, round: []gemm{cube(256)}, variants: 8, clients: 2, route: "cluster", ops: 100,
		},
		{
			name: "serve-cache-revisit", serve: true,
			why: "HTTP 384^3 with a 64-entry result cache, each client fresh/repeat/repeat: hit ratio exactly 2/3, p50 in the hit mode, p90 in the miss mode",
			cfg: cached, round: []gemm{cube(384), cube(384), cube(384)}, variants: 4, clients: 2, route: "srumma", revisit: true, ops: 1500,
		},
		{
			name: "serve-hier-p16", serve: true,
			why: "HTTP hierarchical route 768^3 on 16 ranks in 4 groups: the only path through internal/hier, where barriers and team dispatch grow with P",
			cfg: server.Config{NProcs: 16, ProcsPerNode: 4, QueueCap: 64, Hier: true}, round: []gemm{cube(768)}, variants: 4, clients: 2, route: "srumma", ops: 400,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// item is one generated operation: operands, and for the serving path the
// request and its pre-encoded binary body.
type item struct {
	g    gemm
	a, b *srumma.Matrix
	req  *server.MultiplyRequest
	body []byte
}

// items holds a workload's generated inputs. The program under test only ever
// sees these matrices; everything about them follows from the seed.
type items struct {
	w *workload
	// byShape[g][v] is variant v of shape g, shared by all clients.
	byShape map[gemm][]*item
	// own[client][v] are private copies for the revisit stream, whose A[0]
	// each client rewrites.
	own [][]*item
}

func generate(w *workload, seed uint64) (*items, error) {
	its := &items{w: w, byShape: map[gemm][]*item{}}
	shapeNo := 0
	for _, g := range w.round {
		if _, ok := its.byShape[g]; ok {
			continue
		}
		for v := range w.variants {
			it, err := newItem(g, seed*1_000_003+uint64(shapeNo)*4096+uint64(v)*2)
			if err != nil {
				return nil, err
			}
			its.byShape[g] = append(its.byShape[g], it)
		}
		shapeNo++
	}
	if w.revisit {
		for c := range w.clients {
			var mine []*item
			for v := range w.variants {
				it, err := newItem(w.round[0], seed*1_000_003+uint64(c+1)*65536+uint64(v)*2)
				if err != nil {
					return nil, err
				}
				mine = append(mine, it)
			}
			its.own = append(its.own, mine)
		}
	}
	return its, nil
}

func newItem(g gemm, seed uint64) (*item, error) {
	ar, ac, br, bc := g.stored()
	it := &item{g: g, a: srumma.RandomMatrix(ar, ac, seed), b: srumma.RandomMatrix(br, bc, seed+1)}
	it.req = &server.MultiplyRequest{
		Case:  g.caseName(),
		ARows: ar, ACols: ac, A: it.a.Data,
		BRows: br, BCols: bc, B: it.b.Data,
	}
	return it, it.encode()
}

func (it *item) encode() (err error) {
	it.body, err = server.EncodeBinaryRequest(it.req)
	return err
}

// at returns operation i of a client's stream and whether it must be a fresh
// computation (false only for the repeats of a revisit round).
func (its *items) at(client, i int) (it *item, fresh bool) {
	w := its.w
	pos, roundNo := i%len(w.round), i/len(w.round)
	if w.revisit {
		it = its.own[client][roundNo%w.variants]
		if pos == 0 {
			// A value no request has carried before, distinct per client:
			// a new digest, so the cache cannot have it.
			it.a.Data[0] = 1 + float64(client<<20+roundNo+1)*0x1p-30
			if err := it.encode(); err != nil {
				panic(err) // the same request encoded at generation
			}
		}
		return it, pos == 0
	}
	g := w.round[pos]
	vs := its.byShape[g]
	return vs[(roundNo+pos+client*5)%len(vs)], true
}
