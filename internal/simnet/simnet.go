// Package simnet models a cluster interconnect on top of the vtime kernel.
// It is the substitute for the paper's physical networks (Myrinet-2000, the
// IBM SP colony switch, NUMAlink, the Cray X1 fabric): a fluid-flow model in
// which every node has an egress NIC port, an ingress NIC port and a memory
// port, each with a fixed bandwidth shared equally among the transfers
// currently using it.
//
// The equal-share-per-port rule is what reproduces the paper's contention
// argument for the diagonal-shift ordering (Figure 4): four processes on one
// node all fetching from the same remote node divide that node's egress
// bandwidth by four, while the shifted pattern gives each a full link.
package simnet

import (
	"fmt"

	"srumma/internal/vtime"
)

// Config describes the modeled fabric.
type Config struct {
	Nodes       int
	NodeBW      float64    // bytes/s per NIC direction
	NodeLatency vtime.Time // one-way inter-node latency
	MemBW       float64    // bytes/s of a node's memory-copy port
	MemLatency  vtime.Time // latency of starting an intra-node copy
	// BisectionBW, when positive, caps the aggregate bandwidth of ALL
	// inter-node traffic (a shared-switch bisection constraint; the IBM
	// SP's colony switch is not a full crossbar). 0 = unconstrained.
	BisectionBW float64
}

// Net is a simulated interconnect. All methods must be called from kernel
// context or while holding a process turn (the usual vtime discipline).
type Net struct {
	k      *vtime.Kernel
	cfg    Config
	nodes  []*node
	fabric *port // nil unless BisectionBW > 0
}

type node struct {
	egress, ingress, mem *port
	bytesIn, bytesOut    int64
}

// port is a bandwidth resource shared equally by its active flows. Flows are
// kept in a slice (not a map) so recomputation order — and therefore event
// scheduling order — is deterministic.
type port struct {
	bw    float64
	flows []*flow
}

func (p *port) add(f *flow) { p.flows = append(p.flows, f) }

func (p *port) remove(f *flow) {
	for i, g := range p.flows {
		if g == f {
			p.flows = append(p.flows[:i], p.flows[i+1:]...)
			return
		}
	}
	panic("simnet: removing flow not on port")
}

// share returns the per-flow bandwidth of this port.
func (p *port) share() float64 { return p.bw / float64(len(p.flows)) }

type flow struct {
	net       *Net
	ports     []*port
	remaining float64 // bytes left to deliver
	rate      float64 // current bytes/s
	rateCap   float64 // 0 = uncapped
	lastT     vtime.Time
	done      *vtime.Handle
	version   int
	active    bool
}

// New builds a network model. It panics on non-positive bandwidths or node
// counts, which are always configuration bugs.
func New(k *vtime.Kernel, cfg Config) *Net {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("simnet: %d nodes", cfg.Nodes))
	}
	if cfg.NodeBW <= 0 || cfg.MemBW <= 0 {
		panic(fmt.Sprintf("simnet: non-positive bandwidth (net %g, mem %g)", cfg.NodeBW, cfg.MemBW))
	}
	n := &Net{k: k, cfg: cfg, nodes: make([]*node, cfg.Nodes)}
	if cfg.BisectionBW > 0 {
		n.fabric = &port{bw: cfg.BisectionBW}
	}
	for i := range n.nodes {
		n.nodes[i] = &node{
			egress:  &port{bw: cfg.NodeBW},
			ingress: &port{bw: cfg.NodeBW},
			mem:     &port{bw: cfg.MemBW},
		}
	}
	return n
}

// Config returns the model parameters.
func (n *Net) Config() Config { return n.cfg }

// Transfer starts moving `bytes` from node src to node dst and returns a
// handle that fires when the last byte lands. extraLatency is added to the
// model's base latency (use it for protocol overheads such as an RMA
// request/response or a rendezvous handshake). rateCap, when positive,
// bounds the flow below its fair share — this models non-zero-copy
// protocols whose staging copies throttle the wire rate.
//
// An intra-node transfer (src == dst) uses the node's memory port and the
// memory latency instead of the NIC ports.
func (n *Net) Transfer(src, dst int, bytes int64, extraLatency vtime.Time, rateCap float64) *vtime.Handle {
	if src < 0 || src >= n.cfg.Nodes || dst < 0 || dst >= n.cfg.Nodes {
		panic(fmt.Sprintf("simnet: transfer %d->%d outside %d nodes", src, dst, n.cfg.Nodes))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative transfer size %d", bytes))
	}
	done := n.k.NewHandle()
	var lat vtime.Time
	var ports []*port
	if src == dst {
		lat = n.cfg.MemLatency + extraLatency
		ports = []*port{n.nodes[src].mem}
	} else {
		lat = n.cfg.NodeLatency + extraLatency
		ports = []*port{n.nodes[src].egress, n.nodes[dst].ingress}
		if n.fabric != nil {
			ports = append(ports, n.fabric)
		}
	}
	n.nodes[src].bytesOut += bytes
	n.nodes[dst].bytesIn += bytes
	if bytes == 0 {
		n.k.After(lat, done.Fire)
		return done
	}
	f := &flow{net: n, ports: ports, remaining: float64(bytes), rateCap: rateCap, done: done}
	n.k.After(lat, func() { n.activate(f) })
	return done
}

func (n *Net) activate(f *flow) {
	f.active = true
	f.lastT = n.k.Now()
	for _, p := range f.ports {
		p.add(f)
	}
	n.recomputePorts(f.ports)
}

// settle charges a flow's progress at its old rate up to the current time.
func (f *flow) settle(now vtime.Time) {
	if !f.active {
		return
	}
	elapsed := (now - f.lastT).Seconds()
	f.remaining -= f.rate * elapsed
	if f.remaining < 0 {
		f.remaining = 0
	}
	f.lastT = now
}

// recomputePorts re-rates every flow touching the given ports and
// reschedules their completion events. Each affected flow is settled first
// so past progress is preserved across rate changes.
func (n *Net) recomputePorts(ports []*port) {
	now := n.k.Now()
	seen := make([]*flow, 0, 8)
	for _, p := range ports {
		for _, f := range p.flows {
			dup := false
			for _, s := range seen {
				if s == f {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, f)
			}
		}
	}
	for _, f := range seen {
		f.settle(now)
		rate := f.ports[0].share()
		for _, p := range f.ports[1:] {
			if s := p.share(); s < rate {
				rate = s
			}
		}
		if f.rateCap > 0 && f.rateCap < rate {
			rate = f.rateCap
		}
		f.rate = rate
		f.version++
		v := f.version
		dt := vtime.FromSeconds(f.remaining / rate)
		n.k.After(dt, func() {
			if f.active && f.version == v {
				n.finish(f)
			}
		})
	}
}

func (n *Net) finish(f *flow) {
	f.settle(n.k.Now())
	f.active = false
	for _, p := range f.ports {
		p.remove(f)
	}
	f.done.Fire()
	n.recomputePorts(f.ports)
}

// BytesIn returns the total bytes delivered to node i since construction.
func (n *Net) BytesIn(i int) int64 { return n.nodes[i].bytesIn }

// BytesOut returns the total bytes sourced from node i since construction.
func (n *Net) BytesOut(i int) int64 { return n.nodes[i].bytesOut }

// ActiveFlows returns how many transfers are currently using any port of
// node i (diagnostic; used by contention tests).
func (n *Net) ActiveFlows(i int) int {
	nd := n.nodes[i]
	return len(nd.egress.flows) + len(nd.ingress.flows) + len(nd.mem.flows)
}
