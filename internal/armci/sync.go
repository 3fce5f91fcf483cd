package armci

import (
	"sync"

	"srumma/internal/mat"
	"srumma/internal/rt"
)

// abortError is the panic payload raised in ranks that were unblocked
// because some other rank failed. Run reports the original failure in
// preference to these secondary unwinds.
type abortError struct{}

func (abortError) Error() string { return "armci: aborted because another rank failed" }

// barrier is a reusable generation barrier. abort releases everyone forever
// (used when a rank panics so the remaining ranks do not hang the test
// binary; they will typically then panic themselves, which Run also
// records).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     int
	aborted bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic(abortError{})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for b.gen == gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		panic(abortError{})
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// msgKey identifies a matching queue: (source, destination, tag).
type msgKey struct {
	src, dst, tag int
}

// pendingRecv is a posted receive waiting for a matching send.
type pendingRecv struct {
	dst  []float64
	done chan struct{}
}

// mailbox implements eager two-sided matching with MPI's non-overtaking
// order per (src, dst, tag) triple. Sends buffer their payload, so a send
// never blocks — which is the behaviour of the eager protocol real MPIs use
// for the message sizes the real engine is exercised at. Buffered payloads
// live in buffers from the pool (mat.GetBuf) and queue pops shift in place,
// so steady-state traffic touches the allocator only when a queue grows
// past its high-water mark.
type mailbox struct {
	mu      sync.Mutex
	sends   map[msgKey][]*mat.Buf
	recvs   map[msgKey][]*pendingRecv
	aborted bool
}

func newMailbox() *mailbox {
	return &mailbox{
		sends: make(map[msgKey][]*mat.Buf),
		recvs: make(map[msgKey][]*pendingRecv),
	}
}

func (m *mailbox) send(k msgKey, payload []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted {
		panic(abortError{})
	}
	if q := m.recvs[k]; len(q) > 0 {
		r := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		m.recvs[k] = q[:len(q)-1]
		if len(r.dst) != len(payload) {
			panic("armci: send/recv length mismatch")
		}
		copy(r.dst, payload)
		close(r.done)
		return
	}
	b := mat.GetBuf(len(payload))
	copy(b.Data, payload)
	m.sends[k] = append(m.sends[k], b)
}

func (m *mailbox) recv(k msgKey, dst []float64) rt.Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.aborted {
		panic(abortError{})
	}
	if q := m.sends[k]; len(q) > 0 {
		b := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		m.sends[k] = q[:len(q)-1]
		if len(dst) != len(b.Data) {
			panic("armci: send/recv length mismatch")
		}
		copy(dst, b.Data)
		mat.PutBuf(b)
		return doneHandle{}
	}
	h := &chanHandle{ch: make(chan struct{})}
	m.recvs[k] = append(m.recvs[k], &pendingRecv{dst: dst, done: h.ch})
	return h
}

func (m *mailbox) abort() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborted = true
	for _, q := range m.recvs {
		for _, r := range q {
			close(r.done)
		}
	}
	m.recvs = make(map[msgKey][]*pendingRecv)
}
