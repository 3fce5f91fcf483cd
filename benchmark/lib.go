package main

import (
	"fmt"
	"time"

	"srumma"
)

// system is a constructed system under test: something closed-loop clients can
// issue operations against, and that can be torn down.
type system interface {
	// op issues operation i of a client's stream, times it as the caller
	// sees it, and verifies the result afterwards.
	op(client, i int) sample
	// close tears the system down and describes anything it left behind.
	close() []string
}

// libSystem is the library path: a persistent srumma.Cluster, one caller.
type libSystem struct {
	its *items
	ck  *checker
	cl  *srumma.Cluster
}

func newLibSystem(w *workload, its *items, ck *checker) (*libSystem, error) {
	cl, err := srumma.NewCluster(w.nprocs(), w.ppn(), false)
	if err != nil {
		return nil, err
	}
	if err := cl.Persist(); err != nil {
		return nil, err
	}
	return &libSystem{its, ck, cl}, nil
}

func (l *libSystem) op(client, i int) sample {
	it, _ := l.its.at(client, i)
	t0 := time.Now()
	c, rep, err := l.cl.Multiply(it.a, it.b, srumma.MultiplyOptions{Case: it.g.cs})
	s := sample{latency: time.Since(t0), flops: it.g.flops()}
	if err != nil {
		s.failed = true
		return s
	}
	s.engineSec = rep.Seconds
	l.ck.check(&s, it, c.Data, client, i)
	return s
}

func (l *libSystem) close() []string {
	var left []string
	if err := l.cl.Close(); err != nil {
		left = append(left, fmt.Sprintf("cluster close: %v", err))
	}
	return append(left, leaks(nil)...)
}

// rigSystem is the traced library path: the same operation stream through the
// benchmark-owned rank body, which can tell the layers apart.
type rigSystem struct {
	its *items
	ck  *checker
	r   *rig
	tr  *tracer
}

func (l *rigSystem) op(client, i int) sample {
	it, _ := l.its.at(client, i)
	t0 := time.Now()
	run, err := l.r.multiply(it.g, it.a, it.b, false)
	end := time.Now()
	s := sample{latency: end.Sub(t0), flops: it.g.flops()}
	if err != nil {
		s.failed = true
		return s
	}
	wait, barrier, sum := timeShares(run.stats)
	_, mult, _ := run.phases()
	root := l.tr.reserve()
	l.tr.add(span{ID: root, Op: root, Name: "op", Lane: "caller", Start: t0, End: end, Args: map[string]float64{
		"core_multiply_ms": mult, "wait_share": wait, "barrier_share": barrier,
		"bytes_remote": float64(sum.BytesRemote), "bytes_shared": float64(sum.BytesShared),
	}})
	run.record(l.tr, root, "caller")
	l.ck.check(&s, it, run.c.Data, client, i)
	return s
}

func (l *rigSystem) close() []string {
	if err := l.r.close(); err != nil {
		return []string{fmt.Sprintf("team close: %v", err)}
	}
	return nil
}
