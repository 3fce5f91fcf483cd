package ga

// Counter is the Global Arrays dynamic load-balancing idiom (GA read_inc /
// NGA_Read_inc): a shared atomic counter, usually living on rank 0, that
// every process increments to claim the next unit of work. NWChem-era GA
// applications use exactly this pattern to self-schedule task pools around
// their ga_dgemm calls.

import "srumma/internal/rt"

// Counter is a distributed atomic counter. Create collectively with
// NewCounter; Next is one-sided and may be called by any rank at any rate.
type Counter struct {
	e    *Env
	glob rt.Global
	home int
}

// NewCounter collectively creates a counter starting at zero, homed on
// rank 0.
func (e *Env) NewCounter() *Counter {
	elems := 0
	if e.ctx.Rank() == 0 {
		elems = 1
	}
	g := e.ctx.Malloc(elems)
	return &Counter{e: e, glob: g, home: 0}
}

// Next atomically claims and returns the next value (0, 1, 2, ...).
func (ct *Counter) Next() int {
	return int(ct.e.upd.FetchAdd(ct.glob, ct.home, 0, 1))
}

// Destroy collectively releases the counter.
func (ct *Counter) Destroy() { ct.e.ctx.Free(ct.glob) }
