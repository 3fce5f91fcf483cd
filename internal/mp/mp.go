// Package mp implements the message-passing collectives the SUMMA, pdgemm,
// Fox and Cannon baselines need, built portably on rt.Ctx point-to-point
// calls so they run on both the real and the virtual-time engines. There is
// one broadcast, RingBcast: the whole message passed around the group ring,
// unsegmented, as every baseline calls it.
package mp

import "fmt"

import "srumma/internal/rt"

// indexOf returns the position of rank in group, or -1.
func indexOf(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	return -1
}

// RingBcast broadcasts n elements of buf starting at off from root around
// the group ring: each rank receives the whole message from its predecessor
// and forwards it to its successor. This is the broadcast SUMMA uses for its
// panels. All group members must call it with the same root, group, n and
// tag; buf is the source on root and the destination elsewhere. tag must not
// collide with other traffic between the same rank pairs.
func RingBcast(c rt.Ctx, root int, group []int, buf rt.Buffer, off, n, tag int) {
	me := indexOf(group, c.Rank())
	if me < 0 {
		panic(fmt.Sprintf("mp: rank %d not in ring group %v", c.Rank(), group))
	}
	rootIdx := indexOf(group, root)
	if rootIdx < 0 {
		panic(fmt.Sprintf("mp: root %d not in ring group %v", root, group))
	}
	size := len(group)
	if size == 1 || n == 0 {
		return
	}
	vrank := (me - rootIdx + size) % size
	if vrank != 0 {
		c.Recv(group[(vrank-1+rootIdx)%size], tag, buf, off, n)
	}
	if vrank != size-1 {
		c.Send(group[(vrank+1+rootIdx)%size], tag, buf, off, n)
	}
}

// Allreduce sums n elements of buf (at off) across every rank in group,
// leaving the result in every rank's buffer, using recursive doubling for
// power-of-two group sizes and a fold-in preamble otherwise. The summation
// arithmetic itself runs at harness level (ReadBuf/WriteBuf): the model
// charges the communication, not the adds, which are negligible next to
// the dgemm work in every caller.
func Allreduce(c rt.Ctx, group []int, buf rt.Buffer, off, n, tag int) {
	me := indexOf(group, c.Rank())
	if me < 0 {
		panic(fmt.Sprintf("mp: rank %d not in allreduce group %v", c.Rank(), group))
	}
	size := len(group)
	if size == 1 || n == 0 {
		return
	}
	scratch := c.LocalBuf(n)
	recvAdd := func(from int) {
		c.Recv(from, tag, scratch, 0, n)
		mine := c.ReadBuf(buf, off, n)
		if mine == nil {
			return // sim engine: sizes only
		}
		other := c.ReadBuf(scratch, 0, n)
		for i := range mine {
			mine[i] += other[i]
		}
		c.WriteBuf(buf, off, mine)
	}
	// Fold the tail beyond the largest power of two into the front ranks.
	pow2 := 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	rem := size - pow2
	active := true
	switch {
	case me >= pow2:
		// Tail rank: contribute, then wait for the final value.
		c.Send(group[me-pow2], tag, buf, off, n)
		active = false
	case me < rem:
		recvAdd(group[me+pow2])
	}
	if active {
		for mask := 1; mask < pow2; mask <<= 1 {
			partner := group[me^mask]
			rh := c.Irecv(partner, tag+1, scratch, 0, n)
			c.Wait(c.Isend(partner, tag+1, buf, off, n))
			c.Wait(rh)
			mine := c.ReadBuf(buf, off, n)
			if mine != nil {
				other := c.ReadBuf(scratch, 0, n)
				for i := range mine {
					mine[i] += other[i]
				}
				c.WriteBuf(buf, off, mine)
			}
		}
	}
	// Deliver the result back to the tail ranks.
	if me < rem {
		c.Send(group[me+pow2], tag+2, buf, off, n)
	} else if me >= pow2 {
		c.Recv(group[me-pow2], tag+2, buf, off, n)
	}
}

// Sendrecv exchanges buffers with two (possibly different) partners in a
// deadlock-free order, as Cannon's shifts require: the payload in src is
// sent to `to`, and n elements are received from `from` into dst. Internally
// it posts the receive first and uses a nonblocking send.
func Sendrecv(c rt.Ctx, to, sendTag int, src rt.Buffer, srcOff, sendN int,
	from, recvTag int, dst rt.Buffer, dstOff, recvN int) {
	rh := c.Irecv(from, recvTag, dst, dstOff, recvN)
	sh := c.Isend(to, sendTag, src, srcOff, sendN)
	c.Wait(sh)
	c.Wait(rh)
}
