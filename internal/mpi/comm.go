package mpi

import "fmt"

// Comm is a communicator: an ordered group of world ranks with its own
// rank numbering, isolated point-to-point tag space and collective
// context.
//
// Communicators are created with Rank.World (the world communicator)
// and Rank.Shrink (the survivors of a fault-tolerance agreement).
type Comm struct {
	r       *Rank
	id      int   // 0 for the world, the agreement generation for Shrink
	members []int // world ranks, index = communicator rank
	myIdx   int
	colSeq  int
}

// maxUserTag bounds user tags on communicator point-to-point calls so
// the communicator id can share the tag space.
const maxUserTag = 1 << 20

// World returns the communicator spanning all ranks, with communicator
// ranks equal to world ranks.
func (r *Rank) World() *Comm {
	if r.worldComm == nil {
		members := make([]int, r.Size())
		for i := range members {
			members[i] = i
		}
		r.worldComm = &Comm{r: r, id: 0, members: members, myIdx: r.id}
	}
	return r.worldComm
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.myIdx }

// Host returns the underlying rank, for non-communicator operations
// (Compute, monitored regions, nonblocking request waits) interleaved
// with communicator traffic.
func (c *Comm) Host() *Rank { return c.r }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// tag scopes a user tag to this communicator.
func (c *Comm) tag(t int) int {
	if t != AnyTag && (t < 0 || t >= maxUserTag) {
		panic(fmt.Sprintf("mpi: communicator tags must be in [0, %d)", maxUserTag))
	}
	if t == AnyTag {
		return AnyTag
	}
	return c.id*maxUserTag + t
}

// ctag scopes an internal collective tag to this communicator.
func (c *Comm) ctag(seq, round int) int {
	return c.id*maxUserTag + colTag(seq, round)
}

func (c *Comm) nextSeq() int {
	// The world communicator shares the rank's collective sequence so
	// Rank-level collectives (r.Barrier()) and world-communicator
	// collectives (r.World().Barrier()) can be freely interleaved
	// without tag collisions.
	if c.id == 0 {
		return c.r.nextColSeq()
	}
	s := c.colSeq
	c.colSeq++
	return s
}

// translateSrc maps a communicator source (or AnySource) to the world
// rank for matching.
func (c *Comm) translateSrc(src int) int {
	if src == AnySource {
		return AnySource
	}
	return c.members[src]
}

// commStatus rewrites a status's source into communicator ranks.
func (c *Comm) commStatus(st Status) Status {
	for i, wr := range c.members {
		if wr == st.Source {
			st.Source = i
			break
		}
	}
	if st.Tag != AnyTag && st.Tag >= 0 {
		st.Tag -= c.id * maxUserTag
	}
	return st
}

// Isend starts a non-blocking send to communicator rank dst.
func (c *Comm) Isend(dst, tag, size int) *Request {
	return c.r.Isend(c.members[dst], c.tag(tag), size)
}

// Irecv posts a non-blocking receive from communicator rank src.
func (c *Comm) Irecv(src, tag int) *Request {
	return c.r.Irecv(c.translateSrc(src), c.tag(tag))
}

// Sendrecv exchanges with communicator ranks dst and src.
func (c *Comm) Sendrecv(dst, sendTag, sendSize, src, recvTag int) Status {
	return c.commStatus(c.r.Sendrecv(
		c.members[dst], c.tag(sendTag), sendSize,
		c.translateSrc(src), c.tag(recvTag)))
}

// --- Collectives over a communicator --------------------------------

// Barrier blocks until all members have entered it.
func (c *Comm) Barrier() {
	r := c.r
	r.enterOp("Barrier")
	defer r.exit()
	seq := c.nextSeq()
	p := c.Size()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := c.members[(c.myIdx+k)%p]
		src := c.members[(c.myIdx-k+p)%p]
		s := r.isendCol(dst, c.ctag(seq, round), tokenSize)
		q := r.irecvCol(src, c.ctag(seq, round))
		r.awaitBoth(s, q)
	}
}

// Bcast broadcasts size bytes from communicator rank root (binomial).
func (c *Comm) Bcast(root, size int) {
	r := c.r
	r.enterOp("Bcast")
	defer r.exit()
	seq := c.nextSeq()
	p := c.Size()
	vr := (c.myIdx - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := c.members[(vr-mask+root)%p]
			q := r.irecvCol(src, c.ctag(seq, 0))
			r.await(q)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			dst := c.members[(vr+mask+root)%p]
			s := r.isendCol(dst, c.ctag(seq, 0), size)
			r.await(s)
		}
		mask >>= 1
	}
}

// Reduce combines size bytes onto communicator rank root (binomial).
func (c *Comm) Reduce(root, size int) {
	r := c.r
	r.enterOp("Reduce")
	defer r.exit()
	seq := c.nextSeq()
	p := c.Size()
	vr := (c.myIdx - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask == 0 {
			if vr+mask < p {
				src := c.members[(vr+mask+root)%p]
				q := r.irecvCol(src, c.ctag(seq, 0))
				r.await(q)
				r.proc.Compute(r.reduceCost(size))
			}
		} else {
			dst := c.members[(vr-mask+root)%p]
			s := r.isendCol(dst, c.ctag(seq, 0), size)
			r.await(s)
			break
		}
		mask <<= 1
	}
}

// Allreduce combines size bytes across all members.
func (c *Comm) Allreduce(size int) {
	p := c.Size()
	if p&(p-1) != 0 {
		c.Reduce(0, size)
		c.Bcast(0, size)
		return
	}
	r := c.r
	r.enterOp("Allreduce")
	defer r.exit()
	seq := c.nextSeq()
	for mask, round := 1, 0; mask < p; mask, round = mask<<1, round+1 {
		partner := c.members[c.myIdx^mask]
		s := r.isendCol(partner, c.ctag(seq, round), size)
		q := r.irecvCol(partner, c.ctag(seq, round))
		r.awaitBoth(s, q)
		r.proc.Compute(r.reduceCost(size))
	}
}

// Alltoall exchanges size bytes between every member pair.
func (c *Comm) Alltoall(size int) {
	r := c.r
	r.enterOp("Alltoall")
	defer r.exit()
	seq := c.nextSeq()
	p := c.Size()
	r.proc.Compute(r.cost().Copy(size))
	for i := 1; i < p; i++ {
		dst := c.members[(c.myIdx+i)%p]
		src := c.members[(c.myIdx-i+p)%p]
		s := r.isendCol(dst, c.ctag(seq, i), size)
		q := r.irecvCol(src, c.ctag(seq, i))
		r.awaitBoth(s, q)
	}
}

// Alltoallv exchanges sizes[i] bytes with member i (pairwise
// exchange). sizes must have one entry per member; the caller's own
// entry is copied locally.
func (c *Comm) Alltoallv(sizes []int) {
	r := c.r
	r.enterOp("Alltoallv")
	defer r.exit()
	if len(sizes) != c.Size() {
		panic("mpi: Alltoallv needs one size per rank")
	}
	seq := c.nextSeq()
	p := c.Size()
	r.proc.Compute(r.cost().Copy(sizes[c.myIdx]))
	for i := 1; i < p; i++ {
		dstIdx := (c.myIdx + i) % p
		src := c.members[(c.myIdx-i+p)%p]
		s := r.isendCol(c.members[dstIdx], c.ctag(seq, i), sizes[dstIdx])
		q := r.irecvCol(src, c.ctag(seq, i))
		r.awaitBoth(s, q)
	}
}
