// Package coll builds explicit dataflow schedules for nonblocking
// collective operations: a per-rank list of sends, receives and local
// reduction/copy steps with dependency edges, to be executed lazily by
// a progress engine over a point-to-point layer.
//
// Representing a collective as a schedule — rather than as straight-
// line blocking code — is what makes it nonblocking: any engine that
// repeatedly starts ready actions and retires finished ones will drive
// the collective to completion, and *when* that engine runs (manual
// application polls, piggybacked progress on library calls, or a
// dedicated progress thread) determines how much of the collective's
// communication overlaps the application's computation. The package is
// pure scheduling: it knows nothing about the transport, so it can be
// validated exhaustively by abstract execution (see coll_test.go).
//
// Peer-to-peer matching contract: rank A's Send action with a given
// (Round, Chunk) pairs with the Recv action on A's peer carrying the
// same (Round, Chunk) and naming A as its peer. Builders guarantee the
// pairing is unique within one schedule.
package coll

import (
	"fmt"
	"strings"
)

// Op enumerates the collective operations the package can schedule.
type Op int

const (
	OpBcast Op = iota
	OpReduce
	OpAllreduce
	OpAlltoall
	OpBarrier
)

func (o Op) String() string {
	switch o {
	case OpBcast:
		return "bcast"
	case OpReduce:
		return "reduce"
	case OpAllreduce:
		return "allreduce"
	case OpAlltoall:
		return "alltoall"
	case OpBarrier:
		return "barrier"
	}
	return "invalid"
}

// Algo selects the algorithm family. Not every family applies to every
// operation; Build resolves Auto and substitutes a valid family when
// the requested one cannot serve the geometry (recursive doubling on a
// non-power-of-two world degrades to the binomial family).
type Algo int

const (
	// Auto picks the customary default per operation: binomial trees
	// for rooted operations, recursive doubling for allreduce and
	// barrier on power-of-two worlds, ring elsewhere.
	Auto Algo = iota
	// Binomial schedules tree algorithms (binomial broadcast/reduce,
	// gather-release barrier, Bruck-style log-round alltoall).
	Binomial
	// Ring schedules chain and ring algorithms (pipelined chain
	// broadcast/reduce, reduce-scatter+allgather ring allreduce,
	// pairwise-exchange alltoall, double-token-lap barrier).
	Ring
	// RecDouble schedules recursive doubling/halving algorithms
	// (scatter+allgather broadcast, recursive-halving reduce,
	// recursive-doubling allreduce, dissemination barrier, Bruck-style
	// alltoall).
	RecDouble
)

func (a Algo) String() string {
	switch a {
	case Auto:
		return "auto"
	case Binomial:
		return "binomial"
	case Ring:
		return "ring"
	case RecDouble:
		return "recdouble"
	}
	return "invalid"
}

// ParseAlgo parses an -coll-algo flag value.
func ParseAlgo(s string) (Algo, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return Auto, nil
	case "binomial", "tree":
		return Binomial, nil
	case "ring", "chain":
		return Ring, nil
	case "recdouble", "rec-dbl", "recursive-doubling":
		return RecDouble, nil
	}
	return Auto, fmt.Errorf("coll: unknown algorithm %q (want auto, binomial, ring or recdouble)", s)
}

// Kind enumerates schedule action types.
type Kind int

const (
	// Send posts a point-to-point send of Size bytes to Peer.
	Send Kind = iota
	// Recv posts a matching receive of Size bytes from Peer.
	Recv
	// Reduce applies the reduction operator over Size bytes locally.
	Reduce
	// Copy moves Size bytes locally (self blocks, Bruck rotations).
	Copy
)

func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Reduce:
		return "reduce"
	case Copy:
		return "copy"
	}
	return "invalid"
}

// TokenSize is the payload of synchronization-only messages (barrier
// tokens), matching the blocking collectives' convention.
const TokenSize = 4

// MaxChunks caps how many pipeline chunks a single logical transfer
// may be split into; Build clamps the chunk size upward to honour it,
// so executors can reserve a fixed tag field for the chunk index.
const MaxChunks = 64

// Action is one step of a rank's schedule.
type Action struct {
	Kind Kind
	// Peer is the world rank this action communicates with (-1 for
	// local Reduce/Copy steps).
	Peer int
	// Round and Chunk key the transfer for tag construction; together
	// with the (sender, receiver) pair they are unique in the schedule.
	Round int
	Chunk int
	// Size is the payload (Send/Recv) or operand (Reduce/Copy) bytes.
	Size int
	// Deps lists indices of actions in the same schedule that must
	// finish before this one may start.
	Deps []int32
}

// Params describes the collective to schedule from one rank's view.
type Params struct {
	Op   Op
	Algo Algo
	// Rank and Procs place the caller in the world.
	Rank, Procs int
	// Root is the root rank for OpBcast and OpReduce (ignored
	// otherwise).
	Root int
	// Size is the per-rank payload in bytes: the full message for
	// bcast/reduce/allreduce, the per-destination block for alltoall;
	// ignored for barrier.
	Size int
	// Chunk pipelines transfers in chunks of at most this many bytes
	// where the algorithm supports it (0 = whole-message transfers).
	Chunk int
}

// Schedule is the dataflow program for one rank's share of a
// collective.
type Schedule struct {
	Op Op
	// Algo is the resolved algorithm (never Auto).
	Algo Algo
	// Rounds is the highest Round used plus one.
	Rounds  int
	Actions []Action
}

// Resolve returns the algorithm Build will schedule for op on a
// procs-rank world when algo is requested — substituting a family that
// serves the geometry when the requested one cannot.
func Resolve(op Op, algo Algo, procs int) Algo {
	pow2 := procs&(procs-1) == 0
	if algo == Auto {
		switch op {
		case OpBcast, OpReduce:
			return Binomial
		case OpAllreduce:
			if pow2 {
				return RecDouble
			}
			return Ring
		case OpAlltoall:
			return Ring
		case OpBarrier:
			return RecDouble
		}
	}
	if algo == RecDouble && !pow2 {
		// Recursive doubling/halving needs a power of two for the data
		// operations; dissemination (barrier) and Bruck (alltoall)
		// handle any world size.
		switch op {
		case OpBcast, OpReduce, OpAllreduce:
			return Binomial
		}
	}
	return algo
}

// Build constructs the schedule for p.Rank's share of the collective.
func Build(p Params) (*Schedule, error) {
	if p.Procs < 1 {
		return nil, fmt.Errorf("coll: %d procs", p.Procs)
	}
	if p.Rank < 0 || p.Rank >= p.Procs {
		return nil, fmt.Errorf("coll: rank %d out of range [0,%d)", p.Rank, p.Procs)
	}
	switch p.Op {
	case OpBcast, OpReduce:
		if p.Root < 0 || p.Root >= p.Procs {
			return nil, fmt.Errorf("coll: root %d out of range [0,%d)", p.Root, p.Procs)
		}
		if p.Size < 1 {
			return nil, fmt.Errorf("coll: %s of %d bytes", p.Op, p.Size)
		}
	case OpAllreduce, OpAlltoall:
		if p.Size < 1 {
			return nil, fmt.Errorf("coll: %s of %d bytes", p.Op, p.Size)
		}
	case OpBarrier:
		// Size ignored.
	default:
		return nil, fmt.Errorf("coll: unknown op %d", p.Op)
	}
	algo := Resolve(p.Op, p.Algo, p.Procs)
	// Two passes over the same builder: the first counts the actions
	// and dependency edges, the second writes them into one array of
	// each, so a schedule costs the same few allocations at any size.
	var count builder
	count.run(p, algo)
	b := builder{acts: make([]Action, 0, count.nActs)}
	if count.nDeps > 0 {
		b.deps = make([]int32, 0, count.nDeps)
	}
	b.run(p, algo)
	return &Schedule{Op: p.Op, Algo: algo, Rounds: b.rounds, Actions: b.acts}, nil
}

// run adds p.Rank's share of the collective, scheduled with algo.
func (b *builder) run(p Params, algo Algo) {
	if p.Procs == 1 {
		// Degenerate world: nothing moves. Alltoall still copies the
		// self block, matching the blocking implementation.
		if p.Op == OpAlltoall {
			b.add(Action{Kind: Copy, Peer: -1, Size: p.Size})
		}
		return
	}
	switch p.Op {
	case OpBcast:
		switch algo {
		case Binomial:
			b.bcastBinomial(p, 0, -1)
		case Ring:
			b.bcastChain(p)
		case RecDouble:
			b.bcastScatterAllgather(p)
		}
	case OpReduce:
		switch algo {
		case Binomial:
			b.reduceBinomial(p, 0, -1)
		case Ring:
			b.reduceChain(p)
		case RecDouble:
			b.reduceRecHalving(p)
		}
	case OpAllreduce:
		switch algo {
		case Binomial:
			// Composed trees: binomial reduce to rank 0, then binomial
			// broadcast back out, serialized per rank.
			rp := p
			rp.Root = 0
			last := b.reduceBinomial(rp, 0, -1)
			b.bcastBinomial(rp, 1, last)
		case Ring:
			b.allreduceRing(p)
		case RecDouble:
			b.allreduceRecDouble(p)
		}
	case OpAlltoall:
		if algo == Ring {
			b.alltoallPairwise(p)
		} else {
			b.alltoallBruck(p)
		}
	case OpBarrier:
		switch algo {
		case Binomial:
			b.barrierTree(p)
		case Ring:
			b.barrierRing(p)
		case RecDouble:
			b.barrierDissemination(p)
		}
	}
}

// builder accumulates actions; add returns the new action's index for
// dependency wiring. Negative dep indices are ignored, so "no
// dependency" threads through as -1. With acts nil it only counts:
// nActs and nDeps size the arrays of the pass that keeps them. Every
// action's Deps is a window of deps with cap == len, so an append to
// one list can never overwrite the next.
type builder struct {
	acts         []Action
	deps         []int32
	nActs, nDeps int
	rounds       int
}

func (b *builder) add(a Action, deps ...int) int {
	if a.Round >= b.rounds {
		b.rounds = a.Round + 1
	}
	from := b.nDeps
	for _, d := range deps {
		if d >= 0 {
			if b.acts != nil {
				b.deps = append(b.deps, int32(d))
			}
			b.nDeps++
		}
	}
	if b.acts != nil {
		if b.nDeps > from {
			a.Deps = b.deps[from:b.nDeps:b.nDeps]
		}
		b.acts = append(b.acts, a)
	}
	b.nActs++
	return b.nActs - 1
}

// chunkSizes splits size into pipeline chunks of at most chunk bytes,
// capped at MaxChunks pieces (the chunk size grows to fit).
func chunkSizes(size, chunk int) []int {
	if chunk <= 0 || chunk >= size {
		return []int{size}
	}
	if n := (size + chunk - 1) / chunk; n > MaxChunks {
		chunk = (size + MaxChunks - 1) / MaxChunks
	}
	out := make([]int, 0, ceilDiv(size, chunk))
	for off := 0; off < size; off += chunk {
		c := chunk
		if size-off < c {
			c = size - off
		}
		out = append(out, c)
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// vrPeer maps a virtual rank (root-relative numbering) back to a world
// rank.
func vrPeer(vr, root, procs int) int { return (vr + root) % procs }

// bcastBinomial schedules the binomial-tree broadcast, pipelined per
// chunk: a child forwards chunk c as soon as chunk c has arrived. The
// round parameter offsets the tag round (so composed schedules keep
// phases apart) and entryDep serializes the whole phase after a prior
// one; the return value is unused.
func (b *builder) bcastBinomial(p Params, round, entryDep int) {
	procs := p.Procs
	vr := (p.Rank - p.Root + procs) % procs
	cs := chunkSizes(p.Size, p.Chunk)
	recv := make([]int, len(cs))
	for i := range recv {
		recv[i] = entryDep
	}
	mask := 1
	for mask < procs {
		if vr&mask != 0 {
			src := vrPeer(vr-mask, p.Root, procs)
			for c, sz := range cs {
				recv[c] = b.add(Action{Kind: Recv, Peer: src, Round: round, Chunk: c, Size: sz}, entryDep)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < procs {
			dst := vrPeer(vr+mask, p.Root, procs)
			for c, sz := range cs {
				b.add(Action{Kind: Send, Peer: dst, Round: round, Chunk: c, Size: sz}, recv[c])
			}
		}
	}
}

// bcastChain schedules the pipelined chain broadcast: root-relative
// rank k receives from k-1 and forwards to k+1, chunk by chunk.
func (b *builder) bcastChain(p Params) {
	procs := p.Procs
	vr := (p.Rank - p.Root + procs) % procs
	cs := chunkSizes(p.Size, p.Chunk)
	recv := make([]int, len(cs))
	for i := range recv {
		recv[i] = -1
	}
	if vr > 0 {
		src := vrPeer(vr-1, p.Root, procs)
		for c, sz := range cs {
			recv[c] = b.add(Action{Kind: Recv, Peer: src, Round: 0, Chunk: c, Size: sz})
		}
	}
	if vr < procs-1 {
		dst := vrPeer(vr+1, p.Root, procs)
		for c, sz := range cs {
			b.add(Action{Kind: Send, Peer: dst, Round: 0, Chunk: c, Size: sz}, recv[c])
		}
	}
}

// bcastScatterAllgather schedules the large-message broadcast of van
// de Geijn: a binomial scatter of message blocks followed by a
// recursive-doubling allgather. Requires a power-of-two world.
func (b *builder) bcastScatterAllgather(p Params) {
	procs := p.Procs
	vr := (p.Rank - p.Root + procs) % procs
	blk := ceilDiv(p.Size, procs)
	round := 0
	myRecv := -1
	var phase []int // every scatter action of this rank
	for mask := procs >> 1; mask >= 1; mask >>= 1 {
		switch {
		case vr%(2*mask) == 0:
			idx := b.add(Action{Kind: Send, Peer: vrPeer(vr+mask, p.Root, procs),
				Round: round, Size: mask * blk}, myRecv)
			phase = append(phase, idx)
		case vr%(2*mask) == mask:
			myRecv = b.add(Action{Kind: Recv, Peer: vrPeer(vr-mask, p.Root, procs),
				Round: round, Size: mask * blk})
			phase = append(phase, myRecv)
		}
		round++
	}
	prev := phase
	own := blk
	for k := 1; k < procs; k <<= 1 {
		partner := vrPeer(vr^k, p.Root, procs)
		s := b.add(Action{Kind: Send, Peer: partner, Round: round, Size: own}, prev...)
		q := b.add(Action{Kind: Recv, Peer: partner, Round: round, Size: own}, prev...)
		prev = append(prev[:0], s, q)
		own *= 2
		round++
	}
}

// reduceBinomial schedules the binomial-tree reduction: children send
// up, parents fold each contribution as it arrives. Returns the index
// of the rank's last action, so composed schedules (allreduce) can
// serialize a following phase on it.
func (b *builder) reduceBinomial(p Params, round, entryDep int) int {
	procs := p.Procs
	vr := (p.Rank - p.Root + procs) % procs
	last := entryDep
	for mask := 1; mask < procs; mask <<= 1 {
		if vr&mask != 0 {
			dst := vrPeer(vr-mask, p.Root, procs)
			return b.add(Action{Kind: Send, Peer: dst, Round: round, Size: p.Size}, last)
		}
		if vr+mask < procs {
			src := vrPeer(vr+mask, p.Root, procs)
			q := b.add(Action{Kind: Recv, Peer: src, Round: round, Size: p.Size}, entryDep)
			last = b.add(Action{Kind: Reduce, Peer: -1, Round: round, Size: p.Size}, q, last)
		}
	}
	return last
}

// reduceChain schedules the pipelined chain reduction: the reversed
// broadcast chain, folding chunk by chunk toward the root.
func (b *builder) reduceChain(p Params) {
	procs := p.Procs
	vr := (p.Rank - p.Root + procs) % procs
	cs := chunkSizes(p.Size, p.Chunk)
	red := make([]int, len(cs))
	for i := range red {
		red[i] = -1
	}
	if vr < procs-1 {
		src := vrPeer(vr+1, p.Root, procs)
		for c, sz := range cs {
			q := b.add(Action{Kind: Recv, Peer: src, Round: 0, Chunk: c, Size: sz})
			red[c] = b.add(Action{Kind: Reduce, Peer: -1, Round: 0, Chunk: c, Size: sz}, q)
		}
	}
	if vr > 0 {
		dst := vrPeer(vr-1, p.Root, procs)
		for c, sz := range cs {
			b.add(Action{Kind: Send, Peer: dst, Round: 0, Chunk: c, Size: sz}, red[c])
		}
	}
}

// reduceRecHalving schedules a recursive-halving reduce-scatter (log P
// rounds of shrinking exchanges, each followed by a local fold) and a
// final block gather to the root. Requires a power-of-two world.
func (b *builder) reduceRecHalving(p Params) {
	procs := p.Procs
	vr := (p.Rank - p.Root + procs) % procs
	round := 0
	last := -1
	sz := p.Size
	for k := 1; k < procs; k <<= 1 {
		sz = ceilDiv(sz, 2)
		partner := vrPeer(vr^k, p.Root, procs)
		s := b.add(Action{Kind: Send, Peer: partner, Round: round, Size: sz}, last)
		q := b.add(Action{Kind: Recv, Peer: partner, Round: round, Size: sz}, last)
		last = b.add(Action{Kind: Reduce, Peer: -1, Round: round, Size: sz}, s, q)
		round++
	}
	if vr != 0 {
		b.add(Action{Kind: Send, Peer: p.Root, Round: round, Size: sz}, last)
		return
	}
	for i := 1; i < procs; i++ {
		b.add(Action{Kind: Recv, Peer: vrPeer(i, p.Root, procs), Round: round, Size: sz}, last)
	}
}

// allreduceRecDouble schedules the recursive-doubling allreduce: log P
// rounds of full-size exchange and fold, pipelined per chunk within
// each round. Requires a power-of-two world.
func (b *builder) allreduceRecDouble(p Params) {
	procs := p.Procs
	cs := chunkSizes(p.Size, p.Chunk)
	prev, cur := make([]int, 0, 2*len(cs)), make([]int, 0, 2*len(cs))
	round := 0
	for k := 1; k < procs; k <<= 1 {
		partner := p.Rank ^ k
		cur = cur[:0]
		for c, sz := range cs {
			s := b.add(Action{Kind: Send, Peer: partner, Round: round, Chunk: c, Size: sz}, prev...)
			q := b.add(Action{Kind: Recv, Peer: partner, Round: round, Chunk: c, Size: sz}, prev...)
			red := b.add(Action{Kind: Reduce, Peer: -1, Round: round, Chunk: c, Size: sz}, q)
			cur = append(cur, s, red)
		}
		prev, cur = cur, prev
		round++
	}
}

// allreduceRing schedules the bandwidth-optimal ring allreduce: P-1
// reduce-scatter steps followed by P-1 allgather steps, each moving
// one message block around the ring.
func (b *builder) allreduceRing(p Params) {
	procs := p.Procs
	blk := ceilDiv(p.Size, procs)
	next := (p.Rank + 1) % procs
	prevR := (p.Rank - 1 + procs) % procs
	round := 0
	lastRed := -1
	for s := 0; s < procs-1; s++ {
		b.add(Action{Kind: Send, Peer: next, Round: round, Size: blk}, lastRed)
		q := b.add(Action{Kind: Recv, Peer: prevR, Round: round, Size: blk})
		lastRed = b.add(Action{Kind: Reduce, Peer: -1, Round: round, Size: blk}, q)
		round++
	}
	lastFwd := lastRed
	for s := 0; s < procs-1; s++ {
		b.add(Action{Kind: Send, Peer: next, Round: round, Size: blk}, lastFwd)
		lastFwd = b.add(Action{Kind: Recv, Peer: prevR, Round: round, Size: blk})
		round++
	}
}

// alltoallPairwise schedules the pairwise-exchange alltoall: the self
// block copies locally, then P-1 rounds each exchange one block with a
// rotating partner, serialized round to round like the blocking
// implementation.
func (b *builder) alltoallPairwise(p Params) {
	procs := p.Procs
	s, q := b.add(Action{Kind: Copy, Peer: -1, Size: p.Size}), -1
	for i := 1; i < procs; i++ {
		dst := (p.Rank + i) % procs
		src := (p.Rank - i + procs) % procs
		s, q = b.add(Action{Kind: Send, Peer: dst, Round: i, Size: p.Size}, s, q),
			b.add(Action{Kind: Recv, Peer: src, Round: i, Size: p.Size}, s, q)
	}
}

// alltoallBruck schedules the Bruck log-round alltoall: an initial
// local rotation, ceil(log2 P) rounds each bundling the blocks whose
// destination index has the round's bit set, and a final inverse
// rotation.
func (b *builder) alltoallBruck(p Params) {
	procs := p.Procs
	s, q := b.add(Action{Kind: Copy, Peer: -1, Size: procs * p.Size}), -1
	round := 0
	for k := 1; k < procs; k <<= 1 {
		cnt := 0
		for j := 1; j < procs; j++ {
			if j&k != 0 {
				cnt++
			}
		}
		dst := (p.Rank + k) % procs
		src := (p.Rank - k + procs) % procs
		s, q = b.add(Action{Kind: Send, Peer: dst, Round: round, Size: cnt * p.Size}, s, q),
			b.add(Action{Kind: Recv, Peer: src, Round: round, Size: cnt * p.Size}, s, q)
		round++
	}
	b.add(Action{Kind: Copy, Peer: -1, Size: procs * p.Size}, s, q)
}

// barrierDissemination schedules the dissemination barrier: round k
// exchanges tokens at distance 2^k, any world size, ceil(log2 P)
// rounds.
func (b *builder) barrierDissemination(p Params) {
	procs := p.Procs
	s, q, round := -1, -1, 0
	for k := 1; k < procs; k <<= 1 {
		s, q = b.add(Action{Kind: Send, Peer: (p.Rank + k) % procs, Round: round, Size: TokenSize}, s, q),
			b.add(Action{Kind: Recv, Peer: (p.Rank - k + procs) % procs, Round: round, Size: TokenSize}, s, q)
		round++
	}
}

// barrierTree schedules the gather-release barrier on a binomial tree
// rooted at rank 0: tokens flow up (round 0), then the release flows
// back down (round 1).
func (b *builder) barrierTree(p Params) {
	procs := p.Procs
	vr := p.Rank
	lim := procs
	if vr != 0 {
		lim = vr & -vr // lowest set bit: the subtree this rank roots
	}
	var gathers []int
	for m := 1; m < lim && vr+m < procs; m <<= 1 {
		gathers = append(gathers, b.add(Action{Kind: Recv, Peer: vr + m, Round: 0, Size: TokenSize}))
	}
	if vr == 0 {
		for m := 1; m < lim && vr+m < procs; m <<= 1 {
			b.add(Action{Kind: Send, Peer: vr + m, Round: 1, Size: TokenSize}, gathers...)
		}
		return
	}
	parent := vr - lim
	b.add(Action{Kind: Send, Peer: parent, Round: 0, Size: TokenSize}, gathers...)
	rel := b.add(Action{Kind: Recv, Peer: parent, Round: 1, Size: TokenSize})
	for m := 1; m < lim && vr+m < procs; m <<= 1 {
		b.add(Action{Kind: Send, Peer: vr + m, Round: 1, Size: TokenSize}, rel)
	}
}

// barrierRing schedules the two-lap token ring barrier: rank 0
// originates a token that circles the ring twice; the second lap's
// arrival tells each rank that everyone has entered.
func (b *builder) barrierRing(p Params) {
	procs := p.Procs
	next := (p.Rank + 1) % procs
	prevR := (p.Rank - 1 + procs) % procs
	if p.Rank == 0 {
		b.add(Action{Kind: Send, Peer: next, Round: 0, Size: TokenSize})
		q0 := b.add(Action{Kind: Recv, Peer: prevR, Round: 0, Size: TokenSize})
		b.add(Action{Kind: Send, Peer: next, Round: 1, Size: TokenSize}, q0)
		b.add(Action{Kind: Recv, Peer: prevR, Round: 1, Size: TokenSize})
		return
	}
	q0 := b.add(Action{Kind: Recv, Peer: prevR, Round: 0, Size: TokenSize})
	b.add(Action{Kind: Send, Peer: next, Round: 0, Size: TokenSize}, q0)
	q1 := b.add(Action{Kind: Recv, Peer: prevR, Round: 1, Size: TokenSize})
	b.add(Action{Kind: Send, Peer: next, Round: 1, Size: TokenSize}, q1)
}
