package mpi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ovlp/internal/fabric"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// This file implements ULFM-style fault tolerance for crash-stop rank
// failures, in four pieces mirroring MPI's User-Level Failure
// Mitigation proposal:
//
//   - Detection: every rank runs a heartbeat service on its progress
//     engine, pinging its ring successor with a sequenced size-0
//     message. A crashed node's NIC stops acknowledging, so the ping
//     (or any user traffic) exhausts its retry budget — the reliable
//     layer is the failure detector's primitive. Hardware acks are
//     generated at NIC delivery time, so a rank that is merely
//     computing (not polling) still acknowledges and is never falsely
//     suspected under crash-stop semantics.
//   - Revocation: the detecting rank broadcasts the failure to every
//     live peer; from then on library calls on affected ranks abort
//     with *ProcFailedError (wrapping ErrProcFailed) at well-defined
//     points (call entry, wait loops), never from inside a progress
//     sweep — so a dedicated progress thread can never crash the rank.
//   - Agreement: Rank.Agree is a virtual-time-safe consensus on the
//     set of failed ranks (plus the survivors' resume step). Votes
//     accumulate in a world-level pool keyed by generation; a vote
//     carries the voter's dead set, and every rank re-votes whenever
//     the union grows. Dead sets are monotone subsets of a finite
//     world, so the protocol terminates, and it tolerates further
//     failures during the round (missing voters are pinged and, on
//     exhaustion, folded into the round's dead set).
//   - Recovery: Rank.EpochCut abandons the failed epoch's in-flight
//     state (reliable-layer generation bump, queue clears, stale work
//     requests) and advances the message-context epoch so pre-failure
//     traffic can never match post-recovery operations; Rank.Shrink
//     then builds the surviving-ranks communicator with remapped ranks.
//
// The application drives recovery explicitly (cluster.RunFT does this
// for whole-machine runs): run work under Rank.Protect, and on
// ErrProcFailed call Agree, EpochCut, Shrink, then resume.

// FTConfig enables and parameterizes the fault-tolerance service.
// It requires Config.Reliable with a finite retry budget: detection
// latency is approximately HeartbeatPeriod plus the reliable layer's
// total retransmission budget. An unlimited budget never detects.
type FTConfig struct {
	// HeartbeatPeriod paces the liveness pings each rank sends to its
	// ring successor, and the watchdog tick that wakes a parked rank to
	// send them (default 200µs).
	HeartbeatPeriod time.Duration
}

func (c *FTConfig) fillDefaults() {
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = 200 * time.Microsecond
	}
}

// ctxEpochStride shifts message contexts by the recovery epoch:
// ctx = base + epoch*stride. Pre-failure traffic that straggles in
// after an EpochCut lands in a stale context and can never match a
// post-recovery receive.
const ctxEpochStride = 8

// ectx shifts a base message context into the rank's current recovery
// epoch. Identity when FT is off or before any failure.
func (r *Rank) ectx(base int) int {
	if r.ft == nil {
		return base
	}
	return base + r.ft.epoch*ctxEpochStride
}

// ftState is one rank's fault-tolerance state.
type ftState struct {
	cfg    FTConfig
	dead   map[int]bool // suspected/known failed world ranks
	agreed map[int]bool // dead set as of the last completed agreement

	failed     bool // revoked: raise ErrProcFailed at the next safe point
	recovering bool // inside Agree: suppress raising, widen pings
	retired    bool // finished its work: never raise, vote implicitly

	gen     int   // agreement generation (lockstep across survivors)
	epoch   int   // recovery epoch (message-context stride)
	rev     int   // bumped on every detection/merge; Agree's wait condition
	members []int // active survivors of the last agreement (world ids)

	nextPing vtime.Time
	tick     ftTick
	tickStop vtime.Timer
}

// Wire messages of the fault-tolerance service. All are size-0
// sequenced control messages: the ping and the sync poke ride as
// headers, the revocation — its dead set has no fixed size — is boxed.

// ftMsg is a liveness ping; its hardware ack is the liveness proof.
type ftMsg struct{ src, gen int }

func (m ftMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrPing, W: [fabric.HeaderWords]uint64{uint64(m.src), uint64(m.gen)}}
}

// revokeMsg announces suspected failures to a live peer.
type revokeMsg struct {
	src  int
	dead []int
}

// ftSyncMsg pokes a peer blocked in an agreement round: the arrival
// alone unparks it so it re-reads the vote pool.
type ftSyncMsg struct{ src, gen int }

func (m ftSyncMsg) header() fabric.Header {
	return fabric.Header{Kind: hdrSync, W: [fabric.HeaderWords]uint64{uint64(m.src), uint64(m.gen)}}
}

// ftVote is one rank's contribution to an agreement round.
type ftVote struct {
	dead []int // the voter's dead set, ascending
	step int   // the voter's last completed application step
	done bool  // the voter has finished its workload
}

// ftRound collects votes for one agreement generation in the world's
// shared registry (the simulator's stand-in for the payload bytes a
// real consensus would carry; the synchronization is modelled by the
// sequenced poke messages).
type ftRound struct {
	votes   map[int]ftVote
	decided []int // the round's decision, set by the first rank to observe full agreement
	version int   // bumped on every (re-)deposit
	reads   int   // survivors that consumed the result; last one reclaims
}

func (w *World) ftRound(gen int) *ftRound {
	if w.ftRounds == nil {
		w.ftRounds = make(map[int]*ftRound)
	}
	rd := w.ftRounds[gen]
	if rd == nil {
		rd = &ftRound{votes: make(map[int]ftVote)}
		w.ftRounds[gen] = rd
	}
	return rd
}

// KillRank models the crash-stop failure of rank id at the current
// virtual instant: its progress thread stops, its retransmission
// timers are silenced, and err is delivered to its proc as a panic
// (recovered by the rank's abort handler into World.RankErrors).
// The fabric-side crash (dead NIC) is separate — cluster wires
// fabric.SetCrashes and this together. Must be called from simulation
// context after Start has spawned the ranks.
func (w *World) KillRank(id int, err error) {
	r := w.ranks[id]
	if r.proc == nil {
		// Crashed before its first dispatch: nothing ever ran.
		w.errs[id] = err
		return
	}
	r.ftStopTick()
	if r.eng != nil {
		r.eng.Stop()
	}
	if r.rel != nil {
		r.rel.Abandon()
	}
	r.proc.Kill(err)
}

// ftInit builds the rank's FT state at attach time.
func (r *Rank) ftInit() {
	fc := r.w.cfg.FT
	if fc == nil {
		return
	}
	if r.rel == nil {
		panic("mpi: Config.FT requires Config.Reliable (retry exhaustion is the failure detector)")
	}
	if mr := r.w.cfg.Reliable.MaxRetries; mr < 0 && mr != fabric.NoRetries {
		panic("mpi: Config.FT requires a finite retry budget (unlimited never detects a failure)")
	}
	cfg := *fc
	cfg.fillDefaults()
	r.ft = &ftState{cfg: cfg, dead: make(map[int]bool), agreed: make(map[int]bool), tick: ftTick{r}}
	r.ftArmTick()
}

// ftTick is the self-rearming watchdog that unparks the rank every
// heartbeat period, so a rank parked in a wait loop still sends its
// pings (and notices due retransmissions) on schedule.
type ftTick struct{ r *Rank }

func (t *ftTick) Fire() {
	t.r.proc.Unpark()
	t.r.ftArmTick()
}

func (r *Rank) ftArmTick() {
	r.ft.tickStop = r.w.sim.AfterCancel(r.ft.cfg.HeartbeatPeriod, &r.ft.tick)
}

// ftStopTick cancels the watchdog; called at finalize, abort and kill
// so the timer chain cannot keep the simulation alive.
func (r *Rank) ftStopTick() {
	if r.ft != nil {
		r.ft.tickStop.Stop()
	}
}

// deadList returns the rank's dead set, ascending.
func (ft *ftState) deadList() []int {
	out := make([]int, 0, len(ft.dead))
	for d := range ft.dead {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ftMaybePing sends due liveness pings; called from every progress
// sweep. Outside recovery each rank pings its ring successor among
// live ranks; during an agreement round it pings every expected voter
// that has not voted yet, so a rank that died mid-agreement is still
// detected and folded into the round.
func (r *Rank) ftMaybePing() {
	ft := r.ft
	now := r.proc.Now()
	if ft.nextPing != 0 && now < ft.nextPing {
		return
	}
	ft.nextPing = now.Add(ft.cfg.HeartbeatPeriod)
	for _, peer := range r.ftPingTargets() {
		r.rel.Send(r.driver, fabric.NodeID(peer), 0, 0, ftMsg{src: r.id, gen: ft.gen}.header(), "ft-ping", nil)
	}
}

func (r *Rank) ftPingTargets() []int {
	ft := r.ft
	n := len(r.w.ranks)
	if ft.recovering {
		rd := r.w.ftRound(ft.gen)
		var out []int
		for id := 0; id < n; id++ {
			if id == r.id || ft.dead[id] || r.w.ftFin[id] {
				continue
			}
			if _, ok := rd.votes[id]; !ok {
				out = append(out, id)
			}
		}
		return out
	}
	for k := 1; k < n; k++ {
		s := (r.id + k) % n
		if !ft.dead[s] {
			return []int{s}
		}
	}
	return nil
}

// ftSuspect records a detected failure: mark the peer dead, broadcast
// the revocation to every live peer, and flag the rank to raise at its
// next safe point. Never panics — it runs inside progress sweeps,
// possibly on the progress thread's proc.
func (r *Rank) ftSuspect(peer int, op string) {
	ft := r.ft
	if peer == r.id || ft.dead[peer] {
		return
	}
	ft.dead[peer] = true
	ft.rev++
	if !ft.recovering && !ft.retired {
		ft.failed = true
	}
	if r.calls.Trk != nil {
		r.calls.Trk.Instant("ft", "suspect", r.proc.Now(),
			trace.Args{Peer: peer, Detail: op})
	}
	dead := ft.deadList()
	for id := range r.w.ranks {
		if id == r.id || ft.dead[id] {
			continue
		}
		r.rel.SendPayload(r.driver, fabric.NodeID(id), revokeMsg{src: r.id, dead: dead}, "ft-revoke")
	}
	r.proc.Unpark()
}

// ftRevoked merges a peer's failure announcement.
func (r *Rank) ftRevoked(m revokeMsg) {
	ft := r.ft
	if ft == nil {
		return
	}
	grew := false
	for _, d := range m.dead {
		if d != r.id && !ft.dead[d] {
			ft.dead[d] = true
			grew = true
		}
	}
	if grew {
		ft.rev++
		if !ft.recovering && !ft.retired {
			ft.failed = true
		}
		if r.calls.Trk != nil {
			r.calls.Trk.Instant("ft", "revoke", r.proc.Now(),
				trace.Args{Peer: m.src, Detail: fmt.Sprintf("dead=%v", ft.deadList())})
		}
	}
}

// deliveryFail routes a reliability-layer failure. Under fault
// tolerance, retry exhaustion against any peer is interpreted as that
// peer's crash-stop failure (hardware acks make false suspicion of a
// live peer impossible on a loss-free link, and merely improbable
// under loss with an adequate budget); the error is absorbed into
// detection state and raised later at a safe point. Without FT the
// rank aborts with the structured error, as before.
func (r *Rank) deliveryFail(err error) {
	if r.ft != nil {
		if de, ok := asDeliveryError(err); ok {
			r.ftSuspect(int(de.Dst), de.Op)
			return
		}
	}
	r.commFail(err)
}

// ftRaise aborts the current operation with *ProcFailedError once a
// failure has been revoked. Called only at safe points: public call
// entry and the head of wait loops — never inside a progress sweep.
func (r *Rank) ftRaise(op string) {
	ft := r.ft
	if ft == nil || !ft.failed || ft.recovering || ft.retired {
		return
	}
	// failed stays set: every subsequent operation keeps aborting until
	// the application runs an agreement (ULFM's revoked-communicator
	// semantics). Agree clears it.
	panic(&ProcFailedError{Rank: r.id, Failed: ft.deadList(), Op: op})
}

// Protect runs f, converting the library's fault-tolerance abort
// (*ProcFailedError, raised when a peer failure is revoked) into a
// returned error after unwinding the interrupted call's accounting.
// Other aborts — structured communication errors without FT, real
// panics — propagate unchanged. This is the boundary the application
// (or cluster.RunFT) wraps around each recoverable work segment.
func (r *Rank) Protect(f func()) (err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		e, ok := v.(error)
		if !ok || !isProcFailed(e) {
			panic(v)
		}
		r.unwindCalls()
		err = e
	}()
	f()
	return nil
}

// unwindCalls closes the interrupted call's instrumentation and time
// accounting after an abort unwound through it, and pops any monitored
// regions the application left open on the way out.
func (r *Rank) unwindCalls() {
	if d, open := r.calls.Unwind(); open {
		r.chargeCall(d)
	}
}

// ftRetire deposits the rank's permanent "finished" standing in the
// world registry, called from finalize on fault-tolerant ranks. A
// retired rank is alive (its NIC keeps acknowledging) but will never
// vote in an agreement round; survivors recovering from a later
// failure treat it as implicitly agreeing and exclude it from the
// shrunken communicator. The retirement pokes every live peer so a
// rank already parked inside Agree re-evaluates its round.
func (r *Rank) ftRetire() {
	ft := r.ft
	if ft == nil || ft.retired {
		return
	}
	ft.retired = true
	ft.failed = false
	w := r.w
	if w.ftFin == nil {
		w.ftFin = make(map[int]bool)
	}
	w.ftFin[r.id] = true
	w.ftFinVer++
	for id := range w.ranks {
		if id == r.id || ft.dead[id] {
			continue
		}
		r.rel.Send(r.driver, fabric.NodeID(id), 0, 0, ftSyncMsg{src: r.id, gen: ft.gen}.header(), "ft-retire", nil)
	}
}

// AgreeResult is the outcome of one agreement round.
type AgreeResult struct {
	// Failed is every rank agreed dead, ascending (cumulative across
	// rounds).
	Failed []int
	// NewlyFailed is the subset of Failed not present in the previous
	// agreement, ascending.
	NewlyFailed []int
	// Active is the set of world ranks that voted in this round and
	// survived it, ascending — the membership of the communicator
	// Shrink builds (live ranks that already finished their work are
	// excluded alongside the dead).
	Active []int
	// MinStep is the minimum Step voted by any active survivor: the
	// latest application step every survivor has completed, i.e. the
	// shrink-and-continue resume point.
	MinStep int
	// AllDone reports whether every active survivor voted done.
	AllDone bool
}

// Agree runs one round of the survivors' consensus on the failed-rank
// set, contributing the caller's view plus its application progress
// (step, done). It blocks until every expected voter — the world minus
// the dead and the retired — has deposited a matching vote; ranks that
// die during the round are detected (their silence exhausts ping
// retries) and folded in, and the first rank to observe full agreement
// records the decision so a voter that learns of yet another failure
// after the round closed still adopts the same result (and recovers
// again in the next generation for the remainder). All survivors
// return the same result, and the agreement generation advances in
// lockstep. Clears the revoked state when the decision covers
// everything the caller knows failed: after Agree the library is
// usable again (the caller should EpochCut and Shrink before
// communicating).
func (r *Rank) Agree(step int, done bool) AgreeResult {
	ft := r.ft
	if ft == nil {
		panic("mpi: Agree requires Config.FT")
	}
	ft.recovering = true
	defer func() { ft.recovering = false }()
	r.enterOp("Agree")
	defer r.exit()
	w := r.w
	rd := w.ftRound(ft.gen)
	for rd.decided == nil {
		// Merge the union of every deposited vote's dead set (set
		// union: iteration order does not matter).
		for _, v := range rd.votes {
			for _, d := range v.dead {
				if d != r.id && !ft.dead[d] {
					ft.dead[d] = true
					ft.rev++
				}
			}
		}
		mine := ftVote{dead: ft.deadList(), step: step, done: done}
		if cur, ok := rd.votes[r.id]; !ok || !equalInts(cur.dead, mine.dead) {
			rd.votes[r.id] = mine
			rd.version++
			// Poke every live peer: a parked voter re-reads the pool on
			// arrival, and the final deposit releases everyone.
			r.ftPoke()
		}
		if r.ftAgreed(rd) {
			rd.decided = mine.dead
			rd.version++
			r.ftPoke()
			break
		}
		ver, rev, fv := rd.version, ft.rev, w.ftFinVer
		r.waitUntil(func() bool {
			return rd.decided != nil || rd.version != ver || ft.rev != rev || w.ftFinVer != fv
		})
	}
	decided := rd.decided
	inDecided := make(map[int]bool, len(decided))
	for _, d := range decided {
		// Adopt the decision: a vote can name failures the caller has
		// not detected itself yet.
		if d != r.id && !ft.dead[d] {
			ft.dead[d] = true
			ft.rev++
		}
		inDecided[d] = true
	}
	res := AgreeResult{
		Failed:  append([]int(nil), decided...),
		MinStep: math.MaxInt,
		AllDone: true,
	}
	for id, v := range rd.votes {
		if inDecided[id] {
			continue
		}
		res.Active = append(res.Active, id)
		if v.step < res.MinStep {
			res.MinStep = v.step
		}
		if !v.done {
			res.AllDone = false
		}
	}
	sort.Ints(res.Active)
	for _, d := range res.Failed {
		if !ft.agreed[d] {
			res.NewlyFailed = append(res.NewlyFailed, d)
			ft.agreed[d] = true
		}
	}
	ft.members = res.Active
	// A failure detected after the round decided stays pending: the
	// next operation raises again and the next generation agrees on it.
	ft.failed = !equalInts(ft.deadList(), decided)
	rd.reads++
	if rd.reads >= len(res.Active) {
		delete(w.ftRounds, ft.gen)
	}
	ft.gen++
	if r.calls.Trk != nil {
		r.calls.Trk.Instant("ft", "agree", r.proc.Now(),
			trace.Args{Peer: trace.NoPeer, Size: int64(len(res.Failed)),
				Detail: fmt.Sprintf("gen=%d dead=%v min-step=%d", ft.gen, res.Failed, res.MinStep)})
	}
	return res
}

// ftPoke sends a size-0 sync message to every expected voter, so a
// peer parked inside Agree wakes and re-reads the vote pool.
func (r *Rank) ftPoke() {
	ft := r.ft
	for id := range r.w.ranks {
		if id == r.id || ft.dead[id] || r.w.ftFin[id] {
			continue
		}
		r.rel.Send(r.driver, fabric.NodeID(id), 0, 0, ftSyncMsg{src: r.id, gen: ft.gen}.header(), "ft-agree", nil)
	}
}

// ftAgreed reports whether every expected voter (world minus the
// caller's dead set and the retired) has deposited a vote whose dead
// set equals the caller's — i.e. all active survivors see the same
// union.
func (r *Rank) ftAgreed(rd *ftRound) bool {
	mine := r.ft.deadList()
	for id := range r.w.ranks {
		if id == r.id || r.ft.dead[id] || r.w.ftFin[id] {
			continue
		}
		v, ok := rd.votes[id]
		if !ok || !equalInts(v.dead, mine) {
			return false
		}
	}
	return true
}

// EpochCut abandons the failed epoch's in-flight communication state
// and opens a new recovery epoch. Every survivor must call it exactly
// once after each agreement, before communicating again:
//
//   - the reliable layer moves to a new generation (outstanding sends
//     and retransmission timers are silently dropped; duplicate
//     suppression is kept so stragglers are still recognized),
//   - posted receives, rendezvous state and pipeline pumps are
//     cleared; nonblocking collectives in flight are cancelled,
//   - completions of abandoned work requests become inert,
//   - collective sequence numbers restart so survivors replaying from
//     an agreed step use identical tags, and
//   - the message-context epoch advances, isolating any pre-failure
//     traffic still in the network from post-recovery matching.
//     Arrivals already stamped with a future epoch (a fast survivor's
//     first post-cut messages) are retained.
//
// The cut is the epoch boundary the analysis layers key on: it is
// emitted as an "epoch" instant on the rank's trace track.
func (r *Rank) EpochCut() {
	ft := r.ft
	if ft == nil {
		panic("mpi: EpochCut requires Config.FT")
	}
	ft.epoch++
	if r.rel != nil {
		r.rel.Abandon()
	}
	r.recvQ = nil
	floor := ft.epoch * ctxEpochStride
	var keep []inbound
	for _, ib := range r.unexpQ {
		if ib.ctx >= floor {
			keep = append(keep, ib)
		}
	}
	r.unexpQ = keep
	r.ctsWaiters = make(map[uint64]*Request)
	r.rxActive = make(map[uint64]*Request)
	r.pump = nil
	for range r.colPending {
		r.eng.OpDone() // rebalance the engine's outstanding-work count
	}
	r.colPending = nil
	for i := range r.wrs {
		r.staleWR[r.wrs[i].id] = true
	}
	clear(r.wrs)
	r.wrs = r.wrs[:0]
	r.colSeq = 0
	if r.worldComm != nil {
		r.worldComm.colSeq = 0
	}
	r.calls.Mon.EpochCut()
	if r.calls.Trk != nil {
		r.calls.Trk.Instant("ft", "epoch", r.proc.Now(),
			trace.Args{Peer: trace.NoPeer, Size: int64(ft.epoch),
				Detail: fmt.Sprintf("dead=%v", ft.deadList())})
	}
}

// Epoch returns the rank's current recovery epoch (0 before any
// failure).
func (r *Rank) Epoch() int {
	if r.ft == nil {
		return 0
	}
	return r.ft.epoch
}

// Shrink builds the communicator of surviving ranks after an
// agreement: members are the active survivors of the last Agree round
// (live ranks that already finished are excluded alongside the dead),
// in ascending world order, remapped to dense communicator ranks. All
// survivors of the same agreement build the same communicator: its id
// is the agreement generation, which is at least 1 once an Agree has
// run and so never the world's 0. Rank-level collectives (r.Barrier()
// etc.) still span the whole world including the dead — after a
// failure, communicate through the shrunken communicator.
func (r *Rank) Shrink() *Comm {
	ft := r.ft
	if ft == nil {
		panic("mpi: Shrink requires Config.FT")
	}
	if ft.gen == 0 {
		panic("mpi: Shrink before any Agree")
	}
	members := ft.members
	myIdx := -1
	for i, m := range members {
		if m == r.id {
			myIdx = i
		}
	}
	if myIdx < 0 {
		panic("mpi: Shrink called by an excluded rank")
	}
	return &Comm{
		r:       r,
		id:      ft.gen,
		members: members,
		myIdx:   myIdx,
	}
}
