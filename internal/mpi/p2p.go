package mpi

// Point-to-point operations. Every public call is bracketed by
// enter/exit, which drives the CALL_ENTER/CALL_EXIT instrumentation
// and the rank's MPI-time accounting.

// Send transmits size bytes to dst with the given tag and blocks until
// the library no longer needs the send buffer (eager: data copied out
// and on the wire; rendezvous: protocol complete).
func (r *Rank) Send(dst, tag, size int) {
	r.enterOpPS("Send", dst, int64(size))
	defer r.exit()
	req := r.newReq(reqSend, dst, tag, size)
	r.startSend(req, ctxUser, true)
	r.await(req)
}

// Isend starts a non-blocking send and returns its request handle.
func (r *Rank) Isend(dst, tag, size int) *Request {
	r.enterOpPS("Isend", dst, int64(size))
	defer r.exit()
	req := r.newReq(reqSend, dst, tag, size)
	r.startSend(req, ctxUser, false)
	return req
}

// Recv blocks until a message matching (src, tag) — either may be a
// wildcard — has been received, and returns its status.
func (r *Rank) Recv(src, tag int) Status {
	r.enterOpPS("Recv", src, -1)
	defer r.exit()
	return r.await(r.postRecv(src, tag, ctxUser))
}

// Irecv posts a non-blocking receive and returns its request handle.
func (r *Rank) Irecv(src, tag int) *Request {
	r.enterOpPS("Irecv", src, -1)
	defer r.exit()
	return r.postRecv(src, tag, ctxUser)
}

// Wait blocks until the request completes and returns its status.
func (r *Rank) Wait(req *Request) Status {
	r.enterOp("Wait")
	defer r.exit()
	req.check()
	r.waitUntil(func() bool { return req.done })
	return req.status
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs ...*Request) {
	r.enterOp("Waitall")
	defer r.exit()
	for _, q := range reqs {
		q.check()
	}
	r.waitUntil(func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
}

// Test invokes the progress engine once and reports whether the
// request has completed.
func (r *Rank) Test(req *Request) bool {
	r.enterOp("Test")
	defer r.exit()
	req.check()
	r.progress()
	return req.done
}

// Iprobe invokes the progress engine and reports whether a message
// matching (src, tag) could be received now. Besides its query role,
// Iprobe is the classic polling-MPI idiom for forcing communication
// progress from inside a computation region — the code change the
// paper applies to NAS SP.
func (r *Rank) Iprobe(src, tag int) bool {
	r.enterOp("Iprobe")
	defer r.exit()
	r.progress()
	return r.findUnexpected(src, tag, r.ectx(ctxUser)) >= 0
}

// Sendrecv performs a simultaneous send to dst and receive from src,
// blocking until both complete; it returns the receive status.
func (r *Rank) Sendrecv(dst, sendTag, sendSize, src, recvTag int) Status {
	r.enterOpPS("Sendrecv", dst, int64(sendSize))
	defer r.exit()
	sreq := r.newReq(reqSend, dst, sendTag, sendSize)
	r.startSend(sreq, ctxUser, true)
	return r.awaitBoth(sreq, r.postRecv(src, recvTag, ctxUser))
}
