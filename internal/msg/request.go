package msg

// Nonblocking receives.  The runtime's sends are already asynchronous
// (MPI eager mode), so only the receive side has a nonblocking form:
// Irecv + Wait lets a rank post its receives, overlap local compute with
// the messages' wire time, and only then pay the completion wait — the
// split-SpMV halo overlap of internal/linalg is built on exactly this.

// Request is the handle to a posted receive, a plain value: Irecv
// allocates nothing, so a caller that posts receives on every exchange
// can keep its requests in a reused slice.  A Request is owned by the
// rank that created it and must be completed with Wait on that rank,
// through one addressable copy (a slice element or a variable): Wait
// records completion in the value it is called on, and a copy taken
// before completion would receive again.
type Request struct {
	c        *Comm
	src, tag int
	done     bool
	msg      *Message
}

// Irecv posts a receive for (src, tag) without blocking.  Matching is
// deferred to Wait: relative to the rank's other receives on the same
// (src, tag) pair, messages match in completion order, so programs that
// complete requests in post order keep MPI's posted-receive FIFO
// semantics.  src may be AnySource and tag may be AnyTag.
func (c *Comm) Irecv(src, tag int) Request {
	return Request{c: c, src: src, tag: tag}
}

// Wait blocks until the request completes and returns the received
// message.  Under the cost model a receive charges exactly like Recv at
// the time Wait is called: the clock jumps to the message arrival only
// if the arrival is still in the future — wire time that passed while
// the rank computed is hidden.  Wait is idempotent; repeated calls
// return the same message.
func (r *Request) Wait() *Message {
	if r.done {
		return r.msg
	}
	r.done = true
	r.msg = r.c.Recv(r.src, r.tag)
	return r.msg
}
