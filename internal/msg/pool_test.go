package msg

import (
	"testing"
)

// The runtime pool's contract: releasing a message hands its struct and
// payload buffer back to the world, the next send of a fitting size
// recycles both, and none of it is observable — envelopes, payloads,
// delivery order, and wildcard matching behave exactly as if every
// message were freshly allocated.

// TestReleaseRecyclesMessage: after Release, the next same-size send
// reuses the released struct and buffer (LIFO pool), and the recycled
// message carries the new envelope and payload only.
func TestReleaseRecyclesMessage(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			// Acks sequence the sends after the receiver's releases —
			// otherwise both allocate before anything returns to the pool.
			c.Send(1, 1, []byte{1, 2, 3})
			c.Release(c.Recv(1, 99)) // return the ack's shell to the pool too
			c.Send(1, 2, []byte{4, 5, 6})
			return
		}
		m1 := c.Recv(0, 1)
		buf1 := &m1.Data[0]
		c.Release(m1)
		c.Send(0, 99, nil)
		m2 := c.Recv(0, 2)
		if m1 != m2 {
			t.Error("released message struct was not recycled")
		}
		if &m2.Data[0] != buf1 {
			t.Error("released payload buffer was not recycled")
		}
		if m2.Src != 0 || m2.Tag != 2 || string(m2.Data) != "\x04\x05\x06" {
			t.Errorf("recycled message has wrong contents: %+v", m2)
		}
	})
}

// TestPoolSizeClasses: buffers recycle within their power-of-two class
// and a larger request does not receive a smaller buffer.
func TestPoolSizeClasses(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]byte, 9)) // class 16
			c.Release(c.Recv(1, 99))
			c.Send(1, 2, make([]byte, 33)) // class 64
			c.Release(c.Recv(1, 99))
			c.Send(1, 3, make([]byte, 12)) // fits class 16 again
			return
		}
		m1 := c.Recv(0, 1)
		if cap(m1.Data) != 16 {
			t.Errorf("9-byte payload got cap %d, want 16", cap(m1.Data))
		}
		buf1 := &m1.Data[0]
		c.Release(m1)
		c.Send(0, 99, nil)
		m2 := c.Recv(0, 2) // larger: must not reuse the 16-byte buffer
		if cap(m2.Data) != 64 {
			t.Errorf("33-byte payload got cap %d, want 64", cap(m2.Data))
		}
		c.Release(m2)
		c.Send(0, 99, nil)
		m3 := c.Recv(0, 3) // 12 bytes: recycles the 16-byte buffer
		if &m3.Data[0] != buf1 || len(m3.Data) != 12 {
			t.Errorf("12-byte payload did not recycle the class-16 buffer (len %d)", len(m3.Data))
		}
	})
}

// TestCollectivePayloadsSurviveRecycling: a payload a collective lent
// and the caller never handed back stays the caller's; the pool must
// never hand its buffer to later sends.  A broadcast result is compared
// against its value after many further collectives reused the pool.
func TestCollectivePayloadsSurviveRecycling(t *testing.T) {
	Run(4, func(c *Comm) {
		data := c.Bcast(0, []byte{9, 8, 7, 6})
		snapshot := string(data)
		for i := 0; i < 20; i++ {
			c.Bcast(i%4, make([]byte, 4))
			c.AllreduceInt64(int64(i), SumInt64)
		}
		if string(data) != snapshot {
			t.Errorf("escaped broadcast payload was overwritten: %q -> %q", snapshot, string(data))
		}
	})
}

// TestCollectiveOwnership pins the payload-ownership contract of the
// collectives.  Once one round of Gather, Bcast, Allgather and Alltoall
// (every root, so the broadcast trees have forwarding ranks) has warmed
// the pool, later rounds that hand their lent payloads back miss the
// pool for neither shells nor buffers.  And payloads a caller still
// holds are never overwritten by a later send: the lent payloads of a
// round it never released, and its own data that a result slot
// aliases, which the release calls must not pool (the own data here has
// a power-of-two capacity, which the pool would accept).
func TestCollectiveOwnership(t *testing.T) {
	const p = 5
	Run(p, func(c *Comm) {
		me := c.Rank()
		// data returns rank src's payload for dst in round r: its size
		// depends on the pair only (rounds repeat the same size classes),
		// its bytes on the round too.
		data := func(r, src, dst int) []byte {
			b := make([]byte, 8+5*src+3*dst, 64)
			for i := range b {
				b[i] = byte(r*131 + src*17 + dst*5 + i)
			}
			return b
		}
		type held struct {
			b    []byte
			want string
		}
		var hold []held
		keep := func(b []byte) { hold = append(hold, held{b, string(b)}) }
		expect := func(what string, got, want []byte) {
			if string(got) != string(want) {
				t.Errorf("rank %d %s: got %v, want %v", me, what, got, want)
			}
		}
		gather, all, recv := make([][]byte, p), make([][]byte, p), make([][]byte, p)
		parts := make([][]byte, p)
		round := func(r int, release bool) {
			for root := 0; root < p; root++ {
				own := data(r, me, root)
				if got := c.Gather(root, own, gather); got != nil {
					for src, b := range got {
						expect("gather", b, data(r, src, root))
					}
					keep(own)
					if release {
						c.ReleaseParts(got)
					} else {
						for src, b := range got {
							if src != me {
								keep(b)
							}
						}
					}
				}
				var in []byte
				if me == root {
					in = data(r, root, p)
				}
				b := c.Bcast(root, in)
				expect("bcast", b, data(r, root, p))
				if release {
					c.ReleaseBcast(root, b)
				} else if me != root {
					keep(b)
				}
			}
			own := data(r, me, p+1)
			got := c.Allgather(own, all)
			for src, b := range got {
				expect("allgather", b, data(r, src, p+1))
			}
			keep(own)
			if release {
				c.ReleaseAllgather(got)
			} else if me != 0 {
				keep(got[0][:cap(got[0])])
			} else {
				for src, b := range got {
					if src != me {
						keep(b)
					}
				}
			}
			for dst := range parts {
				parts[dst] = data(r, me, dst)
			}
			got = c.Alltoall(parts, recv)
			for src, b := range got {
				expect("alltoall", b, data(r, src, me))
			}
			keep(parts[me])
			if release {
				c.ReleaseParts(got)
			} else {
				for src, b := range got {
					if src != me {
						keep(b)
					}
				}
			}
			// 8-byte messages, the size class of the smallest parts.
			if sum := c.AllreduceInt64(int64(r), SumInt64); sum != int64(r*p) {
				t.Errorf("rank %d: allreduce %d, want %d", me, sum, r*p)
			}
		}
		misses := func() int64 {
			st := &c.world.stats
			n := st.shellMisses
			for _, m := range st.bufMisses {
				n += m
			}
			return n
		}
		round(0, false) // held to the end, never released
		round(1, true)  // warms the pool
		c.Barrier()
		warm := misses()
		for r := 2; r < 6; r++ {
			round(r, true)
		}
		c.Barrier()
		if me == 0 {
			if n := misses() - warm; n != 0 {
				t.Errorf("%d pool misses after the warm-up round, want 0", n)
			}
		}
		for _, h := range hold {
			if string(h.b) != h.want {
				t.Errorf("rank %d: a held payload was overwritten: %v, want %v", me, h.b, []byte(h.want))
			}
		}
	})
}

// TestMailboxOrderAfterSelectiveTake: unlinking from the middle of the
// intrusive delivery list preserves order for later wildcard receives —
// the regression the old slice-based order scan handled O(n).
func TestMailboxOrderAfterSelectiveTake(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 10, []byte{0})
			c.Send(1, 20, []byte{1})
			c.Send(1, 10, []byte{2})
			c.Send(1, 20, []byte{3})
			c.Send(1, 10, []byte{4})
			return
		}
		c.Recv(1-1, 20) // take the middle-ish tag-20 message first
		var got []byte
		for i := 0; i < 4; i++ {
			m := c.Recv(AnySource, AnyTag)
			got = append(got, m.Data[0])
			c.Release(m)
		}
		want := "\x00\x02\x03\x04"
		if string(got) != want {
			t.Errorf("wildcard drain order %v, want %v", got, []byte(want))
		}
	})
}

// TestSendRecvAllocFree: the steady-state exchange loop (send, recv,
// release) allocates nothing once the pool is warm.
func TestSendRecvAllocFree(t *testing.T) {
	RunModel(2, SP2Model(), func(c *Comm) {
		peer := 1 - c.Rank()
		exchange := func() {
			if c.Rank() == 0 {
				c.Send(peer, 7, []byte{1, 2, 3, 4})
				m := c.Recv(peer, 7)
				c.Release(m)
			} else {
				m := c.Recv(peer, 7)
				c.Release(m)
				c.Send(peer, 7, []byte{1, 2, 3, 4})
			}
		}
		exchange() // warm the pool
		if c.Rank() == 0 {
			// AllocsPerRun can't wrap a collective program, so count a
			// rank-0-driven ping-pong via testing.AllocsPerRun's contract:
			// the exchange itself must not allocate on either side; the
			// engine's channel ops don't allocate either.
			allocs := testing.AllocsPerRun(50, exchange)
			if allocs > 0 {
				t.Errorf("steady-state exchange allocates %.1f/op, want 0", allocs)
			}
		} else {
			for i := 0; i < 51; i++ {
				exchange()
			}
		}
	})
}
