package machine

import "sync"

// FatTree places the ranks at the leaves of a radix-R tree: ranks whose
// indices agree in all base-R digits above level l are separated by 2*l
// hops (up to the lowest common switch and back down).  Per-pair latency
// grows with hop count, and every leaf group of R ranks shares one
// up-link: messages leaving the group serialize on it, so a burst of
// off-group traffic from co-located ranks queues — the congestion effect
// a flat model cannot express.
//
// The up-link reservation is a contention queue in simulated time: a
// transfer ready at depart starts at max(depart, link busy-until) and
// occupies the link for nbytes * uplinkPerByte seconds.  The fat tree
// reports Contended, so the msg runtime's event engine serializes the
// reservations in (time, rank, seq) order — the deterministic
// reservation pass — making contended timings bitwise reproducible for
// any GOMAXPROCS.  The per-group mutex remains only as a safety net for
// callers driving the model outside the engine.
type FatTree struct {
	p             int
	radix         int
	link          LinkParams
	hopLatency    float64 // per-hop wire latency, seconds
	uplinkPerByte float64 // shared up-link serialization, seconds/byte

	uplinks []uplink // one per leaf group
}

type uplink struct {
	mu   sync.Mutex
	busy float64 // simulated time until which the link is occupied
}

// NewFatTree builds a p-rank fat tree with the given leaf-link
// constants, per-hop latency, and shared up-link bandwidth.  radix < 2
// panics.
func NewFatTree(p, radix int, link LinkParams, hopLatency, uplinkPerByte float64) *FatTree {
	if radix < 2 {
		panic("machine: fat-tree radix must be at least 2")
	}
	groups := (p + radix - 1) / radix
	if groups < 1 {
		groups = 1
	}
	return &FatTree{
		p: p, radix: radix, link: link,
		hopLatency: hopLatency, uplinkPerByte: uplinkPerByte,
		uplinks: make([]uplink, groups),
	}
}

// Name implements Model.
func (t *FatTree) Name() string { return "fattree" }

// Ranks implements Model.
func (t *FatTree) Ranks() int { return t.p }

// Hops implements Model: twice the level of the lowest common ancestor
// switch of the two leaves.
func (t *FatTree) Hops(src, dst int) int {
	l := 0
	for src != dst {
		src /= t.radix
		dst /= t.radix
		l++
	}
	return 2 * l
}

// Pair implements Model: setup and bandwidth come from the leaf link;
// latency accumulates per hop.
func (t *FatTree) Pair(src, dst int) LinkParams {
	return LinkParams{
		Setup:   t.link.Setup,
		PerByte: t.link.PerByte,
		Latency: t.hopLatency * float64(t.Hops(src, dst)),
	}
}

// Speed implements Model: all ranks run at baseline speed.
func (t *FatTree) Speed(r int) float64 { return 1 }

// Acquire implements Model: transfers leaving src's leaf group reserve
// the group's shared up-link; intra-group transfers are contention-free.
func (t *FatTree) Acquire(src, dst, nbytes int, depart float64) float64 {
	g := src / t.radix
	if g == dst/t.radix {
		return depart
	}
	u := &t.uplinks[g]
	u.mu.Lock()
	start := depart
	if u.busy > start {
		start = u.busy
	}
	u.busy = start + float64(nbytes)*t.uplinkPerByte
	u.mu.Unlock()
	return start
}

// Contended implements Model: transfers leaving their leaf group
// reserve the group's shared up-link, so they must be processed in
// simulated-time order; intra-group transfers touch no shared state.
func (t *FatTree) Contended(src, dst int) bool { return src/t.radix != dst/t.radix }

// Reset implements Model: clears all up-link reservations.
func (t *FatTree) Reset() {
	for i := range t.uplinks {
		u := &t.uplinks[i]
		u.mu.Lock()
		u.busy = 0
		u.mu.Unlock()
	}
}
