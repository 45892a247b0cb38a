package machine

// Flat is the uniform machine of the paper: every pair of distinct ranks
// is one hop apart with identical link constants, every rank runs at
// baseline speed, and no link is shared.  It is the default machine: the
// msg runtime runs a world whose CostModel has no Topo on the Flat of
// that model's scalars, and ByName("flat") is the Flat of SP2Link().
type Flat struct {
	p    int
	link LinkParams
}

// NewFlat builds a p-rank uniform machine with the given link constants.
func NewFlat(p int, link LinkParams) *Flat {
	return &Flat{p: p, link: link}
}

// Name implements Model.
func (f *Flat) Name() string { return "flat" }

// Ranks implements Model.
func (f *Flat) Ranks() int { return f.p }

// Pair implements Model: every pair shares the same constants.
func (f *Flat) Pair(src, dst int) LinkParams { return f.link }

// Speed implements Model: all ranks run at baseline speed.
func (f *Flat) Speed(r int) float64 { return 1 }

// Hops implements Model: 0 to self, 1 to anyone else.
func (f *Flat) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}

// Acquire implements Model: no shared links, no contention.
func (f *Flat) Acquire(src, dst, nbytes int, depart float64) float64 { return depart }

// Contended implements Model: no shared link state.
func (f *Flat) Contended(src, dst int) bool { return false }

// Reset implements Model.
func (f *Flat) Reset() {}
