package scenario

import (
	"fmt"
	"math"

	"plum/internal/adapt"
	"plum/internal/machine"
	"plum/internal/mesh"
)

// Kind names a scenario family.  The kind picks the league-table
// grouping and requires its matching section; the other sections remain
// composable (a front scenario may also declare a burst, a straggler
// scenario a moving front, ...).
const (
	KindFront     = "front"
	KindBurst     = "burst"
	KindStraggler = "straggler"
	KindMultiJob  = "multijob"
)

// Kinds lists the scenario families in presentation order.
func Kinds() []string {
	return []string{KindFront, KindBurst, KindStraggler, KindMultiJob}
}

// Spec is one declarative scenario: a complete description of an
// unsteady adaption workload.  Every field is data — no hooks — so a
// spec round-trips through JSON and two equal specs generate bitwise
// identical worlds.
type Spec struct {
	// Name identifies the scenario (corpus file base name, ledger run
	// key, league-table row).  Lowercase letters, digits, and dashes.
	Name string `json:"name"`
	// Kind is the scenario family: front, burst, straggler, multijob.
	Kind string `json:"kind"`
	// P is the simulated processor count (default 8).
	P int `json:"p,omitempty"`
	// Cycles is the number of adapt-balance-solve epochs (default 4).
	Cycles int `json:"cycles,omitempty"`
	// Model names the base machine topology (machine.ByName).
	Model string `json:"model"`
	// Mapper selects the processor reassignment algorithm: "heu"
	// (default), "opt", "bmcm", or "topo".
	Mapper string `json:"mapper,omitempty"`
	// Frac is the base marked-edge fraction per cycle; a burst section
	// overrides it with its floor/peak schedule.
	Frac float64 `json:"frac"`
	// CoarsenBelow releases resolution behind the feature: edges whose
	// indicator value falls below it are coarsened before refining.
	CoarsenBelow float64 `json:"coarsen_below,omitempty"`

	Front     *FrontSpec     `json:"front,omitempty"`
	Burst     *BurstSpec     `json:"burst,omitempty"`
	Straggler *StragglerSpec `json:"straggler,omitempty"`
	MultiJob  *MultiJobSpec  `json:"multijob,omitempty"`
}

// FrontSpec moves a shock-surface indicator across the domain: the
// front's x position advances linearly from X0 to X1 (fractions of the
// domain length) over the run's cycles.
type FrontSpec struct {
	// Shape is the indicator surface: "cylinder" (default) or "plane".
	Shape string `json:"shape,omitempty"`
	// X0 and X1 are the start and end positions as fractions of the
	// domain's x extent; X1 >= X0 keeps the advance monotone.
	X0 float64 `json:"x0"`
	X1 float64 `json:"x1"`
	// Radius and Width size the surface and its decay length, as
	// fractions of the domain's y extent.  Radius is ignored by planes.
	Radius float64 `json:"radius,omitempty"`
	Width  float64 `json:"width"`
}

// BurstSpec schedules a shock arrival: the marked fraction sits at
// Floor until the Arrival cycle, spikes to Peak, then decays
// geometrically by Decay per cycle (never below Floor).
type BurstSpec struct {
	Arrival int     `json:"arrival"`
	Peak    float64 `json:"peak"`
	Decay   float64 `json:"decay"`
	Floor   float64 `json:"floor"`
}

// StragglerSpec slows a set of ranks by a constant factor for a window
// of cycles: From <= cycle < To.  A zero To means the whole run.  The
// slowdown is applied through the same per-rank speed mechanism as
// machine.Hetero, but only inside the window — the balancer's
// partitioner targets, derived before the run, never see it.
type StragglerSpec struct {
	Ranks    []int   `json:"ranks"`
	Slowdown float64 `json:"slowdown"`
	From     int     `json:"from,omitempty"`
	To       int     `json:"to,omitempty"`
}

// MultiJobSpec models a co-scheduled unsteady job contending for the
// fat tree's up-links: during the peer's busy windows — Duty of every
// Period simulated seconds, offset by Phase periods — each inter-group
// transfer pays Load extra per-byte times the leaf link's, as if the
// up-link's residual bandwidth were split with the peer's burst.
type MultiJobSpec struct {
	Period float64 `json:"period"`
	Duty   float64 `json:"duty"`
	Load   float64 `json:"load"`
	Phase  float64 `json:"phase,omitempty"`
}

// Domain carries the indicator geometry of the global mesh: the box
// extents the fractional spec coordinates scale against.
type Domain struct {
	LX, LY float64
}

// FrontX returns the front's absolute x position at the given cycle:
// linear interpolation from X0 to X1 over the run, monotone
// nondecreasing in the cycle number whenever X1 >= X0 (pinned by the
// generator property tests).  Scenarios without a front section keep
// the static mid-domain position.
func (s *Spec) FrontX(cycle int, dom Domain) float64 {
	if s.Front == nil {
		return 0.5 * dom.LX
	}
	den := s.Cycles - 1
	if den < 1 {
		den = 1
	}
	t := float64(cycle) / float64(den)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return (s.Front.X0 + (s.Front.X1-s.Front.X0)*t) * dom.LX
}

// Indicator composes the per-cycle error-indicator function of the
// scenario over the given domain: a moving cylinder or plane front when
// a front section is declared, else the static mid-domain cylinder of
// the paper's experiments.
func (s *Spec) Indicator(dom Domain) func(cycle int) func(mesh.Vec3) float64 {
	radius, width := 0.35, 0.17
	shape := "cylinder"
	if f := s.Front; f != nil {
		if f.Radius > 0 {
			radius = f.Radius
		}
		width = f.Width
		if f.Shape != "" {
			shape = f.Shape
		}
	}
	r, w := radius*dom.LY, width*dom.LY
	return func(cycle int) func(mesh.Vec3) float64 {
		x := s.FrontX(cycle, dom)
		if shape == "plane" {
			return adapt.ShockPlaneIndicator(
				mesh.Vec3{x, 0, 0}, mesh.Vec3{1, 0, 0}, w)
		}
		return adapt.ShockCylinderIndicator(
			mesh.Vec3{x, dom.LY / 2, 0}, mesh.Vec3{0, 0, 1}, r, w)
	}
}

// FracAt returns the marked-edge fraction for the given cycle: the
// burst schedule when declared, else the constant base fraction.
func (s *Spec) FracAt(cycle int) float64 {
	b := s.Burst
	if b == nil {
		return s.Frac
	}
	if cycle < b.Arrival {
		return b.Floor
	}
	f := b.Peak * math.Pow(b.Decay, float64(cycle-b.Arrival))
	if f < b.Floor {
		return b.Floor
	}
	return f
}

// FracBounds returns the declared envelope of the marked-edge fraction:
// every FracAt value over the run's cycles lies in [lo, hi] (pinned by
// the generator property tests).
func (s *Spec) FracBounds() (lo, hi float64) {
	if b := s.Burst; b != nil {
		return b.Floor, b.Peak
	}
	return s.Frac, s.Frac
}

// SpeedsAt returns the per-rank speed vector of the given cycle: all
// ones outside a straggler window, the slowdown factors inside it.  The
// vector is exactly what the machine wrapper multiplies into the base
// speeds, so it round-trips through machine.Hetero unchanged — the
// contract the generator property tests pin.
func (s *Spec) SpeedsAt(cycle int) []float64 {
	speeds := make([]float64, s.P)
	for i := range speeds {
		speeds[i] = 1
	}
	st := s.Straggler
	if st == nil {
		return speeds
	}
	to := st.To
	if to == 0 {
		to = s.Cycles
	}
	if cycle < st.From || cycle >= to {
		return speeds
	}
	for _, r := range st.Ranks {
		speeds[r] = st.Slowdown
	}
	return speeds
}

// BuildMachine instantiates the scenario's topology: the named base
// machine, wrapped with the multi-job background load and/or the
// per-cycle straggler speeds when declared.  The returned *CycleSpeed
// is nil when no straggler section exists; otherwise the driver must
// call SetCycle at each epoch boundary.  Each call returns fresh
// contention state.
func (s *Spec) BuildMachine() (machine.Model, *CycleSpeed, error) {
	m, err := machine.ByName(s.Model, s.P)
	if err != nil {
		return nil, nil, err
	}
	if mj := s.MultiJob; mj != nil {
		m = &Background{
			Model:  m,
			period: mj.Period,
			busy:   mj.Duty * mj.Period,
			phase:  mj.Phase * mj.Period,
			extra:  mj.Load * machine.SP2Link().PerByte,
		}
	}
	if s.Straggler == nil {
		return m, nil, nil
	}
	cs := &CycleSpeed{Model: m, spec: s, cycle: -1}
	return cs, cs, nil
}

// Validate checks every cross-field constraint of the spec, returning a
// *FieldError naming the first offending field.  Load calls it; direct
// constructors should too.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fieldErr("name", "required")
	}
	for _, c := range s.Name {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return fieldErr("name", "must be lowercase letters, digits, and dashes, got %q", s.Name)
		}
	}
	switch s.Kind {
	case KindFront, KindBurst, KindStraggler, KindMultiJob:
	case "":
		return fieldErr("kind", "required (one of %v)", Kinds())
	default:
		return fieldErr("kind", "unknown kind %q (one of %v)", s.Kind, Kinds())
	}
	if s.P < 2 || s.P > 1024 {
		return fieldErr("p", "must be in [2, 1024], got %d", s.P)
	}
	if s.Cycles < 1 || s.Cycles > 64 {
		return fieldErr("cycles", "must be in [1, 64], got %d", s.Cycles)
	}
	if _, err := machine.ByName(s.Model, s.P); err != nil {
		return fieldErr("model", "unknown model %q (one of %v)", s.Model, machine.Names())
	}
	switch s.Mapper {
	case "", "heu", "opt", "bmcm", "topo":
	default:
		return fieldErr("mapper", "unknown mapper %q (one of heu, opt, bmcm, topo)", s.Mapper)
	}
	if !inUnit(s.Frac) || s.Frac == 0 {
		return fieldErr("frac", "must be in (0, 1], got %v", s.Frac)
	}
	if s.CoarsenBelow < 0 || s.CoarsenBelow >= 1 || math.IsNaN(s.CoarsenBelow) {
		return fieldErr("coarsen_below", "must be in [0, 1), got %v", s.CoarsenBelow)
	}
	if err := s.validateSections(); err != nil {
		return err
	}
	// The kind promises its own dynamics are present.
	switch {
	case s.Kind == KindFront && s.Front == nil:
		return fieldErr("front", "required for kind %q", KindFront)
	case s.Kind == KindBurst && s.Burst == nil:
		return fieldErr("burst", "required for kind %q", KindBurst)
	case s.Kind == KindStraggler && s.Straggler == nil:
		return fieldErr("straggler", "required for kind %q", KindStraggler)
	case s.Kind == KindMultiJob && s.MultiJob == nil:
		return fieldErr("multijob", "required for kind %q", KindMultiJob)
	}
	return nil
}

func (s *Spec) validateSections() error {
	if f := s.Front; f != nil {
		switch f.Shape {
		case "", "cylinder", "plane":
		default:
			return fieldErr("front.shape", "must be cylinder or plane, got %q", f.Shape)
		}
		if !inUnit(f.X0) || !inUnit(f.X1) {
			return fieldErr("front.x0", "positions must be in [0, 1], got x0=%v x1=%v", f.X0, f.X1)
		}
		if f.X1 < f.X0 {
			return fieldErr("front.x1", "must be >= x0 (monotone advance), got x0=%v x1=%v", f.X0, f.X1)
		}
		if f.Radius < 0 || f.Radius > 1 || math.IsNaN(f.Radius) {
			return fieldErr("front.radius", "must be in [0, 1] (fraction of LY), got %v", f.Radius)
		}
		if f.Width <= 0 || f.Width > 1 || math.IsNaN(f.Width) {
			return fieldErr("front.width", "must be in (0, 1] (fraction of LY), got %v", f.Width)
		}
	}
	if b := s.Burst; b != nil {
		if b.Arrival < 0 || b.Arrival >= s.Cycles {
			return fieldErr("burst.arrival", "must be in [0, cycles), got %d with cycles=%d", b.Arrival, s.Cycles)
		}
		if !inUnit(b.Peak) || b.Peak == 0 {
			return fieldErr("burst.peak", "must be in (0, 1], got %v", b.Peak)
		}
		if b.Decay <= 0 || b.Decay >= 1 || math.IsNaN(b.Decay) {
			return fieldErr("burst.decay", "must be in (0, 1), got %v", b.Decay)
		}
		if b.Floor < 0 || b.Floor > b.Peak || math.IsNaN(b.Floor) {
			return fieldErr("burst.floor", "must be in [0, peak], got floor=%v peak=%v", b.Floor, b.Peak)
		}
	}
	if st := s.Straggler; st != nil {
		if len(st.Ranks) == 0 {
			return fieldErr("straggler.ranks", "at least one rank required")
		}
		for _, r := range st.Ranks {
			if r < 0 || r >= s.P {
				return fieldErr("straggler.ranks", "rank %d out of range [0, %d)", r, s.P)
			}
		}
		if st.Slowdown <= 0 || st.Slowdown > 1 || math.IsNaN(st.Slowdown) {
			return fieldErr("straggler.slowdown", "must be in (0, 1], got %v", st.Slowdown)
		}
		to := st.To
		if to == 0 {
			to = s.Cycles
		}
		if st.From < 0 || st.From >= to || to > s.Cycles {
			return fieldErr("straggler.from", "window must satisfy 0 <= from < to <= cycles,"+
				" got from=%d to=%d cycles=%d", st.From, st.To, s.Cycles)
		}
	}
	if mj := s.MultiJob; mj != nil {
		if s.Model != "fattree" {
			return fieldErr("multijob", "requires model \"fattree\" (shared up-links), got %q", s.Model)
		}
		if mj.Period <= 0 || math.IsInf(mj.Period, 0) || math.IsNaN(mj.Period) {
			return fieldErr("multijob.period", "must be a positive duration in simulated seconds, got %v", mj.Period)
		}
		if !inUnit(mj.Duty) {
			return fieldErr("multijob.duty", "must be in [0, 1], got %v", mj.Duty)
		}
		if mj.Load < 0 || mj.Load > 1e6 || math.IsNaN(mj.Load) {
			return fieldErr("multijob.load", "must be in [0, 1e6] (per-byte multiples of the leaf link), got %v", mj.Load)
		}
		if mj.Phase < 0 || mj.Phase >= 1 || math.IsNaN(mj.Phase) {
			return fieldErr("multijob.phase", "must be in [0, 1) (fraction of a period), got %v", mj.Phase)
		}
	}
	return nil
}

// inUnit reports x in [0, 1] and finite.
func inUnit(x float64) bool { return x >= 0 && x <= 1 && !math.IsNaN(x) }

// FieldError is every loader and validation failure: the JSON field
// that offends and why.  Hostile input never panics and never produces
// an anonymous error — the fuzz harness pins both.
type FieldError struct {
	Field  string
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("scenario: field %q: %s", e.Field, e.Reason)
}

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}
