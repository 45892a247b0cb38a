package machine

// Hetero wraps any network model with per-rank compute speed
// multipliers, modeling a machine assembled from several processor
// generations.  The balancer's gain model assumes homogeneous
// processors; running the framework on a Hetero machine exposes how far
// that assumption degrades the decision quality.  Every method but Name
// and Speed is the base model's.
type Hetero struct {
	Model
	speed []float64
}

// NewHetero wraps base with per-rank speeds; len(speed) must equal
// base.Ranks() and every speed must be positive.
func NewHetero(base Model, speed []float64) *Hetero {
	if len(speed) != base.Ranks() {
		panic("machine: hetero speed vector length must match rank count")
	}
	for _, s := range speed {
		if s <= 0 {
			panic("machine: hetero speeds must be positive")
		}
	}
	return &Hetero{Model: base, speed: speed}
}

// TwoGenerationSpeeds returns a speed vector whose first half runs at
// baseline and second half at the given relative speed — two processor
// generations in one machine.
func TwoGenerationSpeeds(p int, second float64) []float64 {
	speed := make([]float64, p)
	for i := range speed {
		if i < (p+1)/2 {
			speed[i] = 1
		} else {
			speed[i] = second
		}
	}
	return speed
}

// Name implements Model.
func (h *Hetero) Name() string { return "hetero" }

// Speed implements Model: rank r's configured multiplier.
func (h *Hetero) Speed(r int) float64 { return h.speed[r] }
