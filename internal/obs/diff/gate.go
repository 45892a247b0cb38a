package diff

// The CI regression gate: a report plus thresholds yields a list of
// violations.  Simulated-time thresholds can be tight: simulated
// seconds are a pure function of the code, so any drift is a real
// change.

import (
	"fmt"
	"math"
)

// Thresholds configures Gate.
type Thresholds struct {
	// SimRatio fails a run whose current simulated time exceeds
	// base*SimRatio (and the totals likewise).  <=0 disables.
	SimRatio float64
	// SimAbs is the absolute floor below which a simulated-time
	// regression is ignored (guards tiny bases against ratio blowups).
	SimAbs float64
	// RequireComparable fails when the two ledgers' config digests
	// differ — a CI gate comparing against a committed baseline wants
	// this: an incomparable pair means the baseline is stale, not that
	// the code regressed.
	RequireComparable bool
	// FailOnFlip fails on any verdict flip, regardless of time.  With
	// it off flips only fail through the time thresholds (a flip that
	// makes the run faster is a finding, not a violation).
	FailOnFlip bool
}

// DefaultThresholds: simulated time may not regress beyond 0.1% (exact
// runs — this tolerates only genuine noise-free drift being waved
// through deliberately).
func DefaultThresholds() Thresholds {
	return Thresholds{SimRatio: 1.001, SimAbs: 1e-9, RequireComparable: true}
}

// Violation is one gate failure.
type Violation struct {
	Kind string `json:"kind"` // sim-time | verdict-flip | comparability
	Msg  string `json:"msg"`
}

// Gate evaluates the report against the thresholds and returns every
// violation (empty: the gate passes).
func (r *Report) Gate(th Thresholds) []Violation {
	var vs []Violation
	if th.RequireComparable && !r.Comparable {
		vs = append(vs, Violation{Kind: "comparability",
			Msg: fmt.Sprintf("config digests differ (base %s, current %s) — refresh the baseline",
				orDash(r.Base.ConfigDigest), orDash(r.Cur.ConfigDigest))})
	}
	if th.RequireComparable && (len(r.BaseOnly) > 0 || len(r.CurOnly) > 0) {
		vs = append(vs, Violation{Kind: "comparability",
			Msg: fmt.Sprintf("%d run(s) only in base, %d only in current — the ledgers do not align",
				len(r.BaseOnly), len(r.CurOnly))})
	}
	simRegressed := func(base, d float64) bool {
		if th.SimRatio <= 0 || d <= th.SimAbs {
			return false
		}
		return d > (th.SimRatio-1)*math.Abs(base)
	}
	for i := range r.Runs {
		rd := &r.Runs[i]
		if simRegressed(rd.BaseTime, rd.DTime) {
			comp, cv := componentName(rd.DCompute, rd.DOverhead, rd.DWait, rd.DResidual)
			vs = append(vs, Violation{Kind: "sim-time",
				Msg: fmt.Sprintf("run %s: simulated time regressed %+.6fs (%.4fx > %.4fx);"+
					" largest component %s %+.6fs",
					rd.Key, rd.DTime, rd.Ratio(), th.SimRatio, comp, cv)})
		}
		if th.FailOnFlip && rd.Flips > 0 {
			vs = append(vs, Violation{Kind: "verdict-flip",
				Msg: fmt.Sprintf("run %s: %d verdict flip(s)", rd.Key, rd.Flips)})
		}
	}
	if simRegressed(r.Totals.BaseTime, r.Totals.DTime) {
		vs = append(vs, Violation{Kind: "sim-time",
			Msg: fmt.Sprintf("total simulated time regressed %+.6fs (%.6fs -> %.6fs, limit %.4fx)",
				r.Totals.DTime, r.Totals.BaseTime, r.Totals.CurTime, th.SimRatio)})
	}
	return vs
}
