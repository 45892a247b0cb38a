package core

import (
	"plum/internal/obs"
	"plum/internal/remap"
)

// The simulated-plane ledger hookup: experiments that drive full
// adaption epochs (ImplicitScaling, the feedback comparison) convert
// each cycle's statistics into an obs.EpochRecord on rank 0 and flush
// the per-world record slices after the runWorlds barrier, in loop
// order.  Every quantity recorded here is already computed by the run
// (or is a pure host computation over replicated state, like the
// edge cut), so recording never touches a simulated clock.

// epochRecord flattens one cycle's statistics into a ledger record.
// edgeCut is partition.EdgeCut over the post-epoch ownership —
// a host-side evaluation of replicated state, computed by the caller on
// rank 0 only.  The profile fields stay zero on untraced runs.
func epochRecord(exp, model, run string, p, cycle int, cs CycleStats, edgeCut int64) obs.EpochRecord {
	pricing := cs.Step.Pricing
	if pricing == "" {
		// A balanced step priced no decision; the ledger names it analytic.
		pricing = remap.Analytic{}.Name()
	}
	r := obs.EpochRecord{
		Exp:     exp,
		Model:   model,
		Run:     run,
		P:       p,
		Cycle:   cycle,
		Pricing: pricing,

		Balanced: cs.Step.Balanced,
		Accepted: cs.Step.Accepted,

		Imbalance: cs.Step.Imbalance,
		WOldMax:   cs.Step.WOldMax,
		WNewMax:   cs.Step.WNewMax,
		Gain:      cs.Step.Gain,
		Cost:      cs.Step.Cost,
		TotalV:    cs.Step.Moved.CTotal,
		MaxV:      cs.Step.Moved.CMax,
		EdgeCut:   edgeCut,
		Elems:     cs.Step.Counts.Elems,

		SolveSeconds: cs.SolverTime,
		PCGIters:     cs.PCGIters,
	}
	if pr := cs.Profile; pr != nil {
		r.CPMakespan = pr.Makespan
		r.CPCompute = pr.PathCompute
		r.CPOverhead = pr.PathOverhead
		r.CPWait = pr.PathWait
		r.Ranks = make([]obs.RankShare, len(pr.Ranks))
		for i, rp := range pr.Ranks {
			r.Ranks[i] = obs.RankShare{
				Compute:   rp.Compute,
				Overhead:  rp.Overhead,
				WaitHalo:  rp.WaitHalo,
				WaitColl:  rp.WaitColl,
				WaitMig:   rp.WaitMig,
				WaitOther: rp.WaitOther,
				PathShare: pr.PathShare(i),
			}
		}
	}
	if b := cs.Blame; b != nil {
		br := &obs.BlameRecord{Culprits: b.Culprits(), TopRank: -1}
		if top := b.TopLag(1); len(top) > 0 {
			br.TopRank = top[0].Rank
			br.TopPhase = top[0].Phase
			br.TopLag = top[0].Seconds
		}
		for _, e := range b.TopEdges(3) {
			br.TopEdges = append(br.TopEdges, obs.BlameEdge{
				Src: e.Src, Dst: e.Dst, Seconds: e.Queue + e.Wire,
			})
		}
		r.Blame = br
	}
	return r
}
