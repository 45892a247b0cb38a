package core

import (
	"math"
	"testing"

	"plum/internal/event"
)

// The comm/compute-overlap acceptance: on machines where wire time or
// shared-link contention is visible past the software overhead (the SMP
// cluster's inter-node links, the tapered fat tree's up-links), the
// overlapped PCG must have a strictly shorter simulated critical path
// than the blocking PCG — while doing bitwise-identical arithmetic.  On
// the paper's flat SP2 the per-message software overhead dominates and
// overlap is legitimately a no-op; the comparison reports that too.

func TestOverlapShortensCriticalPath(t *testing.T) {
	e := NewExperiments(false)
	rows := e.OverlapComparison(8, []string{"smp", "fattree"})
	for _, r := range rows {
		if r.Iters <= 0 {
			t.Fatalf("%s: no PCG iterations ran", r.Model)
		}
		if !(r.CPOverlap < r.CPBlocking) {
			t.Errorf("%s: overlapped critical path %.6g not strictly shorter than blocking %.6g",
				r.Model, r.CPOverlap, r.CPBlocking)
		}
		if !(r.SolveOverlap < r.SolveBlocking) {
			t.Errorf("%s: overlapped solve time %.6g not strictly shorter than blocking %.6g",
				r.Model, r.SolveOverlap, r.SolveBlocking)
		}
		if !(r.WaitOverlap < r.WaitBlocking) {
			t.Errorf("%s: comm wait on the path did not shrink: %.6g -> %.6g",
				r.Model, r.WaitBlocking, r.WaitOverlap)
		}
	}
}

// TestTraceImplicitStep: the overlapped trace an OverlapComparison row
// keeps is the artifact plumbench -trace exports, so it must be
// non-empty and cover every rank.
func TestTraceImplicitStep(t *testing.T) {
	e := NewExperiments(false)
	rows := e.OverlapComparison(4, []string{"smp"})
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	tr := rows[0].TraceOverlapped
	if tr.P != 4 {
		t.Fatalf("trace world size %d, want 4", tr.P)
	}
	seen := make(map[int]bool)
	for _, r := range tr.Records {
		seen[r.Rank] = true
	}
	if len(seen) != 4 {
		t.Errorf("trace covers %d ranks, want 4", len(seen))
	}
}

// TestOverlapTraceDecomposition: the critical-path decomposition of a
// traced implicit run must tile the makespan (no double counting, no
// gaps) in both modes.
func TestOverlapTraceDecomposition(t *testing.T) {
	e := NewExperiments(false)
	for _, overlap := range []bool{false, true} {
		w := implicitWorld{model: "fattree", p: 4, opt: overlapOptions(overlap), traced: true}
		p := event.CriticalPath(e.runImplicit(w).trace)
		if p.Makespan <= 0 || len(p.Steps) == 0 {
			t.Fatalf("overlap=%v: empty critical path", overlap)
		}
		sum := p.Compute + p.Overhead + p.CommWait
		start := p.Steps[0].T0
		if diff := math.Abs(sum - (p.Makespan - start)); diff > 1e-9*p.Makespan {
			t.Errorf("overlap=%v: decomposition %.12g != makespan-start %.12g",
				overlap, sum, p.Makespan-start)
		}
		// The path must be causally ordered.
		for i := 1; i < len(p.Steps); i++ {
			if p.Steps[i].T1 < p.Steps[i-1].T1 {
				t.Fatalf("overlap=%v: path step %d completes before its predecessor", overlap, i)
			}
		}
	}
}
