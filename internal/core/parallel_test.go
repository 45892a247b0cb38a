package core

import (
	"runtime"
	"testing"

	"plum/internal/obs"
)

// The parallel-world harness must be invisible in the results: every
// world is deterministic in isolation (the event engine's guarantee),
// each world owns its machine instance, and rows land in loop-order
// slots — so a sweep's output must be byte-for-byte the serial sweep's,
// whatever GOMAXPROCS is and however many worlds run at once.

// sweepRows runs a reduced machine sweep (two contended topologies,
// both mappers) and returns the rows.
func sweepRows(t *testing.T) []MachineRow {
	t.Helper()
	e := NewExperiments(false)
	e.Ps = []int{4, 8}
	return e.MachineSweep(0.33, []string{"smp", "fattree"}, MachineMappers())
}

// TestMachineSweepDeterministicAcrossGOMAXPROCS: the concurrent sweep's
// rows — simulated times included — are identical at GOMAXPROCS 1
// (serial fallback) and 8 (worlds genuinely interleaved).
func TestMachineSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := sweepRows(t)
	runtime.GOMAXPROCS(8)
	parallel := sweepRows(t)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d diverged:\n  serial:   %+v\n  parallel: %+v",
				i, serial[i], parallel[i])
		}
	}
}

// TestScalingSpeedupBaselines: the post-barrier speedup derivation uses
// each (case, ordering) series' own P=1 baseline, exactly like the
// serial sweep's running variable did.
func TestScalingSpeedupBaselines(t *testing.T) {
	e := NewExperiments(false)
	e.Ps = []int{1, 4}
	e.Cases = e.Cases[:2]
	rows := e.Scaling()
	if len(rows) != 2*2*2 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		p1, p4 := rows[i], rows[i+1]
		if p1.P != 1 || p4.P != 4 {
			t.Fatalf("row order broken: %+v", rows)
		}
		if p1.Speedup != 1 {
			t.Errorf("series %d: P=1 speedup = %v, want 1", i/2, p1.Speedup)
		}
		if p4.AdaptTime > 0 && p1.AdaptTime > 0 {
			want := p1.AdaptTime / p4.AdaptTime
			if p4.Speedup != want {
				t.Errorf("series %d: P=4 speedup = %v, want %v (own-series baseline)",
					i/2, p4.Speedup, want)
			}
		}
	}
}

// TestFeedbackComparisonParallelPairs: the pair slots are filled by the
// right (model, mode) worlds when they run concurrently, and each world
// passes through the scheduler exactly once — the host-plane counters
// move by the number of worlds, not by the number of layers that could
// have scheduled them.
func TestFeedbackComparisonParallelPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("feedback pair sweep is slow")
	}
	started := obs.Default.Counter("plum_worlds_started_total")
	finished := obs.Default.Counter("plum_worlds_finished_total")
	wall := obs.Default.Histogram("plum_world_wall_seconds", obs.TimeBuckets)
	s0, f0, w0 := started.Value(), finished.Value(), wall.Count()
	e := NewExperiments(false)
	pairs := e.FeedbackComparison(4, 2, []string{"smp"})
	if s, f, w := started.Value()-s0, finished.Value()-f0, wall.Count()-w0; s != 2 || f != 2 || w != 2 {
		t.Errorf("2 worlds moved the scheduling counters by started=%d finished=%d wall=%d, want 2 each", s, f, w)
	}
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs, want 1", len(pairs))
	}
	pr := pairs[0]
	if pr.Analytic.Model != "smp" || pr.Measured.Model != "smp" {
		t.Fatalf("models: analytic %q, measured %q", pr.Analytic.Model, pr.Measured.Model)
	}
	if pr.Analytic.Measured || !pr.Measured.Measured {
		t.Errorf("pricing modes landed in the wrong slots: %+v / %+v",
			pr.Analytic.Measured, pr.Measured.Measured)
	}
	if len(pr.Analytic.Epochs) != 2 || len(pr.Measured.Epochs) != 2 {
		t.Errorf("epoch counts: %d / %d, want 2 / 2",
			len(pr.Analytic.Epochs), len(pr.Measured.Epochs))
	}
}
