package core

import (
	"slices"
	"sync"
	"testing"

	"plum/internal/machine"
	"plum/internal/obs"
	"plum/internal/partition"
	"plum/internal/remap"
)

// TestPartitionMemoDeterministic: many concurrent worlds asking for
// their machine's initial partition share one memo entry per (P, speed
// shares) — flat, smp and fattree one slice, hetero its own — each
// entry is partitioned exactly once and equals a fresh partition, and a
// P outside e.Ps is partitioned per call and never kept.  CI runs it
// under -race.
func TestPartitionMemoDeterministic(t *testing.T) {
	e := NewExperiments(false)
	miss := obs.Default.Counter("plum_partition_cache_total", "result", "miss")
	missBefore := miss.Value()

	type key struct {
		model string
		p     int
	}
	var (
		mu  sync.Mutex
		got = make(map[key][]int32)
		wg  sync.WaitGroup
	)
	for range 4 {
		for _, model := range machine.Names() {
			for _, p := range e.Ps {
				wg.Add(1)
				go func(k key) {
					defer wg.Done()
					part := e.partitionFor(k.p, mustMachine(k.model, k.p))
					mu.Lock()
					defer mu.Unlock()
					if prev, ok := got[k]; ok && &prev[0] != &part[0] {
						t.Errorf("%s P=%d: two requests got two slices", k.model, k.p)
					}
					got[k] = part
				}(key{model, p})
			}
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	distinct := make(map[*int32]bool)
	for _, p := range e.Ps {
		flat := got[key{"flat", p}]
		for _, model := range []string{"smp", "fattree"} {
			if &got[key{model, p}][0] != &flat[0] {
				t.Errorf("P=%d: %s does not share flat's partition", p, model)
			}
		}
		hetero := got[key{"hetero", p}]
		if heteroShares := machine.SpeedShares(mustMachine("hetero", p), p); heteroShares != nil && &hetero[0] == &flat[0] {
			t.Errorf("P=%d: hetero shares flat's partition despite speed shares %v", p, heteroShares)
		}
		for _, model := range machine.Names() {
			part := got[key{model, p}]
			distinct[&part[0]] = true
			popt := e.Cfg.PartOpts
			popt.TargetShares = machine.SpeedShares(mustMachine(model, p), p)
			if !slices.Equal(part, partition.Partition(e.Dual, p, popt)) {
				t.Errorf("%s P=%d: memoized partition differs from a fresh one", model, p)
			}
		}
	}
	if n := miss.Value() - missBefore; n != int64(len(distinct)) {
		t.Errorf("%d memo misses for %d distinct partitions", n, len(distinct))
	}

	// A P outside e.Ps is computed, identically, on every call and kept
	// by none.
	const outside = 3
	if slices.Contains(e.Ps, outside) {
		t.Fatalf("P=%d is in e.Ps %v", outside, e.Ps)
	}
	kept := len(e.parts)
	missBefore = miss.Value()
	a := e.partitionFor(outside, mustMachine("flat", outside))
	b := e.partitionFor(outside, mustMachine("flat", outside))
	if &a[0] == &b[0] || !slices.Equal(a, b) {
		t.Errorf("P=%d: want two equal, separately computed partitions", outside)
	}
	if n := miss.Value() - missBefore; n != 2 {
		t.Errorf("P=%d: %d misses for two calls, want 2", outside, n)
	}
	if len(e.parts) != kept {
		t.Errorf("P=%d was kept: memo grew from %d to %d entries", outside, kept, len(e.parts))
	}
}

// TestRunStepMapTopoPricesMaxV: RunStep selects the mapper with the
// metric it optimizes, so MapTopo's decision prices the bottleneck
// volume, as every other MapTopo world does.
func TestRunStepMapTopoPricesMaxV(t *testing.T) {
	e := NewExperiments(false)
	if err := e.UseMachine("flat"); err != nil {
		t.Fatal(err)
	}
	st := e.RunStep(4, 0.33, true, MapTopo)
	want := remap.RedistributionCost(remap.MaxV, st.Moved, e.Cfg.Machine)
	if total := remap.RedistributionCost(remap.TotalV, st.Moved, e.Cfg.Machine); total == want {
		t.Fatalf("MaxV and TotalV price this step alike (%g): the test cannot tell them apart", want)
	}
	if st.Cost != want {
		t.Errorf("MapTopo step priced %g, want the MaxV price %g", st.Cost, want)
	}
}

// TestTable2HeuristicIsTheStep: Table 2's heuristic column is the
// remap-before step's own reassignment — on the hetero machine too,
// where the step repartitions with speed-scaled targets.
func TestTable2HeuristicIsTheStep(t *testing.T) {
	e := NewExperiments(false)
	if err := e.UseMachine("hetero"); err != nil {
		t.Fatal(err)
	}
	for _, row := range e.Table2(0.33) {
		st := e.RunStep(row.P, 0.33, true, MapHeuristic)
		if row.Heu.TotalElems != st.Moved.CTotal {
			t.Errorf("P=%d: Table 2 heuristic moves %d, the step %d", row.P, row.Heu.TotalElems, st.Moved.CTotal)
		}
	}
}
