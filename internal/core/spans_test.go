package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"plum/internal/event"
	"plum/internal/machine"
	"plum/internal/msg"
	"plum/internal/partition"
	"plum/internal/pmesh"
	"plum/internal/solver"

	"plum/internal/mesh"
)

// The span-stream invariants, at the experiment layer: attaching a
// SpanSink must not perturb any simulated output, and the span file
// itself must be a deterministic artifact — byte-identical across
// repeat runs, across GOMAXPROCS, and (modulo the header line that
// records the setting) across ring bounds.  The test names carry
// "Deterministic" so CI's determinism job runs them under -race.

// spanFileBytes runs a 2-cycle implicit sweep with a span sink attached
// (ring as given) and returns the span file's bytes.
func spanFileBytes(t *testing.T, ring int) []byte {
	t.Helper()
	e := smallExperiments()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	sink, err := CreateSpanSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.Ring = ring
	e.Spans = sink
	e.ImplicitScaling(2)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Worlds() != len(e.Ps) {
		t.Fatalf("flushed %d world streams, want %d", sink.Worlds(), len(e.Ps))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSpanFileDeterministicAcrossGOMAXPROCS: the span file is bitwise
// identical whether the experiment worlds run serially or race on 8
// procs — the per-world buffers flush after the barrier, in loop order.
func TestSpanFileDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial := spanFileBytes(t, DefaultSpanRing)
	runtime.GOMAXPROCS(8)
	parallel := spanFileBytes(t, DefaultSpanRing)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("span file differs between GOMAXPROCS 1 and 8 (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}

// stripSpanHeaders drops the per-world header lines, which record the
// ring setting by design; every other line must be ring-invariant.
func stripSpanHeaders(data []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.Contains(line, []byte(`"k":"hdr"`)) {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// TestSpanFileDeterministicRingOnOff: the ring bound changes resident
// memory, never the stream — span, blame, and end-trailer lines are
// byte-identical with the bound on or off.
func TestSpanFileDeterministicRingOnOff(t *testing.T) {
	unbounded := stripSpanHeaders(spanFileBytes(t, 0))
	bounded := stripSpanHeaders(spanFileBytes(t, 8))
	if !bytes.Equal(unbounded, bounded) {
		t.Errorf("span/blame/end lines differ between unbounded and ring=8 sinks"+
			" (%d vs %d bytes)", len(unbounded), len(bounded))
	}
}

// TestSpansDeterministicImplicitRows: an ImplicitScaling sweep with a
// span sink attached (which forces traced worlds and per-cycle epoch
// cuts) reports bit-identical rows to the plain untraced sweep — the
// tracing-must-not-perturb acceptance criterion at the harness layer.
func TestSpansDeterministicImplicitRows(t *testing.T) {
	plain := implicitRowsString(smallExperiments().ImplicitScaling(2))

	e := smallExperiments()
	sink, err := CreateSpanSink(filepath.Join(t.TempDir(), "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	e.Spans = sink
	spanned := implicitRowsString(e.ImplicitScaling(2))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if plain != spanned {
		t.Errorf("span recording perturbed the run:\nplain:   %s\nspanned: %s", plain, spanned)
	}
}

// TestSpansDeterministicFeedbackRows: same invariant for the feedback
// comparison, whose runs stream through per-run buffers.
func TestSpansDeterministicFeedbackRows(t *testing.T) {
	run := func(withSpans bool) string {
		e := smallExperiments()
		var sink *SpanSink
		if withSpans {
			var err error
			sink, err = CreateSpanSink(filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			e.Spans = sink
		}
		pairs := e.FeedbackComparison(4, 2, []string{"smp"})
		if sink != nil {
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// recs and spans are sink plumbing, not results; compare the
		// public data.
		for i := range pairs {
			pairs[i].Analytic.recs, pairs[i].Measured.recs = nil, nil
			pairs[i].Analytic.spans, pairs[i].Measured.spans = nil, nil
		}
		return fmt.Sprintf("%+v", pairs)
	}
	plain := run(false)
	spanned := run(true)
	if plain != spanned {
		t.Errorf("span recording perturbed the feedback comparison:\nplain:   %s\nspanned: %s",
			plain, spanned)
	}
}

// TestSpanFileParsesWithBlame: the file an experiment writes reads back
// with ReadSpans — complete world streams, labels identifying each
// world, and at least one epoch blame summary attributing wait.
func TestSpanFileParsesWithBlame(t *testing.T) {
	data := spanFileBytes(t, DefaultSpanRing)
	worlds, err := event.ReadSpans(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 3 {
		t.Fatalf("got %d world streams, want 3 (Ps 1,2,4)", len(worlds))
	}
	var blames int
	for _, w := range worlds {
		if !w.Complete {
			t.Errorf("world %v parsed as truncated", w.Label)
		}
		if w.Label["exp"] != "implicit" || w.Label["p"] == "" {
			t.Errorf("world label = %v, want exp=implicit with a p key", w.Label)
		}
		if len(w.Spans) == 0 {
			t.Errorf("world %v carries no spans", w.Label)
		}
		if w.Epochs != 2 {
			t.Errorf("world %v has %d epochs, want 2 (one per cycle)", w.Label, w.Epochs)
		}
		for _, b := range w.Blame {
			blames++
			if b.Wait < 0 {
				t.Errorf("world %v epoch %d: negative wait %g", w.Label, b.Epoch, b.Wait)
			}
		}
	}
	if blames == 0 {
		t.Error("no epoch blame summary in the whole file")
	}
}

// TestSpanPeakResidentBoundedOverlapPCG: on an overlapped implicit PCG
// step — the repository's densest span producer — the ring bound holds
// peak resident spans per rank near the configured cap, far below what
// the unbounded log retains, without changing the simulated clocks.
func TestSpanPeakResidentBoundedOverlapPCG(t *testing.T) {
	e := smallExperiments()
	const p, ring = 4, 64
	topo, err := machine.ByName("fattree", p)
	if err != nil {
		t.Fatal(err)
	}
	mod := e.Model.WithTopo(topo)
	popt := e.Cfg.PartOpts
	popt.TargetShares = machine.SpeedShares(topo, p)
	initPart := partition.Partition(e.Dual, p, popt)
	ind := e.Indicator()
	body := func(c *msg.Comm) {
		d := pmesh.New(c, e.Global, initPart, solver.NComp)
		d.MarkGeometricFraction(ind, 0.2)
		d.PropagateParallel()
		d.Refine()
		solver.InitField(d.M, solver.GaussianPulse(
			mesh.Vec3{e.LX / 2, e.LY / 2, 0.6}, 0.5))
		im := solver.NewImplicit(d, overlapOptions(true))
		im.Step()
	}
	run := func(ringCap int) ([]float64, *event.SpanLog) {
		var buf bytes.Buffer
		times, _, sl := msg.RunTracedSpans(p, mod,
			event.SpanOptions{Sink: &buf, RingCap: ringCap}, body)
		if err := sl.Err(); err != nil {
			t.Fatal(err)
		}
		return times, sl
	}
	boundedTimes, bounded := run(ring)
	unboundedTimes, unbounded := run(0)

	if bounded.Evicted() == 0 {
		t.Fatal("PCG run never hit the ring bound; the test proves nothing")
	}
	// The bound: ring completed spans plus the open phase stack (nesting
	// in this workload is a handful deep).
	if bounded.PeakResident() > ring+8 {
		t.Errorf("peak resident spans = %d, want <= %d (ring %d + open stack)",
			bounded.PeakResident(), ring+8, ring)
	}
	if unbounded.PeakResident() <= ring+8 {
		t.Errorf("unbounded peak %d within the ring bound; workload too small to matter",
			unbounded.PeakResident())
	}
	if bounded.Written() != unbounded.Written() {
		t.Errorf("ring changed the spans written: %d vs %d",
			bounded.Written(), unbounded.Written())
	}
	for r := range boundedTimes {
		if boundedTimes[r] != unboundedTimes[r] {
			t.Errorf("rank %d: ring changed a simulated clock: %v vs %v",
				r, boundedTimes[r], unboundedTimes[r])
		}
	}
}
