package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"plum/internal/event"
)

// The span-stream invariants, at the experiment layer: attaching a
// SpanSink must not perturb any simulated output, and the span file
// itself must be a deterministic artifact — byte-identical across
// repeat runs and across GOMAXPROCS.  The test names carry
// "Deterministic" so CI's determinism job runs them under -race.

// spannedSweep runs a 2-cycle implicit sweep with a span sink attached
// and returns its rows, rendered, and the span file's bytes.
func spannedSweep(t *testing.T) (string, []byte) {
	t.Helper()
	e := smallExperiments()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	sink, err := CreateSpanSink(path)
	if err != nil {
		t.Fatal(err)
	}
	e.Spans = sink
	rows := implicitRowsString(e.ImplicitScaling(2))
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
	return rows, data
}

// threeSweeps holds the three ImplicitScaling sweeps the span tests
// share — one plain, one spanned at GOMAXPROCS 1, one spanned at 8 —
// so the sweeps run once per test binary, not once per test.
type threeSweeps struct {
	plain, serialRows, parallelRows string
	serial, parallel                []byte
	done                            bool
}

var (
	sweepsOnce sync.Once
	sweeps     threeSweeps
)

func spanSweeps(t *testing.T) *threeSweeps {
	t.Helper()
	sweepsOnce.Do(func() {
		s := &sweeps
		s.plain = implicitRowsString(smallExperiments().ImplicitScaling(2))
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		s.serialRows, s.serial = spannedSweep(t)
		runtime.GOMAXPROCS(8)
		s.parallelRows, s.parallel = spannedSweep(t)
		s.done = true
	})
	if !sweeps.done {
		t.Fatal("the shared span sweeps failed in an earlier test")
	}
	return &sweeps
}

// TestSpanFileDeterministicAcrossGOMAXPROCS: the span file is bitwise
// identical whether the experiment worlds run serially or race on 8
// procs (the per-world buffers flush after the barrier, in loop order).
func TestSpanFileDeterministicAcrossGOMAXPROCS(t *testing.T) {
	s := spanSweeps(t)
	serial, parallel := s.serial, s.parallel
	if !bytes.Equal(serial, parallel) {
		t.Errorf("span file differs between GOMAXPROCS 1 and 8 (%d vs %d bytes)",
			len(serial), len(parallel))
	}
}

// spanFileSHA256 is the SHA-256 of the shared serial sweep's span file
// (Ps 1, 2 and 4, two implicit cycles each).  It pins every byte the
// span layer writes — which spans each epoch cut carries, their order,
// depths and times, and the blame lines — so a change to how spans are
// recorded or written must reproduce the stream exactly.
const spanFileSHA256 = "543591b35387a0c618bf5f68acfcca94347c93007b1389e5d07c964e6d838aa4"

// TestSpanFileGolden: the span file's bytes equal the pinned stream.
func TestSpanFileGolden(t *testing.T) {
	sum := sha256.Sum256(spanSweeps(t).serial)
	if got := hex.EncodeToString(sum[:]); got != spanFileSHA256 {
		t.Errorf("span file SHA-256 = %s, want %s", got, spanFileSHA256)
	}
}

// TestSpansDeterministicImplicitRows: the spanned sweeps, whose sink
// forces traced worlds and per-cycle epoch cuts, report bit-identical
// rows to the plain one — tracing must not perturb.
func TestSpansDeterministicImplicitRows(t *testing.T) {
	s := spanSweeps(t)
	for _, spanned := range []string{s.serialRows, s.parallelRows} {
		if spanned != s.plain {
			t.Errorf("span recording perturbed the run:\nplain:   %s\nspanned: %s", s.plain, spanned)
		}
	}
}

// TestSpanFileParsesWithBlame: the span file reads back with ReadSpans
// as complete, labelled world streams whose epoch blame summaries
// attribute wait.
func TestSpanFileParsesWithBlame(t *testing.T) {
	worlds, err := event.ReadSpans(bytes.NewReader(spanSweeps(t).serial))
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
