package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"plum/internal/event"
)

func testManifest() Manifest {
	return Manifest{
		Tool: "obs_test", ConfigDigest: "cafe", Git: "deadbeef",
		GoVersion: "go1.22", GoOS: "linux", GoArch: "amd64",
		GoMaxProcs: 8, NumCPU: 8, Start: "2026-08-08T00:00:00Z",
	}
}

func testEpoch(p, cycle int) EpochRecord {
	return EpochRecord{
		Exp: "implicit", Model: "smp", Run: "analytic", P: p, Cycle: cycle,
		Pricing: "analytic", Accepted: true, Imbalance: 1.5,
		WOldMax: 100, WNewMax: 60, Gain: 2, Cost: 1,
		TotalV: 40, MaxV: 12, EdgeCut: 77, Elems: 1000,
		SolveSeconds: 0.25, PCGIters: 30,
		CPMakespan: 0.3, CPCompute: 0.2, CPOverhead: 0.05, CPWait: 0.05,
		Ranks: make([]RankShare, p),
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := Create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	l.Add(testEpoch(2, 0), testEpoch(2, 1))
	if l.Epochs() != 2 {
		t.Errorf("Epochs = %d, want 2", l.Epochs())
	}
	if err := l.Close(map[string]float64{"plum_worlds_finished_total": 3}, "abc123"); err != nil {
		t.Fatal(err)
	}

	lf, _, err := ReadLedgerFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Manifest.Tool != "obs_test" || lf.Manifest.Schema != SchemaVersion {
		t.Errorf("manifest = %+v", lf.Manifest)
	}
	if len(lf.Epochs) != 2 || lf.Epochs[1].Cycle != 1 || lf.Epochs[0].EdgeCut != 77 {
		t.Errorf("epochs = %+v", lf.Epochs)
	}
	if lf.Metrics["plum_worlds_finished_total"] != 3 {
		t.Errorf("metrics = %v", lf.Metrics)
	}
	if lf.End.Epochs != 2 || lf.End.OutputSHA256 != "abc123" {
		t.Errorf("end = %+v", lf.End)
	}
}

func TestReadLedgerRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, content, wantErr string
	}{
		{"empty", "", "empty ledger"},
		{"no manifest", `{"kind":"epoch","p":2}`, "does not start with a manifest"},
		{"bad schema", `{"kind":"manifest","schema":99}`, "schema v99 unsupported by this reader (supports v1..v2)"},
		{"truncated", `{"kind":"manifest","schema":1}`, "no end record"},
		{"bad epoch p", `{"kind":"manifest","schema":1}` + "\n" +
			`{"kind":"epoch","p":0}`, "p=0"},
		{"rank shares mismatch", `{"kind":"manifest","schema":1}` + "\n" +
			`{"kind":"epoch","p":4,"ranks":[{}]}`, "1 rank shares for p=4"},
		{"count mismatch", `{"kind":"manifest","schema":1}` + "\n" +
			`{"kind":"epoch","p":2}` + "\n" + `{"kind":"end","epochs":5}`, "counts 5 epochs"},
		{"unknown kind", `{"kind":"manifest","schema":1}` + "\n" +
			`{"kind":"mystery"}`, "unknown record kind"},
		{"trailing record", `{"kind":"manifest","schema":1}` + "\n" +
			`{"kind":"end","epochs":0}` + "\n" + `{"kind":"epoch","p":2}`, "after the end record"},
	}
	for _, c := range cases {
		_, _, err := ReadLedger(strings.NewReader(c.content), false)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

// TestLedgerWriteErrorLatched: a write failure surfaces at Close even
// when later appends succeed in buffering.
func TestLedgerWriteErrorLatched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := Create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	// Close the file underneath the ledger: the buffered writer's flush
	// must fail and Close must report it.
	l.f.Close()
	for i := 0; i < 4096; i++ { // overflow the bufio buffer to force a write
		l.Add(testEpoch(2, i))
	}
	if err := l.Close(nil, ""); err == nil {
		t.Error("Close reported success after underlying write failure")
	}
	os.Remove(path)
}

func TestLedgerBlameRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := Create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	e := testEpoch(2, 0)
	e.Blame = &BlameRecord{
		Culprits: event.Culprits{Wait: 0.5, SenderCompute: 0.3, SenderOverhead: 0.1,
			Contention: 0.05, Wire: 0.05},
		TopRank: 1, TopPhase: "solve", TopLag: 0.3,
		TopEdges: []BlameEdge{{Src: 1, Dst: 0, Seconds: 0.1}},
	}
	plain := testEpoch(2, 1) // no blame: field must be omitted, not zeroed
	l.Add(e, plain)
	if err := l.Close(nil, ""); err != nil {
		t.Fatal(err)
	}
	lf, _, err := ReadLedgerFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	b := lf.Epochs[0].Blame
	if b == nil || b.Wait != 0.5 || b.TopRank != 1 || b.TopPhase != "solve" {
		t.Errorf("blame = %+v", b)
	}
	if len(b.TopEdges) != 1 || b.TopEdges[0] != (BlameEdge{Src: 1, Dst: 0, Seconds: 0.1}) {
		t.Errorf("top edges = %+v", b.TopEdges)
	}
	if lf.Epochs[1].Blame != nil {
		t.Errorf("blame-free epoch round-tripped a record: %+v", lf.Epochs[1].Blame)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if !strings.Contains(lines[1], `"blame"`) || strings.Contains(lines[2], `"blame"`) {
		t.Errorf("blame field serialization wrong:\n%s\n%s", lines[1], lines[2])
	}
}

// TestReadLedgerLenient: truncation — a run killed before the end
// record, or a line torn mid-write — parses leniently with everything
// before the cut intact; strict reading still fails, and mid-file
// corruption fails both.
func TestReadLedgerLenient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := Create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	l.Add(testEpoch(2, 0), testEpoch(2, 1))
	if err := l.Close(nil, "sum"); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A complete ledger is not truncated.
	if _, trunc, err := ReadLedgerFile(path, true); err != nil || trunc {
		t.Errorf("complete ledger: trunc=%v err=%v", trunc, err)
	}

	check := func(name string, data []byte, wantEpochs int) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "trunc.jsonl")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadLedgerFile(p, false); err == nil {
			t.Errorf("%s: strict read succeeded", name)
		}
		lf, trunc, err := ReadLedgerFile(p, true)
		if err != nil {
			t.Errorf("%s: lenient read failed: %v", name, err)
			return
		}
		if !trunc {
			t.Errorf("%s: not reported truncated", name)
		}
		if len(lf.Epochs) != wantEpochs {
			t.Errorf("%s: %d epochs, want %d", name, len(lf.Epochs), wantEpochs)
		}
	}

	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	// Missing end record (and metrics): both epochs survive.
	check("no end", append(bytes.Join(lines[:3], []byte("\n")), '\n'), 2)
	// Torn final line: the complete epoch before it survives.
	check("torn line", full[:len(full)-int(float64(len(lines[len(lines)-1]))/2)-10], 2)
	// Manifest only.
	check("manifest only", append([]byte{}, append(lines[0], '\n')...), 0)

	// Mid-file corruption is damage, not truncation: both readers fail.
	corrupt := append([]byte{}, lines[0]...)
	corrupt = append(corrupt, "\n{torn\n"...)
	corrupt = append(corrupt, bytes.Join(lines[1:], []byte("\n"))...)
	corrupt = append(corrupt, '\n')
	p := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(p, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLedgerFile(p, true); err == nil {
		t.Error("mid-file corruption parsed leniently without error")
	}
}

// TestReadLedgerLongLines: an epoch line longer than the reader's
// initial 64 KiB buffer (p = 1024 rank shares) reads both strictly and
// leniently, and a lenient read of the ledger cut inside that line keeps
// the epochs before it.
func TestReadLedgerLongLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := Create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	wide := testEpoch(1024, 1)
	for r := range wide.Ranks {
		wide.Ranks[r] = RankShare{Compute: 0.125 * float64(r), Overhead: 1e-3, WaitHalo: 2e-3,
			WaitColl: 3e-3, WaitMig: 4e-3, WaitOther: 5e-3, PathShare: 1.0 / 1024}
	}
	l.Add(testEpoch(2, 0), wide)
	if err := l.Close(nil, "sum"); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(full, []byte("\n"))
	if len(lines[2]) <= 1<<16 {
		t.Fatalf("the p=1024 epoch line is %d bytes, not longer than 64 KiB", len(lines[2]))
	}
	for _, lenient := range []bool{false, true} {
		lf, trunc, err := ReadLedger(bytes.NewReader(full), lenient)
		if err != nil || trunc {
			t.Fatalf("lenient=%v: trunc=%v err=%v", lenient, trunc, err)
		}
		if len(lf.Epochs) != 2 || !reflect.DeepEqual(lf.Epochs[1].Ranks, wide.Ranks) {
			t.Errorf("lenient=%v: the p=1024 epoch did not round-trip", lenient)
		}
	}
	cut := len(lines[0]) + len(lines[1]) + 2 + len(lines[2])/2
	lf, trunc, err := ReadLedger(bytes.NewReader(full[:cut]), true)
	if err != nil || !trunc || len(lf.Epochs) != 1 {
		t.Errorf("cut inside the long line: trunc=%v err=%v, want the first epoch kept", trunc, err)
	}
}

// FuzzReadLedger: ReadLedger reads untrusted files (plumdiff, plumviz
// -ledger).  No input may panic it, and leniency only ever adds: an
// input the strict read accepts reads leniently to the same ledger,
// not truncated.
func FuzzReadLedger(f *testing.F) {
	base, err := os.ReadFile("../../ci/LEDGER_baseline.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(base, []byte("\n"))
	head := bytes.Join(lines[:3], nil) // manifest and two epochs, no end
	f.Add(head)
	f.Add(head[:len(head)-len(lines[2])/2]) // the second epoch torn
	f.Add(append(bytes.Join(lines[:2], nil), `{"kind":"end","epochs":1}`+"\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, strictTrunc, strictErr := ReadLedger(bytes.NewReader(data), false)
		lenient, trunc, err := ReadLedger(bytes.NewReader(data), true)
		if strictErr != nil {
			return
		}
		if strictTrunc {
			t.Fatal("strict read reported truncation")
		}
		if err != nil || trunc {
			t.Fatalf("strict read succeeded, lenient read: truncated=%v err=%v", trunc, err)
		}
		if !reflect.DeepEqual(strict, lenient) {
			t.Fatalf("lenient ledger differs from strict:\n got %+v\nwant %+v", lenient, strict)
		}
	})
}
