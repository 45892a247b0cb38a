package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plum/internal/event"
)

const baselineLedger = "../../ci/LEDGER_baseline.jsonl"

// writeSpanFile writes a two-epoch, two-rank span stream with a blame
// summary on its first epoch, and returns its path.
func writeSpanFile(t *testing.T, dir string) string {
	t.Helper()
	var buf bytes.Buffer
	s := event.NewSpanLog(&buf, 2, map[string]string{"exp": "viz_test", "p": "2"})
	blame := &event.BlameReport{P: 2, Wait: 0.75}
	blame.ByKind[event.BlameContention] = 0.75
	blame.Lag = make([][]float64, 2)
	for i := range blame.Lag {
		blame.Lag[i] = make([]float64, event.NumPhases)
	}
	blame.Lag[1][event.PhaseMigrate] = 0.5
	s.Cut([]event.Span{
		{Rank: 1, Phase: event.PhaseMigrate, T0: 0, T1: 3},
		{Rank: 0, Phase: event.PhaseHalo, Depth: 1, T0: 0.5, T1: 1},
		{Rank: 0, Phase: event.PhaseSolve, T0: 0, T1: 2},
	}, blame)
	s.Cut([]event.Span{{Rank: 1, Phase: event.PhaseSolve, T0: 3, T1: 4}}, nil)
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spans.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tornCopy writes data cut off in the middle of its last whole line
// but one — what a run killed mid-write leaves behind.
func tornCopy(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	body := bytes.TrimSuffix(data, []byte("\n"))
	cut := bytes.LastIndexByte(body, '\n')
	prev := bytes.LastIndexByte(body[:cut], '\n')
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data[:(prev+cut)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes: the render modes read a file and print, a file cut
// off by a killed run still renders (with a warning) and exits 0, a
// traced simulation writes its Chrome trace and prints the cost
// profile and wait-blame tables, an unreadable file exits 1, and a
// malformed invocation exits 2.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	ledger, err := os.ReadFile(baselineLedger)
	if err != nil {
		t.Fatal(err)
	}
	spans := writeSpanFile(t, dir)
	spanData, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	vtk, chrome := filepath.Join(dir, "viz.vtk"), filepath.Join(dir, "viz.trace.json")
	chrome4 := filepath.Join(dir, "viz4.trace.json")
	cases := []struct {
		name string
		args []string
		code int
		out  []string // substrings of stdout
		err  string   // substring of stderr
	}{
		{"ledger", []string{"-ledger", baselineLedger}, 0,
			[]string{"Per-epoch league table", "16 epochs; output checksum"}, ""},
		{"truncated ledger", []string{"-ledger", tornCopy(t, dir, "torn.jsonl", ledger)}, 0,
			[]string{"warning: ledger", "is truncated", "Per-epoch league table", "(partial)"}, ""},
		{"blame", []string{"-blame", spans}, 0,
			[]string{"exp=viz_test p=2 — P=2, 4 spans, 1 epochs\n", "Wait-blame by epoch",
				"Sender-lag league", "Span census by phase"}, ""},
		{"torn blame", []string{"-blame", tornCopy(t, dir, "torn_spans.jsonl", spanData)}, 0,
			[]string{"(stream truncated", "Span census by phase"}, ""},
		{"trace", []string{"-p", "2", "-o", vtk, "-trace", chrome}, 0,
			[]string{"Per-rank cost profile", "Wait-blame"}, ""},
		{"trace p4", []string{"-p", "4", "-o", vtk, "-trace", chrome4}, 0,
			[]string{"Per-rank cost profile", "Wait-blame"}, ""},
		{"missing ledger", []string{"-ledger", filepath.Join(dir, "nope.jsonl")}, 1,
			nil, "no such file"},
		{"missing span file", []string{"-blame", filepath.Join(dir, "nope.jsonl")}, 1,
			nil, "no such file"},
		{"undefined flag", []string{"-frobnicate"}, 2, nil, "flag provided but not defined"},
		{"stray args", []string{"-ledger", baselineLedger, "extra"}, 2, nil, "unexpected arguments"},
		{"zero ranks", []string{"-p", "0"}, 2, nil, "-p must be at least 1, got 0"},
		{"negative ranks", []string{"-p", "-2"}, 2, nil, "-p must be at least 1, got -2"},
		{"negative frac", []string{"-frac", "-0.5"}, 2, nil, "-frac must be in [0, 1], got -0.5"},
		{"frac above one", []string{"-frac", "1.5"}, 2, nil, "-frac must be in [0, 1], got 1.5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.code {
				t.Fatalf("run(%q) = %d, want %d; stderr: %s", tc.args, code, tc.code, errb.String())
			}
			for _, want := range tc.out {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, out.String())
				}
			}
			if !strings.Contains(errb.String(), tc.err) {
				t.Errorf("stderr lacks %q:\n%s", tc.err, errb.String())
			}
		})
	}
	// The trace case wrote its mesh and its Chrome trace.
	for _, f := range []string{vtk, chrome} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("trace run left %s missing or empty (%v)", f, err)
		}
	}
	// The P=4 Chrome trace — records, flow arrows and the phase spans
	// nested over them — is pinned byte for byte.
	data, err := os.ReadFile(chrome4)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != chromeP4SHA256 {
		t.Errorf("-p 4 -trace Chrome file SHA-256 = %x, want %s", sum, chromeP4SHA256)
	}
}

// chromeP4SHA256 is the SHA-256 of the Chrome file `plumviz -p 4
// -trace` writes.
const chromeP4SHA256 = "d5cffd1449382565e2fe29a29d603d79fdc2ac08412245ad3fdd80f14df618d4"
