package main

import (
	"bytes"
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
	s := event.NewSpanLog(2, event.SpanOptions{
		Sink:  &buf,
		Label: map[string]string{"exp": "viz_test", "p": "2"},
	})
	s.Begin(0, event.PhaseSolve, 0)
	s.Begin(0, event.PhaseHalo, 0.5)
	s.End(0, 1)
	s.End(0, 2)
	s.Begin(1, event.PhaseMigrate, 0)
	s.End(1, 3)
	blame := &event.BlameReport{P: 2, Wait: 0.75}
	blame.ByKind[event.BlameContention] = 0.75
	blame.Lag = make([][]float64, 2)
	for i := range blame.Lag {
		blame.Lag[i] = make([]float64, event.NumPhases)
	}
	blame.Lag[1][event.PhaseMigrate] = 0.5
	s.CutEpoch(blame)
	s.Begin(1, event.PhaseSolve, 3)
	s.End(1, 4)
	s.CutEpoch(nil)
	if err := s.Close(); err != nil {
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
// off by a killed run still renders (with a warning) and exits 0, an
// unreadable file exits 1, and a malformed invocation exits 2.
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
}
