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

// leagueSpans is a three-rank span stream with two blamed epochs: lag
// cells on ranks 1 and 2 whose order swaps between the epochs, and two
// edges blamed in both, so the cross-epoch league sums two terms per
// cell and per edge and reorders both tables.
const leagueSpans = `{"k":"hdr","schema":2,"p":3,"label":{"exp":"viz_league","p":"3"}}
{"k":"span","e":0,"r":0,"ph":"solve","d":0,"t0":0,"t1":1.5}
{"k":"span","e":0,"r":1,"ph":"solve","d":0,"t0":0,"t1":1.9}
{"k":"span","e":0,"r":2,"ph":"halo","d":1,"t0":0.2,"t1":0.9}
{"k":"blame","e":0,"wait":0.731,"sender_compute":0.31,"sender_overhead":0.07,"contention":0.113,"wire":0.171,"idle":0.067,"lag":[{"r":1,"ph":"solve","s":0.23},{"r":2,"ph":"halo","s":0.11}],"lag_other":0.04,"edges":[{"src":1,"dst":0,"queue":0.083,"wire":0.101,"n":3},{"src":2,"dst":0,"queue":0.03,"wire":0.07,"n":2}]}
{"k":"span","e":1,"r":0,"ph":"migrate","d":0,"t0":1.9,"t1":2.6}
{"k":"span","e":1,"r":2,"ph":"halo","d":0,"t0":1.9,"t1":2.4}
{"k":"blame","e":1,"wait":0.517,"sender_compute":0.251,"sender_overhead":0.002,"contention":0.074,"wire":0.076,"idle":0.114,"lag":[{"r":2,"ph":"halo","s":0.19},{"r":1,"ph":"solve","s":0.05}],"lag_other":0.013,"edges":[{"src":2,"dst":0,"queue":0.061,"wire":0.047,"n":2},{"src":1,"dst":0,"queue":0.013,"wire":0.029,"n":1}]}
{"k":"end","epochs":2,"spans":5}
`

// TestBlameRendersPinned pins the bytes of the blame renders: the
// baseline ledger (per-epoch league and blame tables), the scenario
// corpus ledgers (the scenario summary and its top-blame column) and
// leagueSpans (per-epoch blame, sender-lag league, edges and census).
func TestBlameRendersPinned(t *testing.T) {
	leagueFile := filepath.Join(t.TempDir(), "league.jsonl")
	if err := os.WriteFile(leagueFile, []byte(leagueSpans), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarios, err := filepath.Glob("../../ci/scenarios/*.golden.jsonl")
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no scenario goldens (%v)", err)
	}
	var scenarioArgs [][]string
	for _, f := range scenarios {
		scenarioArgs = append(scenarioArgs, []string{"-ledger", f})
	}
	for _, c := range []struct {
		name string
		runs [][]string // invocations whose stdouts are hashed together
		want string
	}{
		{"baseline ledger", [][]string{{"-ledger", baselineLedger}}, "c68538f47dc634745da9d6ac91fcf370ff367d4fb572d4c2cb92181802dc7e2d"},
		{"scenario ledgers", scenarioArgs, "30ccff7b0e683051c22d9b8af707bdc8bbaa1ee1216604f7820fb40eca3fde04"},
		{"league spans", [][]string{{"-blame", leagueFile}}, "a9894c0a184d86cedfa4a69976318f84d7ac84072e4e4536a4ff38ad4cfec621"},
	} {
		var out, errb bytes.Buffer
		for _, args := range c.runs {
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("run(%q) = %d; stderr: %s", args, code, errb.String())
			}
		}
		if sum := sha256.Sum256(out.Bytes()); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("%s SHA-256 = %x, want %s:\n%s", c.name, sum, c.want, out.String())
		}
	}
}
