package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"plum/internal/core"
)

// testCorpusDir points at the committed corpus from the package
// directory (tests run with the package as cwd, not the repo root).
const testCorpusDir = "../../ci/scenarios"

// TestUsageExitCodes: flag validation mirrors cmd/plumdiff — exit 2
// with a usage message on stderr for every malformed invocation, exit 1
// for I/O failures.  Each row fails before any experiment runs, so the
// whole table is milliseconds.
func TestUsageExitCodes(t *testing.T) {
	emptyDir := t.TempDir()
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"unknown exp", []string{"-exp", "fig99"}, 2, "unknown -exp value"},
		{"stray args", []string{"-exp", "table1", "extra"}, 2, "unexpected arguments"},
		{"undefined flag", []string{"-frobnicate"}, 2, "flag provided but not defined"},
		{"trace without implicit", []string{"-exp", "table1", "-trace", "t.json"}, 2, "-trace"},
		{"measured without implicit", []string{"-exp", "feedback", "-measured"}, 2, "-measured"},
		{"measured with scenarios", []string{"-exp", "scenarios", "-measured"}, 2, "-measured"},
		{"removed bench exp", []string{"-exp", "bench"}, 2, "unknown -exp value"},
		{"scenario without scenarios exp", []string{"-scenario", "front-sweep"}, 2,
			"-scenario selects from the workload corpus"},
		{"scenario with wrong exp", []string{"-exp", "feedback", "-scenario", "front-sweep"}, 2,
			"requires -exp scenarios"},
		{"scenario-dir without scenarios exp", []string{"-exp", "table1", "-scenario-dir", emptyDir}, 2,
			"-scenario-dir"},
		{"empty corpus dir", []string{"-exp", "scenarios", "-scenario-dir", emptyDir}, 1,
			"no *.json specs"},
		{"missing corpus dir", []string{"-exp", "scenarios",
			"-scenario-dir", filepath.Join(emptyDir, "nope")}, 1, "no *.json specs"},
		{"unknown scenario name", []string{"-exp", "scenarios", "-scenario-dir", testCorpusDir,
			"-scenario", "no-such-scenario"}, 2, `unknown scenario "no-such-scenario"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.code {
				t.Fatalf("run(%q) = %d, want %d; stderr: %s", tc.args, code, tc.code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, errb.String())
			}
		})
	}
}

// TestUnknownScenarioListsCorpus: the usage error for a bad -scenario
// name must list the committed corpus so the caller can correct it.
func TestUnknownScenarioListsCorpus(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "scenarios", "-scenario-dir", testCorpusDir,
		"-scenario", "typo"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, name := range []string{"front-sweep", "burst-shock", "straggler-pair", "multijob-duty"} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("corpus listing lacks %q:\n%s", name, errb.String())
		}
	}
}

// TestDecisionString renders the epoch decisions compactly.
func TestDecisionString(t *testing.T) {
	run := core.FeedbackRun{Epochs: []core.FeedbackEpoch{
		{Balanced: true}, {Accepted: true}, {}, {Accepted: true},
	}}
	if got := decisionString(run); got != "BARA" {
		t.Errorf("decisionString = %q, want BARA", got)
	}
}

// TestScenarioVerdict: the 0.1% band labels ties honestly and degrades
// to n/a when a run produced no simulated time.
func TestScenarioVerdict(t *testing.T) {
	pair := func(a, m float64) core.ScenarioPair {
		var p core.ScenarioPair
		p.Analytic.SimTime, p.Measured.SimTime = a, m
		return p
	}
	cases := []struct {
		a, m float64
		want string
	}{
		{1.0, 0.9, "measured"},
		{0.9, 1.0, "analytic"},
		{1.0, 1.0, "tie"},
		{1.0, 1.0005, "tie"},
		{0, 1.0, "n/a"},
	}
	for _, tc := range cases {
		if got := scenarioVerdict(pair(tc.a, tc.m)); got != tc.want {
			t.Errorf("scenarioVerdict(%v, %v) = %q, want %q", tc.a, tc.m, got, tc.want)
		}
	}
}

// runScenarioCorpus drives the full committed corpus through the real
// entrypoint with a ledger attached and returns (stdout, ledger bytes
// past the manifest line).  The manifest line is the only part of a
// scenario ledger allowed to vary across hosts — it records GOMAXPROCS
// and wall-clock start time.
func runScenarioCorpus(t *testing.T, procs int) (string, []byte) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "scenarios", "-scenario-dir", testCorpusDir,
		"-obs", path}, &out, &errb); code != 0 {
		t.Fatalf("corpus run (GOMAXPROCS=%d) exit %d, stderr: %s", procs, code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		t.Fatalf("ledger %s has no manifest line", path)
	}
	return out.String(), data[i+1:]
}

// TestScenarioCorpusReproducible: every committed scenario, both
// pricing modes, GOMAXPROCS 1 vs 8 — the rendered league table and the
// ledger past its manifest line must be byte-identical.  This is the
// property that makes the committed goldens sound regression baselines.
//
// Race instrumentation multiplies the corpus runtime ~10x, so under
// -race the test only runs when PLUM_RACE_CORPUS is set (the CI
// determinism job); the plain test job covers it at full speed.
func TestScenarioCorpusReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus determinism run; skipped with -short")
	}
	if raceEnabled && os.Getenv("PLUM_RACE_CORPUS") == "" {
		t.Skip("race-instrumented corpus run takes minutes; set PLUM_RACE_CORPUS=1 to opt in")
	}
	outSerial, ledgerSerial := runScenarioCorpus(t, 1)
	outParallel, ledgerParallel := runScenarioCorpus(t, 8)
	if outSerial != outParallel {
		t.Errorf("league-table stdout differs between GOMAXPROCS 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s",
			outSerial, outParallel)
	}
	if !bytes.Equal(ledgerSerial, ledgerParallel) {
		t.Error("ledger bytes past the manifest differ between GOMAXPROCS 1 and 8")
	}
	if !strings.Contains(outSerial, "Scenario league") {
		t.Errorf("corpus stdout lacks the league table:\n%s", outSerial)
	}
}
