package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
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

// runLedger runs plumbench with args plus "-obs <tmp>" through the real
// entrypoint and returns (stdout, ledger bytes past the manifest line).
// The manifest line is the only part of a ledger allowed to vary across
// hosts — it records GOMAXPROCS and wall-clock start time.
func runLedger(t *testing.T, args ...string) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	var out, errb bytes.Buffer
	if code := run(append(args, "-obs", path), &out, &errb); code != 0 {
		t.Fatalf("plumbench %q exit %d, stderr: %s", args, code, errb.String())
	}
	return out.String(), pastManifest(t, path)
}

// pastManifest returns the bytes of the ledger at path after its first
// (manifest) line.
func pastManifest(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		t.Fatalf("ledger %s has no manifest line", path)
	}
	return data[i+1:]
}

// skipCorpusRun skips the full-corpus replays under -short, and under
// -race unless PLUM_RACE_CORPUS is set: race instrumentation multiplies
// the corpus runtime ~10x (the CI determinism job opts in).
func skipCorpusRun(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-corpus golden replay; skipped with -short")
	}
	if raceEnabled && os.Getenv("PLUM_RACE_CORPUS") == "" {
		t.Skip("race-instrumented corpus run takes minutes; set PLUM_RACE_CORPUS=1 to opt in")
	}
}

// TestScenarioCorpusReproducible: every committed scenario, run alone
// under both pricing modes exactly as `make scenario-baseline` cut it,
// must reproduce its golden ledger (ci/scenarios/<name>.golden.jsonl)
// byte for byte past the manifest line.  The goldens were cut on
// another host at another GOMAXPROCS, so this is a stronger determinism
// statement than comparing two local runs — and any change that moves
// a simulated bit on the corpus fails here.  Every spec must have a
// golden and every golden a spec.
func TestScenarioCorpusReproducible(t *testing.T) {
	skipCorpusRun(t)
	specs, _ := filepath.Glob(filepath.Join(testCorpusDir, "*.json"))
	goldens, _ := filepath.Glob(filepath.Join(testCorpusDir, "*.golden.jsonl"))
	if len(specs) == 0 {
		t.Fatalf("no scenario specs under %s", testCorpusDir)
	}
	for _, g := range goldens {
		spec := strings.TrimSuffix(g, ".golden.jsonl") + ".json"
		if _, err := os.Stat(spec); err != nil {
			t.Errorf("orphan golden %s has no spec %s", g, spec)
		}
	}
	for _, spec := range specs {
		name := strings.TrimSuffix(filepath.Base(spec), ".json")
		golden := strings.TrimSuffix(spec, ".json") + ".golden.jsonl"
		if _, err := os.Stat(golden); err != nil {
			t.Errorf("%s: missing golden ledger %s (make scenario-baseline)", name, golden)
			continue
		}
		out, got := runLedger(t, "-exp", "scenarios", "-scenario-dir", testCorpusDir, "-scenario", name)
		if !strings.Contains(out, "Scenario league") {
			t.Errorf("%s: stdout lacks the league table:\n%s", name, out)
		}
		if !bytes.Equal(got, pastManifest(t, golden)) {
			t.Errorf("%s: ledger bytes past the manifest differ from %s", name, golden)
		}
	}
}

// TestFeedbackMatchesLedgerBaseline: a fresh `-exp feedback` run's epoch
// records must equal those of the committed ci/LEDGER_baseline.jsonl.
// (The baseline's manifest and host-metrics records legitimately vary
// by host, so only the simulated epoch lines are compared.)
func TestFeedbackMatchesLedgerBaseline(t *testing.T) {
	skipCorpusRun(t)
	epochs := func(ledger []byte) []string {
		var out []string
		for _, line := range strings.Split(string(ledger), "\n") {
			if strings.HasPrefix(line, `{"kind":"epoch"`) {
				out = append(out, line)
			}
		}
		return out
	}
	_, got := runLedger(t, "-exp", "feedback")
	want := epochs(pastManifest(t, "../../ci/LEDGER_baseline.jsonl"))
	if len(want) == 0 {
		t.Fatal("ci/LEDGER_baseline.jsonl has no epoch records")
	}
	if g := epochs(got); !slices.Equal(g, want) {
		t.Errorf("feedback epoch records differ from ci/LEDGER_baseline.jsonl (%d vs %d lines); "+
			"run plumdiff -gate against it to see what moved", len(g), len(want))
	}
}
