package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// smokeSizes shrinks every workload to seconds: two epochs, two specs,
// four requests, one timed repetition.
var smokeSizes = sizes{Epochs: 2, Specs: 2, Requests: 4}

// smoke runs one shrunken pass of a workload, once per test binary.
var smoke = struct {
	sync.Mutex
	done map[string]*outcome
}{done: make(map[string]*outcome)}

func smokeRun(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	key := workload
	if trace {
		key += "/traced"
	}
	smoke.Lock()
	defer smoke.Unlock()
	if out, ok := smoke.done[key]; ok {
		return out
	}
	out, err := runOne(runOpts{workload: workload, seed: 1, seconds: 0, trace: trace,
		sz: smokeSizes, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	smoke.done[key] = out
	return out
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := smokeRun(t, w.Name, false)
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.notes)
			}
			for _, d := range endToEnd {
				if v, ok := out.metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v (emitted: %v); every end-to-end metric must be measured and never 0", d.Name, v, ok)
				}
			}
			if len(out.metrics) != len(endToEnd) {
				t.Errorf("emitted %d metrics, declared %d: %v", len(out.metrics), len(endToEnd), out.metrics)
			}
			if out.digest == "" {
				t.Error("no output digest")
			}
		})
	}
}

// TestSmokeTraced runs the scenario tour (a sweep, then implicit worlds
// on topologies, each checked against the sweep and against core) and
// the serve tour; between them they must set every declared per-layer
// metric, and nothing else.
func TestSmokeTraced(t *testing.T) {
	emitted := make(map[string]bool)
	for _, w := range []string{wlScenarioSweep, wlServeCold} {
		out := smokeRun(t, w, true)
		if out.failed != 0 || out.attempted == 0 {
			t.Fatalf("%s: attempted %d, failed %d: %v", w, out.attempted, out.failed, out.notes)
		}
		for name := range out.metrics {
			emitted[name] = true
		}
		if len(out.spans) == 0 {
			t.Errorf("%s: no spans", w)
		}
		for _, s := range out.spans {
			if s.End < s.Start || s.Parent >= s.ID {
				t.Fatalf("%s: malformed span %+v", w, s)
			}
		}
	}
	declared := make(map[string]bool)
	for _, d := range perLayer {
		declared[d.Name] = true
		if !emitted[d.Name] {
			t.Errorf("%s is declared but no traced pass set it", d.Name)
		}
	}
	for name := range emitted {
		if !declared[name] {
			t.Errorf("%s is emitted but not declared", name)
		}
	}
}

// TestTourTilesAndAgrees pins the tour's two claims on the explicit
// workload: its spans add up exactly to its wall-clock, and it runs the
// same program as core (compareTour found no difference).
func TestTourTilesAndAgrees(t *testing.T) {
	out := smokeRun(t, wlAdaptCycle, true)
	if out.failed != 0 {
		t.Fatalf("tour disagrees with core: %v", out.notes)
	}
	var root span
	var leaves float64
	for _, s := range out.spans {
		switch {
		case s.Name == "tour":
			root = s
			leaves = 0
		case s.Name != "epoch":
			leaves += s.End - s.Start
		}
	}
	if wall := root.End - root.Start; wall <= 0 || leaves < wall*(1-1e-9) || leaves > wall*(1+1e-9) {
		t.Errorf("phase spans cover %v s of a %v s tour", leaves, wall)
	}
	if out.metrics["linalg.pcg_ms"] != 0 || out.metrics["solver.step_ms"] <= 0 {
		t.Errorf("explicit tour: linalg.pcg_ms %v, solver.step_ms %v", out.metrics["linalg.pcg_ms"], out.metrics["solver.step_ms"])
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpec validates the declarations against the contract
// BENCHMARK.json is written to, and pins the committed file to them.
func TestSpec(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads; the contract allows 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics; the contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 1 to 128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	e2e := make(map[string]bool)
	for _, d := range endToEnd {
		name(d.Name)
		e2e[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Def == "" {
			t.Errorf("%s: no definition", d.Name)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", d)
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if !strings.Contains("T K C H", d.Src) || len(d.Src) != 1 {
			t.Errorf("%s: source %q", d.Name, d.Src)
		}
		metric, workload, ok := strings.Cut(d.Moves, " @ ")
		if !ok || (!e2e[metric] && !strings.HasPrefix(metric, "none")) || (workload != "all" && !isWorkload(workload)) {
			t.Errorf("%s: %q does not name a declared end-to-end metric @ workload", d.Name, d.Moves)
		}
	}
	for _, metric := range tourSpanMetrics {
		if !seen[metric] {
			t.Errorf("tour span feeds undeclared metric %s", metric)
		}
	}
	for _, p := range declaredSpec().Command {
		if strings.HasPrefix(p, "/") || strings.Contains(p, "..") || len(p) > 200 {
			t.Errorf("command part %q", p)
		}
	}

	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("the repository root must hold BENCHMARK.json: %v", err)
	}
	if !bytes.Equal(committed, specJSON()) {
		t.Errorf("BENCHMARK.json is not what `run.sh spec` prints; regenerate it")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; the contract allows 64 KiB", len(committed))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(committed, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json must have exactly six keys: %v %v", len(keys), err)
	}
}

func TestSeedDeterminism(t *testing.T) {
	digests := func(seed int64) map[string]bool {
		set := make(map[string]bool)
		for _, w := range []string{wlServeCold, wlServeCached, wlServeCollapsed} {
			for _, reqJSON := range genRequests(w, seed, 8) {
				d, err := requestDigest(reqJSON)
				if err != nil {
					t.Fatalf("generated request %s: %v", reqJSON, err)
				}
				if set[d] {
					t.Errorf("seed %d generates digest %s twice", seed, d)
				}
				set[d] = true
			}
		}
		return set
	}
	one, again, two := digests(1), digests(1), digests(2)
	for d := range one {
		if !again[d] {
			t.Errorf("seed 1 does not regenerate digest %s", d)
		}
		if two[d] {
			t.Errorf("seeds 1 and 2 share digest %s", d)
		}
	}
	if a, b := genRequests(wlServeCold, 1, 8), genRequests(wlServeCold, 1, 8); !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
		t.Error("one seed, two request lists")
	}

	specs := func(seed int64) []byte {
		docs, err := genScenarioSpecs(seed, sizes{})
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 9 {
			t.Fatalf("%d specs, want the nine templates", len(docs))
		}
		if _, err := loadScenarios(docs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return bytes.Join(docs, []byte("\n"))
	}
	if !bytes.Equal(specs(1), specs(1)) {
		t.Error("one seed, two sets of jittered specs")
	}
	if bytes.Equal(specs(1), specs(2)) {
		t.Error("seeds 1 and 2 jitter the specs identically")
	}
	for seed := int64(3); seed < 200; seed++ {
		specs(seed) // every seed must survive the strict loader
	}
	if a, b := genCycleInputs(wlAdaptCycle, 1, sizes{}), genCycleInputs(wlAdaptCycle, 2, sizes{}); a == b ||
		a != genCycleInputs(wlAdaptCycle, 1, sizes{}) {
		t.Errorf("cycle inputs: seed 1 %+v, seed 2 %+v", a, b)
	}
}

// TestSeedChangesOutput: another seed, another output digest, same work.
func TestSeedChangesOutput(t *testing.T) {
	h := newHarness()
	run := func(seed int64) worldResult {
		r, _ := h.runWorld(h.planCycle(genCycleInputs(wlAdaptCycle, seed, smokeSizes)), false)
		return r
	}
	a, b := run(1), run(2)
	if digestOf(a.digestInto) == digestOf(b.digestInto) {
		t.Error("seeds 1 and 2 give the same output digest")
	}
	if a.SimTime == b.SimTime {
		t.Error("seeds 1 and 2 give the same simulated makespan")
	}
	if a.Epochs[1].Elems != b.Epochs[1].Elems {
		t.Errorf("the seed moved the mesh history: %d vs %d elements", a.Epochs[1].Elems, b.Epochs[1].Elems)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {39, 50}, {40, 75}, {48, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95},
		{1000, 99}, {4800, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(v))
	}
	if s := spread(v); s != 1 {
		t.Errorf("spread %v, want (8.25-2.75)/5.5", s)
	}
	if p := percentile(v, 100); p != 10 {
		t.Errorf("p100 %v", p)
	}
	if median(nil) != 0 || spread([]float64{3}) != 0 {
		t.Error("empty and single samples")
	}
}

// results builds a results file with the given values of one metric on
// adapt-cycle, seeds 1..n.
func results(metric string, vals ...float64) *resultsFile {
	f := &resultsFile{Schema: resultsSchema}
	for i, v := range vals {
		f.Runs = append(f.Runs, runRecord{Workload: wlAdaptCycle, Seed: int64(i + 1),
			runLine: runLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{metric: {Value: v}}}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(a, b *resultsFile) string {
		rows, _ := compareResults(a, b)
		if len(rows) != 1 {
			t.Fatalf("%d rows", len(rows))
		}
		return rows[0].Verdict
	}
	// epochs_per_s: higher is better, bound 10 %.
	if v := verdict(results("epochs_per_s", 2.0, 2.01, 1.99), results("epochs_per_s", 1.9, 1.91, 1.89)); v != "ok" {
		t.Errorf("5%% slower: %s", v)
	}
	if v := verdict(results("epochs_per_s", 2.0, 2.01, 1.99), results("epochs_per_s", 1.7, 1.71, 1.69)); v != "regressed" {
		t.Errorf("15%% slower: %s", v)
	}
	if v := verdict(results("epochs_per_s", 2.0, 2.01, 1.99), results("epochs_per_s", 2.6, 2.61, 2.59)); v != "ok" {
		t.Errorf("30%% faster: %s", v)
	}
	if v := verdict(results("epochs_per_s", 2.0, 2.5, 1.5), results("epochs_per_s", 2.0, 2.01, 1.99)); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	// sim_makespan_s is exact when both sides ran the same seeds.
	if v := verdict(results("sim_makespan_s", 4.1, 4.2), results("sim_makespan_s", 4.1, 4.2)); v != "ok" {
		t.Errorf("identical exact metric: %s", v)
	}
	if v := verdict(results("sim_makespan_s", 4.1, 4.2), results("sim_makespan_s", 4.1, 4.2000001)); v != "regressed" {
		t.Errorf("moved exact metric: %s", v)
	}
	worse := results("op_ms_p50", 100)
	worse.Runs[0].Failed = 1
	if v := verdict(results("op_ms_p50", 100), worse); v != "regressed" {
		t.Errorf("more failures: %s", v)
	}

	var out bytes.Buffer
	rows, diffs := compareResults(results("epochs_per_s", 2.0), results("epochs_per_s", 1.0))
	if code := printComparison(&out, rows, diffs); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("exit %d:\n%s", code, out.String())
	}
}

// TestCommittedResults holds the two committed same-code result sets to
// the acceptance criteria of the issue that defined the benchmark: they
// agree within the benchmark's own bounds, and the workloads
// discriminate between the layers.
func TestCommittedResults(t *testing.T) {
	a, err := readResults(filepath.Join("results", "BENCH_11.a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readResults(filepath.Join("results", "BENCH_11.b.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows, diffs := compareResults(a, b)
	if len(rows) != len(workloads)*len(endToEnd) {
		t.Errorf("%d comparison rows, want %d", len(rows), len(workloads)*len(endToEnd))
	}
	for _, r := range rows {
		if r.Verdict == "regressed" {
			t.Errorf("%s %s: same code, yet regressed (%+v)", r.Workload, r.Metric, r)
		}
	}
	for _, d := range diffs {
		t.Errorf("exact counter differs between same-code runs: %s", d)
	}
	for _, f := range []*resultsFile{a, b} {
		layer := func(workload, name string) float64 {
			vals, _, _ := valuesOf(f, workload, name, 1)
			if len(vals) != 1 {
				t.Fatalf("%s %s: %d traced values", workload, name, len(vals))
			}
			return vals[0]
		}
		share := func(workload, prefix string) float64 {
			var total float64
			for _, metric := range tourSpanMetrics {
				if strings.HasPrefix(metric, prefix) {
					total += layer(workload, metric)
				}
			}
			return total / layer(workload, "bench.tour_ms")
		}
		if s := share(wlAdaptCycle, "pmesh."); s < 0.5 {
			t.Errorf("adapt-cycle: pmesh share %.2f < 0.5", s)
		}
		if s := share(wlAdaptCycle, "linalg."); s != 0 {
			t.Errorf("adapt-cycle: linalg share %.2f != 0", s)
		}
		if s := share(wlImplicitSolve, "linalg."); s < 0.5 {
			t.Errorf("implicit-solve: linalg share %.2f < 0.5", s)
		}
		if s := share(wlImplicitSolve, "pmesh."); s > 0.15 {
			t.Errorf("implicit-solve: pmesh share %.2f > 0.15", s)
		}
		if setup, pcg := layer(wlScenarioSweep, "linalg.spai_setup_ms"), layer(wlScenarioSweep, "linalg.pcg_ms"); setup <= pcg {
			t.Errorf("scenario-sweep: SPAI setup %.0f ms does not exceed PCG %.0f ms", setup, pcg)
		}
		cached, _, _ := valuesOf(f, wlServeCached, "op_ms_p50", 0)
		cold, _, _ := valuesOf(f, wlServeCold, "op_ms_p50", 0)
		if median(cached) >= 0.01*median(cold) {
			t.Errorf("cached p50 %.3f ms is not under 1%% of cold p50 %.1f ms", median(cached), median(cold))
		}
		for _, w := range []string{wlAdaptCycle, wlImplicitSolve, wlScenarioSweep} {
			if c := layer(w, "bench.tour_cover"); c < 0.85 || c > 1.3 {
				t.Errorf("%s: tour cover %.3f outside [0.85, 1.3]", w, c)
			}
		}
		for _, r := range f.Runs {
			if r.Failed != 0 || !r.Correct {
				t.Errorf("%s seed %d trace %d: %d failed", r.Workload, r.Seed, r.Trace, r.Failed)
			}
		}
	}
}
