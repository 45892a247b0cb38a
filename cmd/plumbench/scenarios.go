package main

import (
	"fmt"
	"io"
	"strings"

	"plum/internal/core"
	"plum/internal/obs"
	"plum/internal/report"
	"plum/internal/scenario"
)

// The scenarios experiment: the committed workload corpus driven under
// both pricing modes and summarized as a league table.  Every output
// line is a pure function of (corpus, selection), so the rendered table
// and the -obs ledger are byte-reproducible — the property the CI
// scenario-gate byte-verifies against the committed goldens.

// defaultScenarioDir is the committed corpus location, relative to the
// repo root (where CI and the Makefile invoke plumbench).
const defaultScenarioDir = "ci/scenarios"

// selectScenarios filters the corpus by the -scenario flag: a
// comma-separated name list, empty meaning the whole corpus.  Unknown
// names are usage errors that list the corpus.
func selectScenarios(specs []*scenario.Spec, sel string) ([]*scenario.Spec, error) {
	if sel == "" {
		return specs, nil
	}
	var out []*scenario.Spec
	for _, name := range strings.Split(sel, ",") {
		sp, err := scenario.Find(specs, strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

// scenarioIDs names the selected specs for the config digest as
// name@Spec.Digest, so a same-name spec edit makes ledgers incomparable.
func scenarioIDs(specs []*scenario.Spec) []string {
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = sp.Name + "@" + sp.Digest()
	}
	return ids
}

// decisionString renders a run's epoch decisions compactly: one letter
// per epoch, its obs.Verdict's initial — B(alanced), A(ccept), R(eject).
func decisionString(run core.FeedbackRun) string {
	var b strings.Builder
	for _, ep := range run.Epochs {
		b.WriteString(strings.ToUpper(obs.Verdict(ep.Balanced, ep.Accepted)[:1]))
	}
	return b.String()
}

// scenarioVerdict names which pricing mode won a scenario end to end.
// The plane is exact (simulated seconds), so any difference is real;
// the 0.1% band only keeps the label honest when the decisions agreed
// and the times are equal by construction.
func scenarioVerdict(pr core.ScenarioPair) string {
	a, m := pr.Analytic.SimTime, pr.Measured.SimTime
	switch {
	case a <= 0 || m <= 0:
		return "n/a"
	case m < a*0.999:
		return "measured"
	case a < m*0.999:
		return "analytic"
	default:
		return "tie"
	}
}

// scenariosExp runs the selected corpus under both pricing modes and
// renders the league table.
func scenariosExp(w io.Writer, e *core.Experiments, specs []*scenario.Spec) {
	fmt.Fprintf(w, "running the scenario corpus (%d scenarios x analytic/measured pricing)...\n",
		len(specs))
	pairs := e.Scenarios(specs)
	t := report.NewTable("Scenario league: analytic vs measured pricing per unsteady workload",
		"Scenario", "Kind", "Model", "Mapper", "P", "Cycles", "decisions A", "decisions M",
		"diff", "sim A(s)", "sim M(s)", "M/A", "verdict")
	for _, pr := range pairs {
		sp := pr.Spec
		ratio := 1.0
		if pr.Analytic.SimTime > 0 {
			ratio = pr.Measured.SimTime / pr.Analytic.SimTime
		}
		t.AddRow(sp.Name, sp.Kind, sp.Model, sp.Mapper, sp.P, sp.Cycles,
			decisionString(pr.Analytic), decisionString(pr.Measured),
			pr.DecisionDiffs(),
			fmt.Sprintf("%.4f", pr.Analytic.SimTime),
			fmt.Sprintf("%.4f", pr.Measured.SimTime),
			fmt.Sprintf("%.3f", ratio), scenarioVerdict(pr))
	}
	t.Render(w)
	fmt.Fprintln(w, "decisions: one letter per epoch — B(alanced), A(ccept), R(eject); diff counts"+
		" epochs where the pricing modes decided differently (epoch 0 always prices"+
		" analytically); sim times are end-to-end simulated makespans, so the verdict"+
		" column is exact, not sampled")
	fmt.Fprintln(w)
}
