# Developer entry points.  The repo needs only the Go toolchain; these
# targets wrap the invocations CI runs — test, the differential gate
# (gate), the scenario corpus (scenarios), and bench-check, which
# compiles and tests the benchmark module against this tree (`go test
# ./...` skips it: benchmark/ is a module of its own) — plus bench, the
# repository benchmark itself (host time; two result files are compared
# with `bash benchmark/run.sh compare A.json B.json`), exp-snapshot
# (every experiment's stdout, for a `diff -r` against a parent commit's),
# and the two simulated-baseline refresh paths (run after a deliberate,
# reviewed simulated-time or schema change — the diff of the regenerated
# baseline IS the review artifact).

GO ?= go

.PHONY: build test bench bench-check ledger-baseline gate scenarios scenario-baseline exp-snapshot fmt vet

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

bench:
	bash benchmark/run.sh

# bench-check vets and tests the repo-level benchmark (benchmark/, a
# nested module with `replace plum => ../`) against the program as it
# stands: the benchmark calls exported core/msg/serve/event surface that
# tier-1 never compiles against, so a refactor that breaks it is
# invisible to `make test`.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -count=1 .

# ledger-baseline refreshes the committed simulated-run baseline the CI
# regression gate diffs against (and whose epoch records
# TestFeedbackMatchesLedgerBaseline compares in `make test`).  Simulated epochs are machine-
# independent, so a refresh is exact everywhere; required after any
# deliberate simulated-time change or a ledger schema bump (the config
# digest embeds the schema version).
ledger-baseline:
	$(GO) run ./cmd/plumbench -exp feedback -obs ci/LEDGER_baseline.jsonl
	@echo "refreshed ci/LEDGER_baseline.jsonl — commit it with the change that moved the numbers"

# gate runs the same differential regression gate as CI, locally.
gate:
	$(GO) build -o /tmp/plum-gate-bench ./cmd/plumbench
	$(GO) build -o /tmp/plum-gate-diff ./cmd/plumdiff
	/tmp/plum-gate-bench -exp feedback -obs /tmp/plum-gate-run.jsonl > /dev/null
	/tmp/plum-gate-diff -gate -fail-on-flip ci/LEDGER_baseline.jsonl /tmp/plum-gate-run.jsonl

# scenarios runs the committed workload corpus (ci/scenarios/*.json)
# under both pricing modes and prints the league table.
scenarios:
	$(GO) run ./cmd/plumbench -exp scenarios

# scenario-baseline regenerates every golden scenario ledger that
# TestScenarioCorpusReproducible (`make test`) byte-verifies and the CI
# scenario-gate diffs against.  One plumbench invocation per scenario —
# the goldens must match the per-scenario runs the test performs
# (the ledger's config digest covers each selected scenario's name and
# spec content, so editing a spec makes its golden stale).
# Scenario ledgers omit the host-metrics record, so a refresh is exact
# on any machine; commit the regenerated goldens with the change that
# moved them — their diff IS the review artifact.
scenario-baseline:
	$(GO) build -o /tmp/plum-scenario-bench ./cmd/plumbench
	@for f in ci/scenarios/*.json; do \
		name=$$(basename $$f .json); \
		echo "regenerating ci/scenarios/$$name.golden.jsonl"; \
		/tmp/plum-scenario-bench -exp scenarios -scenario $$name \
			-obs ci/scenarios/$$name.golden.jsonl > /dev/null || exit 1; \
	done
	@echo "refreshed ci/scenarios/*.golden.jsonl — commit them with the change that moved the numbers"

# exp-snapshot writes the stdout of `plumbench -exp all` under the
# default, smp, fattree and hetero models, of `-exp implicit -measured`,
# of `-exp implicit -model fattree` with its span and trace files, and of
# `-exp scenarios` under OUT (~1 min on 2 cores).  Whether a change moved
# any printed number is then one `diff -r` between the snapshot of its
# parent and its own.  Table 2's three time columns (Opt, Heu and BMCM
# time) are host wall-clock: they always differ, even between two runs
# of one commit.  Every other byte, spans and traces included, is
# simulated and must match.
exp-snapshot:
	@test -n "$(OUT)" || { echo "usage: make exp-snapshot OUT=dir" >&2; exit 2; }
	bash ci/exp-snapshot.sh $(OUT)

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...
