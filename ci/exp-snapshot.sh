#!/usr/bin/env bash
# exp-snapshot.sh — write the stdout of every experiment, plus the
# implicit experiment's span and trace files, under one directory, so a
# change's effect on the printed tables is one `diff -r` between the
# snapshot of the parent and the snapshot of the change.
#
#   bash ci/exp-snapshot.sh OUT     # from the repository root; or make exp-snapshot OUT=dir
#
# Everything the snapshot holds is simulated and deterministic except
# Table 2's three time columns (OptMWBG, HeuMWBG and OptBMCM
# reassignment seconds): those are host wall-clock and differ between
# any two runs, even of the same commit.
set -euo pipefail
out=${1:?usage: bash ci/exp-snapshot.sh OUT}
cd "$(dirname "$0")/.."
mkdir -p "$out"
out=$(cd "$out" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/plumbench" ./cmd/plumbench
bench=$tmp/plumbench

"$bench" -exp all >"$out/all.txt"
for m in smp fattree hetero; do
	"$bench" -exp all -model "$m" >"$out/all-$m.txt"
done
"$bench" -exp implicit -measured >"$out/implicit-measured.txt"
# Relative file names: -trace prints the path it wrote on stdout.
(cd "$out" && "$bench" -exp implicit -model fattree -spans implicit-fattree.spans.jsonl \
	-trace implicit-fattree.trace.json >implicit-fattree.txt)
"$bench" -exp scenarios >"$out/scenarios.txt"
echo "exp-snapshot: wrote $(ls "$out" | wc -l) files under $out"
