#!/usr/bin/env bash
# exp-snapshot.sh — write the stdout of every experiment and of the
# paper-scale Table 1 and Figs. 4, 5, 6 and 8 (the 60,912-element mesh:
# its refinement path, the partitioner on its dual and the remap
# decisions), plus the implicit experiment's span and trace files, the
# feedback experiment's span file (the measured, multi-epoch profile
# windows and their wait blame) and plumviz's -trace report (the
# per-rank cost profile and wait-blame tables) with its trace file,
# under one directory, so a change's effect on the printed tables is one
# `diff -r` between the snapshot of the parent and the snapshot of the
# change.
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
go build -o "$tmp/plumviz" ./cmd/plumviz
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
(cd "$out" && "$bench" -exp feedback -spans feedback.spans.jsonl >feedback.txt)
for e in table1 fig4 fig5 fig6 fig8; do
	"$bench" -paper -exp "$e" >"$out/$e-paper.txt"
done
# The VTK mesh stays in the temporary directory; the Chrome trace and
# the profile report are kept.
(cd "$tmp" && ./plumviz -p 4 -o plumviz.vtk -trace plumviz.trace.json >"$out/plumviz-trace.txt")
mv "$tmp/plumviz.trace.json" "$out/"
echo "exp-snapshot: wrote $(ls "$out" | wc -l) files under $out"
