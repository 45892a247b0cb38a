#!/usr/bin/env bash
# reach.sh — list the functions declared under internal/ that no program
# links, and fail unless ci/reach_allow.txt names exactly those.
#
# Every program (cmd/* and the benchmark module) is built
# with inlining off (-gcflags=all=-l), so each function the linker keeps
# keeps its symbol; `go tool nm` then lists what is reached (a closure
# or method symbol also marks its prefix, which is harmless: no function
# shares a name with a type).  A function is named pkg.Func or
# pkg.Recv.Method, pkg relative to the module root
# (internal/msg.Comm.Send).  Exit 1 on an unreached function that is not
# allowlisted, or on an allowlist entry that is reached or gone.
#
#   bash ci/reach.sh        # from the repository root
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for d in cmd/*; do go build -gcflags=all=-l -o "$tmp/bin_${d//\//_}" "./$d"; done
(cd benchmark && go build -gcflags=all=-l -o "$tmp/bin_benchmark" .)

for b in "$tmp"/bin_*; do go tool nm "$b"; done |
	sed -nE 's#^ *[0-9a-f]+ [Tt] plum/(internal/.*)#\1#p' |
	sed -E ':a; s/\[[^][]*\]//; ta; s/\(\*?([A-Za-z0-9_]+)\)/\1/' |
	awk -F. '{ print $1 "." $2; if (NF > 2) print $1 "." $2 "." $3 }' |
	sort -u >"$tmp/linked"

find internal -name '*.go' ! -name '*_test.go' -exec \
	awk '/^func / { d = FILENAME; sub(/\/[^\/]*$/, "", d); print d, $0 }' {} + |
	sed -E 's/^([^ ]+) func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1 \2 \3/; s/\(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\)/\2/' |
	awk '$NF != "init" { print $1 "." ($3 == "" ? $2 : $2 "." $3) }' |
	sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" >"$tmp/unreached"
awk '!/^(#|$)/ { print $1 }' ci/reach_allow.txt | sort -u >"$tmp/allowed"

echo "reach: $(wc -l <"$tmp/declared") functions declared under internal/, $(wc -l <"$tmp/unreached") linked by no program"
fail=0
if comm -23 "$tmp/unreached" "$tmp/allowed" | grep .; then
	echo "reach: ^ linked by no program and not in ci/reach_allow.txt (delete, or allowlist with a reason)" >&2
	fail=1
fi
if comm -13 "$tmp/unreached" "$tmp/allowed" | grep .; then
	echo "reach: ^ in ci/reach_allow.txt but now linked or no longer declared (drop the line)" >&2
	fail=1
fi
exit $fail
