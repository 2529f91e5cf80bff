#!/usr/bin/env bash
# loc.sh prints the non-test Go line counts that CHANGES.md and ROADMAP.md
# quote: one line per package of the serving/control plane, the plane
# total, and the repository total without the perfbench/ module.
#
#   tools/loc.sh [dir]     # default: the root of the current checkout
#
# A line is a physical line of a .go file whose name does not end in
# _test.go; comments and blank lines count. Only the files directly in
# each plane package are counted, not its subdirectories (testdata holds
# no Go). The output is informational; nothing gates on it.
set -euo pipefail

root=${1:-$(git rev-parse --show-toplevel)}
cd "$root"

plane=(cmd/dsed internal/cluster internal/api internal/wire internal/gossip pkg/dsedclient)

# count prints the total line count of the files named on stdin (0 when
# none are named).
count() {
	xargs -r cat | wc -l | tr -d ' '
}

total=0
for pkg in "${plane[@]}"; do
	n=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | count)
	printf '%-18s %6d\n' "$pkg" "$n"
	total=$((total + n))
done
printf '%-18s %6d\n' "plane" "$total"
repo=$(find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' | count)
printf '%-18s %6d\n' "repo (-perfbench)" "$repo"
