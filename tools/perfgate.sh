#!/usr/bin/env bash
# perfgate.sh is the perf regression gate: it measures the hot-path
# benchmarks of the checked-out tree against a base revision built and
# run on the same machine in the same job, so host contention hits both
# sides alike and the gate judges the change, not the hour.
#
#   tools/perfgate.sh [base-rev]    # default HEAD^ (a PR merge commit's base)
#
# Both sides are compiled with `go test -c` (the base from a temporary
# git worktree) and run interleaved per benchmark, A B B A twice, so each
# side gets four repetitions of every benchmark within the same few
# seconds. benchjson then judges the best repetition per benchmark at
# the usual 25% tolerance; the exit status is benchjson's (1 = a
# regression).
set -euo pipefail

base=${1:-HEAD^}
pattern='ExploreSweep|PredictBatch|RBFPredict|SampleDesign'
root=$(git rev-parse --show-toplevel)
cd "$root"
work=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$work/base" "$base" >/dev/null
echo "perf gate: $(git -C "$root" rev-parse --short "$base") (base) vs working tree (head)"
(cd "$work/base" && go test -c -o "$work/base.test" .)
go test -c -o "$work/head.test" .

# run SIDE BENCH appends one run of SIDE's benchmark BENCH to SIDE.txt,
# from that side's own checkout (benchmarks may read package-relative
# files).
run() {
  local dir=$root
  [ "$1" = base ] && dir=$work/base
  (cd "$dir" && "$work/$1.test" -test.run='^$' -test.bench="^$2\$" \
    -test.benchtime=300ms -test.count=1 -test.timeout=20m) | tee -a "$work/$1.txt"
}
for bench in $("$work/head.test" -test.list="$pattern" | grep '^Benchmark'); do
  for side in base head head base base head head base; do
    run "$side" "$bench"
  done
done

go run ./tools/benchjson < "$work/base.txt" > "$work/base.json"
go run ./tools/benchjson < "$work/head.txt" > "$work/head.json"
go run ./tools/benchjson -compare -tolerance 25 -bench "$pattern" \
  "$work/base.json" "$work/head.json"
