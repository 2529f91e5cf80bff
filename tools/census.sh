#!/usr/bin/env bash
# census.sh is the production-reachability census of the serving and
# control plane: it runs the daemons the way CI and a user do, with
# coverage instrumentation on, and lists every plane function no run
# reached. A function on that list is either dead code or a fault path;
# for the latter, a unit test has to be what drives it.
#
#   tools/census.sh [workdir]     # default: a fresh temporary directory
#
# Steps:
#   1. build dsed and dse with `go build -cover -coverpkg=repro/...`;
#   2. run CI's three smoke legs (elastic, straggler, leaderless) from
#      .github/workflows/ci.yml against those builds, with /tmp/ mapped
#      to the work directory;
#   3. run `dse -daemon` pareto over the full factorial and a sampled
#      sweep, on a lone daemon and on a two-peer `-parallel 1` fleet;
#   4. merge the counters with `go tool covdata textfmt` and print the
#      plane functions at 0%.
# Every daemon is stopped with SIGTERM, so it flushes its counters
# (a SIGKILLed process writes none). Ports 9101-9104, 9201-9204,
# 9401-9404 and 9501-9504 must be free. Exit status 1 means a leg
# failed; the census is still printed from what ran.
set -uo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
work=${1:-$(mktemp -d)}
mkdir -p "$work/cover"
export GOCOVERDIR="$work/cover"
echo "census: work directory $work"

go build -cover -coverpkg=repro/... -o "$work/dsed" ./cmd/dsed || exit 2
go build -cover -coverpkg=repro/... -o "$work/dse" ./cmd/dse || exit 2

# leg NAME prints the run block of CI step NAME, minus its own builds,
# with /tmp/ rewritten to the work directory.
leg() {
  awk -v name="- name: $1" '
    { line = $0; sub(/^ +/, "", line) }
    !grab && line == name { grab = 1; next }
    grab && !body && line == "run: |" { body = 1; next }
    body {
      if (ind == "") { match($0, /^ */); ind = RLENGTH }
      if ($0 ~ /[^ ]/) { match($0, /^ */); if (RLENGTH < ind) exit }
      print substr($0, ind + 1)
    }
  ' .github/workflows/ci.yml | sed -e '/go build -o \/tmp\/dse/d' -e "s|/tmp/|$work/|g"
}

status=0
# stop sends SIGTERM to this census's daemons and waits for them to
# flush their counters.
stop() {
  pkill -TERM -f "^$work/dsed " 2>/dev/null
  for _ in $(seq 50); do
    pgrep -f "^$work/dsed " >/dev/null || return 0
    sleep 0.1
  done
}

for step in "Elastic fleet smoke sweep" "Straggler hedging smoke" "Leaderless peer fleet smoke (coordinator death)"; do
  script=$(leg "$step")
  [ -n "$script" ] || { echo "census: CI step '$step' not found"; status=1; continue; }
  if (bash -c "$script") > "$work/leg.log" 2>&1; then
    echo "census: $step: ok"
  else
    echo "census: $step: FAILED (log: $work/leg.log)"
    tail -5 "$work/leg.log"
    status=1
    cp "$work/leg.log" "$work/failed-$(echo "$step" | cut -d' ' -f1).log"
  fi
  stop
done

# run_dse ADDR LABEL: full-factorial pareto and a sampled sweep.
run_dse() {
  for args in "-exp pareto -sample 0" "-exp sweep -sample 2000"; do
    # shellcheck disable=SC2086
    if ! "$work/dse" -daemon "$1" $args -benchmarks gcc -seed 1 > "$work/dse.log" 2>&1 ||
      ! grep -q '^final: ' "$work/dse.log"; then
      echo "census: dse $args on $2: FAILED"
      tail -5 "$work/dse.log"
      status=1
    else
      echo "census: dse $args on $2: ok"
    fi
  done
}

# wait_for URL PATTERN: poll until the body matches.
wait_for() {
  for _ in $(seq 120); do
    curl -sf "$1" 2>/dev/null | grep -q "$2" && return 0
    sleep 0.5
  done
  echo "census: $1 never matched $2"
  status=1
  return 1
}

tiny="-benchmarks gcc -metrics CPI,Power -train 8 -candidates 2 -samples 16 -instrs 16384 -k 8 -quiet"
# shellcheck disable=SC2086
"$work/dsed" -addr 127.0.0.1:9501 $tiny &
wait_for 127.0.0.1:9501/v1/healthz '"status":"ok"' && run_dse 127.0.0.1:9501 "a lone daemon"
stop

peer="-heartbeat 1s -parallel 1 -replicate 1"
# shellcheck disable=SC2086
"$work/dsed" -addr 127.0.0.1:9502 -peers 127.0.0.1:9503 $peer $tiny &
# shellcheck disable=SC2086
"$work/dsed" -addr 127.0.0.1:9503 -peers 127.0.0.1:9502 $peer $tiny &
wait_for 127.0.0.1:9502/v1/metricsz '^dsed_cluster_members 2$' && run_dse 127.0.0.1:9502 "a two-peer fleet"
stop

go tool covdata textfmt -i="$work/cover" -o "$work/cover.txt" || exit 2
go tool cover -func="$work/cover.txt" > "$work/funcs.txt" || exit 2
plane='repro/(cmd/dsed|internal/(api|cluster|gossip|wire)|pkg/dsedclient)/'
echo "census: plane functions no run reached (file:line function):"
grep -E "^$plane" "$work/funcs.txt" | awk '$NF == "0.0%" { sub(/^repro\//, "", $1); print "  " $1, $2 }'
echo "census: $(grep -E "^$plane" "$work/funcs.txt" | awk '$NF == "0.0%"' | wc -l) unreached of $(grep -cE "^$plane" "$work/funcs.txt") plane functions"
exit $status
