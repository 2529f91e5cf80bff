#!/usr/bin/env bash
# fmacheck.sh fails when a level route's answer-bearing function compiles
# to a fused multiply-add on arm64. Go may fuse x*y + z into one rounding
# on arm64 (never on amd64); an explicit float64() around the product
# forbids it. Every route that scores a mean — rbf's PredictLevels and
# PredictTables, core's PredictMeanLevels and the sweep engine's lattice
# route — must round alike on every architecture, so these functions
# must carry no FMADDD, FMSUBD, FNMADDD or FNMSUBD. So must the bounds a
# pruning sweep skips subtrees by (rbf's BoundTables and the engine's
# latticeLow): they are exact only if they round as the scores do, and a
# fused bound could exceed an unfused score by an ulp and prune a
# frontier point. It is a cross-compile, so it needs no arm64 host.
#
#   bash tools/fmacheck.sh
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
funcs='^repro/internal/(rbf\.\(\*Network\)\.(PredictLevels|PredictTables|BoundTables)|core\.\(\*Predictor\)\.PredictMeanLevels|explore\.\(\*worker\)\.(latticeMean|latticeLow|score|scoreWindow))$'
GOARCH=arm64 go build -gcflags=-S ./internal/rbf ./internal/core ./internal/explore 2>&1 |
  awk -v re="$funcs" '
    / STEXT / { fn = ($1 ~ re) ? $1 : ""; if (fn != "") seen[fn] = 1; next }
    fn != "" && /\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ { print "fused multiply-add in " fn ":" $0; bad = 1 }
    END {
      n = 0
      for (f in seen) n++
      if (n != 8) { print "fmacheck: found " n " of the 8 checked functions in the assembly"; exit 1 }
      if (bad) exit 1
      print "fmacheck: no fused multiply-add in the 8 level-route functions"
    }'
