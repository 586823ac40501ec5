#!/usr/bin/env bash
# A/B the repository benchmark (perfbench/run.py) between a git revision
# and the working tree, in alternating pairs on one machine.
#
# Usage:
#   tools/bench_ab.sh [options] <rev>     run the A/B and print the table
#   tools/bench_ab.sh --summarize FILE    re-print the table of a record
#   tools/bench_ab.sh --selftest          check the summary on canned runs
#
# Options:
#   --pairs N          pairs per workload (default 10)
#   --seconds S        --seconds passed to every run (default 30)
#   --workloads A,B    workloads to run (default: every workload in
#                      BENCHMARK.json)
#   --workdir DIR      where to unpack and build <rev> and record the
#                      runs (default: mktemp)
#
# <rev> is exported with `git archive` into the work directory and built
# there by run.py itself; the candidate is the working tree, built into
# its own .bench_build/. Pair i runs both sides with seed i, and the side
# that goes first alternates from pair to pair so drift in machine state
# does not favor either. Nothing under perfbench/ or BENCHMARK.json is
# written.
#
# The record (ab_runs.tsv in the work directory) holds one line per run:
# workload, side (base|cand), pair and the run's result object,
# tab-separated. The summary prints, per workload and end-to-end metric
# of BENCHMARK.json: each side's median and interquartile range, the
# change of the median, and in how many pairs the candidate was better. Exit status is 1 when any run crashed
# or reported correct=false, 2 on a usage error.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

summarize() {  # summarize <record> <benchmark.json>
  python3 - "$1" "$2" <<'PY'
import json
import statistics
import sys

record, spec_path = sys.argv[1], sys.argv[2]
with open(spec_path, encoding="utf-8") as f:
    spec = json.load(f)
metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

runs = {}  # (workload, side) -> {pair: result}
bad = 0
with open(record, encoding="utf-8") as f:
    for line in f:
        if not line.strip():
            continue
        workload, side, pair, payload = line.rstrip("\n").split("\t", 3)
        try:
            result = json.loads(payload)
        except json.JSONDecodeError:
            result = None
        if not result or not result.get("correct", False):
            print(f"BAD RUN {workload} {side} pair {pair}: {payload[:120]}")
            bad += 1
            continue
        runs.setdefault((workload, side), {})[int(pair)] = result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


workloads = sorted({w for w, _ in runs})
print(f"{'workload':<16} {'metric':<12} {'base median':>12} {'[IQR]':>10} "
      f"{'cand median':>12} {'[IQR]':>10} {'change':>8} {'cand wins':>10}")
for workload in workloads:
    base = runs.get((workload, "base"), {})
    cand = runs.get((workload, "cand"), {})
    pairs = sorted(set(base) & set(cand))
    for side, got in (("base", base), ("cand", cand)):
        failed = sum(r.get("failed", 0) for r in got.values())
        attempted = sum(r.get("attempted", 0) for r in got.values())
        print(f"{workload:<16} {side}: {len(got)} correct runs, "
              f"{failed} of {attempted} operations failed")
    for name, better in metrics:
        b = [base[p]["metrics"][name]["value"] for p in pairs]
        c = [cand[p]["metrics"][name]["value"] for p in pairs]
        if not pairs:
            continue
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        change = (cmed - bmed) / bmed * 100.0 if bmed else float("nan")
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        print(f"{workload:<16} {name:<12} {bmed:>12.4g} {bq3 - bq1:>10.3g} "
              f"{cmed:>12.4g} {cq3 - cq1:>10.3g} {change:>+7.1f}% "
              f"{wins:>4}/{len(pairs)}")
sys.exit(1 if bad else 0)
PY
}

selftest() {
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  run_line() {  # run_line <workload> <side> <pair> <setup_s> <qps> [correct]
    printf '%s\t%s\t%s\t{"correct": %s, "attempted": 100, "failed": 0, ' \
        "$1" "$2" "$3" "${6:-true}"
    printf '"metrics": {"setup_s": {"value": %s}, "qps": {"value": %s}, ' \
        "$4" "$5"
    printf '"p50_ms": {"value": 1}, "p99_ms": {"value": 2}, '
    printf '"peak_rss_mb": {"value": 10}}}\n'
  }
  {
    # Candidate: setup_s lower in every pair; qps higher in 2 of 3.
    run_line w base 1 1.0 100
    run_line w cand 1 0.5 110
    run_line w cand 2 0.6 120
    run_line w base 2 1.2 100
    run_line w base 3 1.1 130
    run_line w cand 3 0.4 90
  } > "$tmp/good"
  local fails=0 out status
  status=0
  out="$(summarize "$tmp/good" "$REPO_ROOT/BENCHMARK.json")" || status=$?
  check() {  # check <name> <condition...>
    if "${@:2}"; then echo "ok   $1"; else
      echo "FAIL $1"; echo "$out" | sed 's/^/    /'; fails=$((fails + 1))
    fi
  }
  check "clean record exits 0" test "$status" = 0
  check "setup_s medians, IQR, change and wins" \
      grep -Eq '^w +setup_s +1.1 +0.1 +0.5 +0.1 +-54.5% +3/3$' <<< "$out"
  check "qps wins count the higher side" \
      grep -Eq '^w +qps +100 +15 +110 +15 +\+10.0% +2/3$' <<< "$out"
  check "ties are not wins" \
      grep -Eq '^w +p50_ms +1 +0 +1 +0 +\+0.0% +0/3$' <<< "$out"
  check "operation counts per side" \
      grep -Eq '^w +cand: 3 correct runs, 0 of 300 operations' <<< "$out"
  {
    cat "$tmp/good"
    run_line w cand 4 0.5 100 false
    printf 'w\tbase\t4\tnot json\n'
  } > "$tmp/bad"
  status=0
  out="$(summarize "$tmp/bad" "$REPO_ROOT/BENCHMARK.json")" || status=$?
  check "incorrect or crashed runs exit 1" test "$status" = 1
  check "incorrect run is named" grep -q 'BAD RUN w cand pair 4' <<< "$out"
  check "crashed run is named" grep -q 'BAD RUN w base pair 4' <<< "$out"
  check "bad runs stay out of the pairs" \
      grep -Eq '^w +setup_s .* 3/3$' <<< "$out"
  if [[ "$fails" != 0 ]]; then
    echo "$fails check(s) failed"
    return 1
  fi
  echo "all checks passed"
}

PAIRS=10
SECONDS_PER_RUN=30
WORKLOADS=""
WORKDIR=""
REV=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --selftest) selftest; exit $? ;;
    --summarize)
      [[ $# -ge 2 ]] || { echo "--summarize needs a file" >&2; exit 2; }
      summarize "$2" "$REPO_ROOT/BENCHMARK.json"; exit $? ;;
    --pairs) PAIRS="$2"; shift ;;
    --seconds) SECONDS_PER_RUN="$2"; shift ;;
    --workloads) WORKLOADS="$2"; shift ;;
    --workdir) WORKDIR="$2"; shift ;;
    -*) echo "unknown flag: $1" >&2; exit 2 ;;
    *) REV="$1" ;;
  esac
  shift
done
[[ -n "$REV" ]] || { echo "usage: $0 [options] <rev>" >&2; exit 2; }

if [[ -z "$WORKLOADS" ]]; then
  WORKLOADS="$(python3 -c 'import json,sys
print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
      "$REPO_ROOT/BENCHMARK.json")"
fi
if [[ -z "$WORKDIR" ]]; then
  WORKDIR="$(mktemp -d)"
fi
BASE="$WORKDIR/base"
rm -rf "$BASE"
mkdir -p "$BASE"
git -C "$REPO_ROOT" archive "$REV" | tar -x -C "$BASE"
OUT="$WORKDIR/ab_runs.tsv"
: > "$OUT"
LOG="$WORKDIR/ab_runs.log"
: > "$LOG"

run_side() {  # run_side <side> <workload> <pair> <seconds> [record]
  local dir="$REPO_ROOT" line
  [[ "$1" == base ]] && dir="$BASE"
  line="$(cd "$dir" && python3 perfbench/run.py --workload "$2" \
      --seed "$3" --seconds "$4" --trace 0 2>> "$LOG" | tail -n 1)" || true
  if [[ "${5:-}" == record ]]; then
    printf '%s\t%s\t%s\t%s\n' "$2" "$1" "$3" "${line:-crashed}" >> "$OUT"
  fi
}

IFS=',' read -r -a WORKLOAD_LIST <<< "$WORKLOADS"
for workload in "${WORKLOAD_LIST[@]}"; do
  # Untimed warm-up: builds both sides before the first measured pair.
  run_side base "$workload" 0 1
  run_side cand "$workload" 0 1
  for ((pair = 1; pair <= PAIRS; ++pair)); do
    if (( pair % 2 )); then order=(base cand); else order=(cand base); fi
    for side in "${order[@]}"; do
      echo "== $workload pair $pair/$PAIRS: $side" >&2
      run_side "$side" "$workload" "$pair" "$SECONDS_PER_RUN" record
    done
  done
done

echo "record: $OUT (run logs: $LOG)"
summarize "$OUT" "$REPO_ROOT/BENCHMARK.json"
