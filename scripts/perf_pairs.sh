#!/usr/bin/env bash
# Paired perf runs of one BENCHMARK.json workload: a parent revision
# against this tree, alternating, in one session.
#
#   scripts/perf_pairs.sh <parent-rev> <workload> [pairs]
#
# The parent is extracted with `git archive` into
# target/perf-pairs/<sha>/ (nothing is registered in .git, and the
# copy is kept so a second call reuses its build; `rm -rf
# target/perf-pairs` drops it). perfbench is built in both trees, then
# `pairs` pairs (default 10) run through BENCHMARK.json's command for
# its run_seconds at --trace 0. Pair i runs seed 1000 + i on both
# sides, and the side that runs first flips every pair. A run whose
# result line does not read `"correct": true` with `"failed": 0`
# prints its output and fails the script. Each pair prints one line;
# at the end each end-to-end metric of BENCHMARK.json prints its
# parent median, change median, change/parent ratio, the parent's
# interquartile range and the number of pairs the change won. bash and
# awk only, besides git, tar and cargo.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/perf_pairs.sh <parent-rev> <workload> [pairs]" >&2
  exit 2
fi
workload="$2"
pairs="${3:-10}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "perf_pairs: pairs must be a positive integer, not \`$pairs\`" >&2
  exit 2
fi
sha="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "perf_pairs: unknown revision \`$1\`" >&2
  exit 2
}
here="$(pwd)"
parent="${here}/target/perf-pairs/${sha}"

# BENCHMARK.json on one line: the command, the run length, and the
# end-to-end metrics as "name:better" words.
spec="$(awk '{ printf "%s ", $0 }' BENCHMARK.json)"
mapfile -t cmd < <(printf '%s\n' "$spec" | awk '{
  if (!match($0, /"command"[ \t]*:[ \t]*\[[^]]*\]/)) exit 1
  s = substr($0, RSTART, RLENGTH)
  sub(/^[^[]*\[/, "", s)
  sub(/\]$/, "", s)
  n = split(s, parts, ",")
  for (i = 1; i <= n; i++) {
    gsub(/^[ \t]*"|"[ \t]*$/, "", parts[i])
    print parts[i]
  }
}')
seconds="$(printf '%s\n' "$spec" | awk '{
  if (!match($0, /"run_seconds"[ \t]*:[ \t]*[0-9]+/)) exit 1
  s = substr($0, RSTART, RLENGTH)
  sub(/.*:[ \t]*/, "", s)
  print s
}')"
metrics="$(printf '%s\n' "$spec" | awk '{
  if (!match($0, /"end_to_end"[ \t]*:[ \t]*\[[^]]*\]/)) exit 1
  s = substr($0, RSTART, RLENGTH)
  while (match(s, /\{[^}]*\}/)) {
    entry = substr(s, RSTART, RLENGTH)
    s = substr(s, RSTART + RLENGTH)
    name = entry; sub(/.*"name"[ \t]*:[ \t]*"/, "", name); sub(/".*/, "", name)
    better = entry; sub(/.*"better"[ \t]*:[ \t]*"/, "", better); sub(/".*/, "", better)
    printf "%s%s:%s", (n++ ? " " : ""), name, better
  }
}')"
if [ "${#cmd[@]}" -eq 0 ] || [ -z "$seconds" ] || [ -z "$metrics" ]; then
  echo "perf_pairs: BENCHMARK.json lacks command, run_seconds or end_to_end" >&2
  exit 1
fi

# Extract beside the final path and rename, so a killed extraction is
# never mistaken for a complete copy.
if [ ! -d "$parent" ]; then
  rm -rf "${parent}.partial"
  mkdir -p "${parent}.partial"
  git archive "$sha" | tar -x -C "${parent}.partial"
  mv "${parent}.partial" "$parent"
fi
for tree in "$parent" "$here"; do
  echo "perf_pairs: building perfbench in ${tree}" >&2
  (cd "$tree" && cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

results="$(mktemp)"
trap 'rm -f "$results"' EXIT

# run_side <side> <tree> <pair> <seed>: one run; its result line goes
# to $results as "<side> <pair> <line>".
run_side() {
  local side="$1" tree="$2" pair="$3" seed="$4" out
  out="$(cd "$tree" && "${cmd[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>&1)" || {
    printf '%s\n' "$out"
    echo "perf_pairs: ${side} run of ${workload} at seed ${seed} exited non-zero" >&2
    exit 1
  }
  if ! printf '%s\n' "$out" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; then
    printf '%s\n' "$out"
    echo "perf_pairs: ${side} run of ${workload} at seed ${seed}: wrong output or failed ops" >&2
    exit 1
  fi
  printf '%s %s %s\n' "$side" "$pair" "$(printf '%s\n' "$out" | grep '^{"correct": ')" >>"$results"
}

# summarise [pair]: with a pair, one line of that pair's values
# (parent -> change); without, each metric's medians, ratio, parent
# interquartile range and the pairs the change won.
summarise() {
  awk -v metrics="$metrics" -v only_pair="${1:-}" '
    function value(line, name,   s) {
      if (!match(line, "\"" name "\": \\{\"value\": [^,}]*")) return ""
      s = substr(line, RSTART, RLENGTH)
      sub(/.*"value": /, "", s)
      return s + 0
    }
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Linear interpolation between the order statistics of sorted a.
    function quantile(a, n, q,   pos, lo) {
      pos = 1 + (n - 1) * q
      lo = int(pos)
      return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    BEGIN {
      m = split(metrics, words, " ")
      for (k = 1; k <= m; k++) { split(words[k], f, ":"); name[k] = f[1]; better[k] = f[2] }
    }
    only_pair != "" && $2 != only_pair { next }
    {
      side = $1; pair = $2; line = $0
      for (k = 1; k <= m; k++) v[side, pair, k] = value(line, name[k])
      if (!(pair in seen)) { seen[pair] = 1; order[++np] = pair }
    }
    END {
      if (only_pair != "") {
        out = "pair " only_pair ":"
        for (k = 1; k <= m; k++)
          out = out sprintf("  %s %.6g -> %.6g", name[k], v["parent", only_pair, k], v["change", only_pair, k])
        print out
        exit
      }
      printf "%-14s %14s %14s %8s %12s %8s\n", "metric", "parent_median", "change_median", "ratio", "parent_iqr", "won"
      for (k = 1; k <= m; k++) {
        won = 0
        for (i = 1; i <= np; i++) {
          p = v["parent", order[i], k]; c = v["change", order[i], k]
          P[i] = p; C[i] = c
          if ((better[k] == "lower" && c < p) || (better[k] == "higher" && c > p)) won++
        }
        sort(P, np); sort(C, np)
        pm = quantile(P, np, 0.5); cm = quantile(C, np, 0.5)
        iqr = quantile(P, np, 0.75) - quantile(P, np, 0.25)
        printf "%-14s %14.6g %14.6g %8.3f %12.6g %5d/%d\n", name[k], pm, cm, (pm != 0 ? cm / pm : 0), iqr, won, np
      }
    }
  ' "$results"
}

echo "perf_pairs: ${workload}, ${pairs} pairs of ${seconds} s, parent ${sha}" >&2
for ((pair = 1; pair <= pairs; pair++)); do
  seed=$((1000 + pair))
  if [ $((pair % 2)) -eq 1 ]; then
    run_side parent "$parent" "$pair" "$seed"
    run_side change "$here" "$pair" "$seed"
  else
    run_side change "$here" "$pair" "$seed"
    run_side parent "$parent" "$pair" "$seed"
  fi
  summarise "$pair"
done
summarise
