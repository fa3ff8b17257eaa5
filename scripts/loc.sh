#!/usr/bin/env bash
# Product lines of code, per crate and in total.
#
#   scripts/loc.sh
#
# The first count is ROADMAP.md's method: every line of every `.rs`
# file under `crates/`, outside the `vendor/`, `bench/`, `oracle/` and
# `tests/` directories, plus the facade's `src/`. The second counts the
# same files only up to each file's first `#[cfg(test)]` line, that is,
# without in-file test modules. bash and awk only.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

files=(src/**/*.rs)
for f in crates/**/*.rs; do
  case "$f" in
    crates/vendor/* | crates/bench/* | crates/oracle/* | */tests/*) continue ;;
  esac
  files+=("$f")
done
if [ "${#files[@]}" -eq 0 ]; then
  echo "loc: no .rs files found" >&2
  exit 1
fi

awk '
  FNR == 1 {
    split(FILENAME, path, "/")
    unit = (path[1] == "crates") ? path[2] : "casekit (src/)"
    if (!(unit in all)) order[++units] = unit
    in_tests = 0
  }
  /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
  {
    all[unit]++
    total++
    if (!in_tests) {
      outside[unit]++
      total_outside++
    }
  }
  END {
    printf "%-16s %8s %14s\n", "crate", "lines", "outside tests"
    for (i = 1; i <= units; i++)
      printf "%-16s %8d %14d\n", order[i], all[order[i]], outside[order[i]]
    printf "%-16s %8d %14d\n", "total", total, total_outside
  }
' "${files[@]}"
