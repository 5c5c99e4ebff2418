#!/usr/bin/env bash
# Committed-results gate (run by the `interchange` CI job, or locally as
# tools/results_check.sh).
#
# Regenerates every artifact with the command recorded in the results/
# manifests (`cws-exp all --format csv --metrics --manifest`) into a
# scratch directory and requires each data file to be byte-identical
# to its committed copy under results/. It also fails when the run
# writes a file results/ lacks, or results/ holds a data file the run
# no longer writes. Manifests are skipped: they carry the run's
# timestamp, git SHA, output path and wall-clock histograms.
#
# Environment overrides:
#   OUTDIR — scratch directory (default: target/results-check)

set -euo pipefail
cd "$(dirname "$0")/.."

OUTDIR="${OUTDIR:-target/results-check}"

rm -rf "$OUTDIR"
mkdir -p "$OUTDIR"

cargo build --release -q -p cws-experiments
cargo run --release -q -p cws-experiments --bin cws-exp -- \
  all --out "$OUTDIR" --format csv --metrics --manifest >/dev/null 2>&1

fail=0
for f in "$OUTDIR"/*; do
  base="$(basename "$f")"
  case "$base" in *.manifest.json) continue ;; esac
  if [ ! -f "results/$base" ]; then
    echo "MISSING: results/$base is written by \`cws-exp all\` but not committed" >&2
    fail=1
  elif ! cmp -s "$f" "results/$base"; then
    echo "STALE: results/$base differs from what \`cws-exp all\` writes" >&2
    diff "results/$base" "$f" | head -10 >&2 || true
    fail=1
  fi
done
for f in results/*; do
  base="$(basename "$f")"
  case "$base" in *.manifest.json) continue ;; esac
  if [ ! -f "$OUTDIR/$base" ]; then
    echo "ORPHAN: results/$base is no longer written by \`cws-exp all\`" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "results check FAILED — regenerate with: cws-exp all --out results --format csv --metrics --manifest" >&2
  exit 1
fi
echo "results check clean: every results/ data file matches a fresh run"
