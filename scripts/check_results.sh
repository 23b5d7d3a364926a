#!/bin/sh
# check_results.sh — regenerate the extension tables and require them
# to match the committed results_ext.txt and results_mp.txt byte for
# byte. It pins the harness paths the extension experiments take
# (ext-filters, ext-depth, ext-srt, mp-scaling, mp-coverage): any
# behavioral drift in the simulator, the campaign engine, or the
# multicore injector changes a table cell here.
#
# Usage: scripts/check_results.sh OUTDIR
#
# The tables are written to OUTDIR/results_ext.txt and
# OUTDIR/results_mp.txt, then compared against the committed files.
# With OUTDIR "." the committed files themselves are regenerated and
# the comparison is skipped (`make extensions`). Run from the
# repository root; takes about 30 s on 2 vCPUs.
set -eu

GO=${GO:-go}
out=${1:?usage: scripts/check_results.sh OUTDIR}
mkdir -p "$out"

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT INT TERM
$GO build -o "$bin/faulthound" ./cmd/faulthound

"$bin/faulthound" -experiment extensions -commits 30000 -injections 400 > "$out/results_ext.txt"
{
  "$bin/faulthound" -experiment mp-scaling -commits 30000
  "$bin/faulthound" -experiment mp-coverage -commits 30000
} > "$out/results_mp.txt"

if [ "$out" -ef . ]; then
  echo "regenerated results_ext.txt and results_mp.txt"
  exit 0
fi
for f in results_ext.txt results_mp.txt; do
  if ! cmp "$out/$f" "$f"; then
    diff "$f" "$out/$f" || true
    echo "FAIL: regenerated $f differs from the committed file" >&2
    exit 1
  fi
  echo "ok: $f reproduces byte for byte"
done
