#!/usr/bin/env bash
# bench-pair.sh — the paired-run protocol behind every performance claim
# in CHANGES.md, scripted: measure a base commit and the working tree with
# the repository benchmark, alternating which side runs first, and judge
# every workload × end-to-end metric against BENCHMARK.json's bounds.
#
#   scripts/bench-pair.sh <base-ref> [--pairs N] [--seed S] [workload...]
#
# The base is extracted (git archive) into .bench_build/pair/base and its
# benchmark/ directory replaced by the working tree's, so both sides run
# the identical harness; each run is `bash <tree>/benchmark/run.sh` with
# BENCHMARK.json's run length, exactly as the driver runs it. Neither
# BENCHMARK.json nor benchmark/ is edited. Per workload × metric it prints
# both sides' q1/median/q3, the pairs the change won and tied, and one of
#
#   improved    the change won ≥ 9/10 of at least ten pairs (ties count for
#               neither; an exact count needs no ten) and the medians
#               differ by more than the parent's own interquartile range
#   regressed   the mirror image, by more than the metric's bound as well
#   unresolved  the parent's interquartile range is wider than the bound,
#               or the median is worse by more than the bound without the
#               pairs agreeing: more pairs are needed before saying anything
#   within      no worse than the bound, and resolved
#
# and exits non-zero only on `regressed` (or a larger share of failed
# epochs). A run the harness declares void is repeated, and counted per
# side. Every run's result line is kept under .bench_build/pair/runs/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
[ $# -ge 1 ] || { sed -n '2,8p' "$0" >&2; exit 2; }
base_ref="$1"; shift
pairs=10 seed=1 workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    -*) echo "bench-pair: unknown option $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done

# BENCHMARK.json is pretty-printed, one key per line: read the run length,
# the workload names and "name better bound" of each end-to-end metric.
seconds="$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)"
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(awk '/"workloads"/ {on=1} on && /"name"/ {gsub(/[",]/, ""); print $2} on && /\]/ {exit}' BENCHMARK.json)
fi
metrics="$(awk '/"end_to_end"/ {on=1} on && /\]/ {exit}
  on && /"name"/ {gsub(/[",]/, ""); name=$2} on && /"better"/ {gsub(/[",]/, ""); better=$2}
  on && /"bound"/ {gsub(/[",]/, ""); print name, better, $2}' BENCHMARK.json)"

pair="$root/.bench_build/pair"
rm -rf "$pair/base" "$pair/runs"
mkdir -p "$pair/base" "$pair/runs"
git archive "$base_ref" | tar -x -C "$pair/base"
rm -rf "$pair/base/benchmark"
cp -r benchmark "$pair/base/benchmark"
echo "base $(git rev-parse --short "$base_ref") in $pair/base, change = working tree; $pairs pairs, seed $seed, ${seconds}s runs"

# run <side> <tree> <workload> <i>: one benchmark run, result line kept. A
# void run (the harness refuses to report: unsustainable open loop, lost
# connection, wrong output) is counted against its side and repeated.
run() {
  local out="$pair/runs/$3.$1.$4.json" try
  for try in 1 2 3; do
    if bash "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 2> "$pair/runs/stderr" | tail -n 1 > "$out"; then
      return
    fi
    tail -n 1 "$pair/runs/stderr" >> "$pair/runs/$3.$1.void"
  done
  echo "bench-pair: $1 run $4 of $3 was void three times: $(tail -n 1 "$pair/runs/stderr")" >&2
  exit 1
}

status=0
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      run base "$pair/base" "$w" "$i"; run change "$root" "$w" "$i"
    else
      run change "$root" "$w" "$i"; run base "$pair/base" "$w" "$i"
    fi
  done
  echo
  echo "== $w"
  verdicts="$(while read -r name better bound; do
    for side in base change; do
      for ((i = 0; i < pairs; i++)); do
        sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p" "$pair/runs/$w.$side.$i.json"
      done > "$pair/runs/$w.$side.$name.txt"
    done
    paste "$pair/runs/$w.base.$name.txt" "$pair/runs/$w.change.$name.txt" |
      awk -v name="$name" -v better="$better" -v bound="$bound" '
        function quart(v, n, q,   pos, lo) { pos = (n - 1) * q; lo = int(pos); return v[lo + 1] + (pos - lo) * (v[(lo + 2 > n ? n : lo + 2)] - v[lo + 1]) }
        function sorted(src, dst, n,   i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]
          for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
        { n++; b[n] = $1; c[n] = $2; d = (better == "lower") ? $1 - $2 : $2 - $1
          if (d > 0) won++; else if (d == 0) tied++; else lost++ }
        END {
          sorted(b, sb, n); sorted(c, sc, n)
          bq1 = quart(sb, n, .25); bm = quart(sb, n, .5); bq3 = quart(sb, n, .75)
          cq1 = quart(sc, n, .25); cm = quart(sc, n, .5); cq3 = quart(sc, n, .75)
          iqr = bq3 - bq1; gain = (better == "lower") ? bm - cm : cm - bm   # > 0: the change is better
          # ten pairs, unless the metric is a count that repeats (to 1e-6) on both sides
          enough = n >= 10 || (iqr <= 1e-6 * bm && cq3 - cq1 <= 1e-6 * cm)
          verdict = "within"
          if (enough && won >= 0.9 * n && gain > iqr) verdict = "improved"
          else if (enough && lost >= 0.9 * n && -gain > iqr && -gain > bound * bm) verdict = "regressed"
          else if (iqr > bound * bm || -gain > bound * bm) verdict = "unresolved"
          printf "%-22s base %.4g / %.4g / %.4g   change %.4g / %.4g / %.4g   %+.2f%%   won %d tied %d of %d   %s\n",
            name, bq1, bm, bq3, cq1, cm, cq3, (bm ? 100 * (cm - bm) / bm : 0), won, tied, n, verdict
        }'
  done <<< "$metrics")"
  echo "$verdicts"
  # Failed epochs per side, as "failed attempted", then whether the change
  # fails the larger share.
  for side in base change; do
    cat "$pair"/runs/"$w.$side".[0-9]*.json | awk '
      { if (match($0, /"attempted":[0-9]+/)) a += substr($0, RSTART + 12, RLENGTH - 12)
        if (match($0, /"failed":[0-9]+/)) f += substr($0, RSTART + 9, RLENGTH - 9) }
      END { print f + 0, a + 0 }' > "$pair/runs/$w.$side.failed.txt"
    read -r f a < "$pair/runs/$w.$side.failed.txt"
    printf '%-22s %s %d of %d epochs\n' failed "$side" "$f" "$a"
    [ ! -e "$pair/runs/$w.$side.void" ] || printf '%-22s %s %d repeated: %s\n' "void runs" "$side" "$(wc -l < "$pair/runs/$w.$side.void")" "$(sort -u "$pair/runs/$w.$side.void" | tr '\n' ';')"
  done
  if awk 'NR == FNR {b = $1 / ($2 ? $2 : 1); next} {exit !($1 / ($2 ? $2 : 1) > b)}' "$pair/runs/$w.base.failed.txt" "$pair/runs/$w.change.failed.txt"; then
    echo "failed                 the change fails a larger share of epochs: regressed"
    status=1
  fi
  if grep -q ' regressed$' <<< "$verdicts"; then
    status=1
  fi
done
exit $status
