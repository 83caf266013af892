#!/usr/bin/env bash
# bench-pair.sh — the paired-run protocol behind every performance claim
# in CHANGES.md, scripted: measure a base commit and the working tree with
# the repository benchmark, alternating which side runs first, and judge
# every workload × end-to-end metric against BENCHMARK.json's bounds.
#
#   scripts/bench-pair.sh <base-ref> [--pairs N] [--seed "S..."] [workload...]
#   scripts/bench-pair.sh <base-ref> [--pairs N] --owner '<regexp>'
#
# The base is extracted (git archive) into .bench_build/pair/base and its
# benchmark/ directory replaced by the working tree's, so both sides run
# the identical harness; each run is `bash <tree>/benchmark/run.sh` with
# BENCHMARK.json's run length, exactly as the driver runs it. Neither
# BENCHMARK.json nor benchmark/ is edited. --seed takes a list ("1 7"):
# the pairs are run once per seed and judged per seed, so a seed not used
# in development is the same invocation. Per seed × workload × metric it
# prints both sides' q1/median/q3, the pairs the change won and tied, and
# one of
#
#   improved    the change won ≥ 9/10 of at least ten pairs (ties count for
#               neither; a count that repeats exactly on both sides needs
#               three, not ten) and the medians differ by more than the
#               parent's own interquartile range
#   regressed   the mirror image, by more than the metric's bound as well
#   unresolved  the parent's interquartile range is wider than the bound,
#               or the median is worse by more than the bound without the
#               pairs agreeing: more pairs are needed before saying anything
#   within      no worse than the bound, and resolved
#
# and exits non-zero only on `regressed` (or a larger share of failed
# epochs). A run the harness declares void is repeated, and counted per
# side. Every run's result line is kept under .bench_build/pair/runs/seed<S>/.
#
# Beside the metrics it prints, per run and per side, the share of the run's
# CPU time the hypervisor gave to another guest (steal: /proc/stat's cpu
# line, 8th value, before and after, over the sum of the first eight), and
# how many runs lost more than 10 %: a side whose slow runs are its stolen
# runs was slowed by the box, not by its code. A void run's line carries its
# own. --owner prints the same per round.
#
# --owner runs the layer benchmarks instead (bench_test.go, the `go test
# -bench` functions matching the regexp): the root test binary of each side
# is built once — both from the working tree's bench_test.go, copied over
# the base's the way benchmark/ is, because two different files lay
# identical functions out at different addresses, which alone moves a
# flate-heavy loop by several per cent; a base that does not compile with
# it keeps its own file, and stderr says so — and each of N rounds runs
# both, alternating which goes first, with -test.benchmem -test.cpu 2
# -test.count 1. Per benchmark it prints both sides' min / median / max of
# ns/op, B/op and allocs/op and the rounds each side won on ns/op; a
# benchmark one side does not have reads n/a there. It reports, it does
# not judge: there is no bound for a layer.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
[ $# -ge 1 ] || { sed -n '2,9p' "$0" >&2; exit 2; }
base_ref="$1"; shift
pairs=10 seeds=1 owner="" workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seeds="$2"; shift 2 ;;
    --owner) owner="$2"; shift 2 ;;
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

# ticks prints "steal total" of the guest's cpu line so far, in clock ticks
# over all cores ("0 0" where there is no /proc/stat); steal_since <steal>
# <total> the per cent of the ticks since then that were stolen; steal_line
# <side> <prefix> one side's runs (<prefix>.<i>.steal, in run order) and how
# many of them lost over 10 %.
ticks() { awk '$1 == "cpu" { for (f = 2; f <= 9; f++) t += $f; print $9 + 0, t + 0; exit }' /proc/stat 2> /dev/null || echo 0 0; }
steal_since() {
  local s1 t1
  read -r s1 t1 < <(ticks)
  awk -v s="$((s1 - $1))" -v t="$((t1 - $2))" 'BEGIN { printf "%.1f\n", (t > 0) ? 100 * s / t : 0 }'
}
steal_line() {
  local i
  for ((i = 0; i < pairs; i++)); do cat "$2.$i.steal"; done | awk -v side="$1" '{ runs = runs " " $1; if ($1 > 10) over++ }
    END { printf "%-22s %s%s   %d of %d runs above 10 %%\n", "steal %", side, runs, over, NR }'
}

pair="$root/.bench_build/pair"
rm -rf "$pair/base" "$pair/runs"
mkdir -p "$pair/base" "$pair/runs"
git archive "$base_ref" | tar -x -C "$pair/base"
rm -rf "$pair/base/benchmark"
cp -r benchmark "$pair/base/benchmark"

if [ -n "$owner" ]; then
  echo "base $(git rev-parse --short "$base_ref") in $pair/base, change = working tree; owner benchmarks /$owner/, $pairs rounds, -cpu 2"
  # Both binaries link the working tree's bench_test.go, as both trees run the
  # working tree's benchmark/: the base keeps its own only when it does not
  # compile against the newer file.
  cp "$pair/base/bench_test.go" "$pair/base.bench_test.go"
  cp bench_test.go "$pair/base/bench_test.go"
  if ! (cd "$pair/base" && go test -c -o "$pair/base.test" . 2> "$pair/runs/base.build.txt"); then
    echo "bench-pair: the base does not compile with the working tree's bench_test.go ($(head -n 2 "$pair/runs/base.build.txt" | tail -n 1)); it keeps its own, so the two binaries link different benchmark code" >&2
    cp "$pair/base.bench_test.go" "$pair/base/bench_test.go"
    (cd "$pair/base" && go test -c -o "$pair/base.test" .)
  fi
  go test -c -o "$pair/change.test" .
  # owner_run <side> <tree> <i>: one round of one side, from its package directory.
  owner_run() {
    local s0 t0
    read -r s0 t0 < <(ticks)
    (cd "$2" && "$pair/$1.test" -test.run '^$' -test.bench "$owner" -test.benchmem -test.cpu 2 -test.count 1 -test.timeout 60m) \
      > "$pair/runs/owner.$1.$3.txt" || { echo "bench-pair: $1 owner round $3 failed:" >&2; tail -n 20 "$pair/runs/owner.$1.$3.txt" >&2; exit 1; }
    steal_since "$s0" "$t0" > "$pair/runs/owner.$1.$3.steal"
  }
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      owner_run base "$pair/base" "$i"; owner_run change "$root" "$i"
    else
      owner_run change "$root" "$i"; owner_run base "$pair/base" "$i"
    fi
  done
  # Result lines read "BenchmarkName-2  N  <v> ns/op [<v> MB/s] <v> B/op <v> allocs/op":
  # take each value by the unit that follows it.
  for side in base change; do
    for ((i = 0; i < pairs; i++)); do
      awk -v side="$side" -v round="$i" '/^Benchmark/ { name = $1; sub(/-[0-9]+$/, "", name)
        for (f = 3; f < NF; f++) if ($(f + 1) == "ns/op" || $(f + 1) == "B/op" || $(f + 1) == "allocs/op") print name, side, round, $(f + 1), $f }' \
        "$pair/runs/owner.$side.$i.txt"
    done
  done | awk -v rounds="$pairs" '
    function stats(key,   n, i, j, t, v) { n = cnt[key]; if (!n) return "n/a"
      for (i = 1; i <= n; i++) v[i] = val[key, i]
      for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
      med[key] = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
      return num(v[1]) " / " num(med[key]) " / " num(v[n]) }
    function num(x) { return (x >= 1000) ? sprintf("%.0f", x) : sprintf("%.4g", x) }
    { if (!($1 in seen)) { seen[$1] = 1; order[++names] = $1 }
      key = $1 SUBSEP $2 SUBSEP $4; val[key, ++cnt[key]] = $5 + 0; if ($4 == "ns/op") ns[$1, $2, $3] = $5 + 0 }
    END { for (k = 1; k <= names; k++) { name = order[k]; cw = bw = both = 0
        for (r = 0; r < rounds; r++) if (((name, "base", r) in ns) && ((name, "change", r) in ns)) { both++
          if (ns[name, "change", r] < ns[name, "base", r]) cw++; else if (ns[name, "change", r] > ns[name, "base", r]) bw++ }
        printf "\n%s   rounds won on ns/op: change %d, base %d of %d\n", name, cw, bw, both
        split("ns/op B/op allocs/op", units, " ")
        for (u = 1; u <= 3; u++) { b = stats(name SUBSEP "base" SUBSEP units[u]); c = stats(name SUBSEP "change" SUBSEP units[u])
          delta = (b != "n/a" && c != "n/a" && med[name, "base", units[u]] > 0) ? sprintf("%+.2f%%", 100 * (med[name, "change", units[u]] - med[name, "base", units[u]]) / med[name, "base", units[u]]) : ""
          printf "  %-10s base %-36s change %-36s %s\n", units[u], b, c, delta } }
      if (!names) print "\nno benchmark on either side matches the regexp" }'
  echo
  for side in base change; do
    steal_line "$side" "$pair/runs/owner.$side"
  done
  exit 0
fi

echo "base $(git rev-parse --short "$base_ref") in $pair/base, change = working tree; $pairs pairs per seed, seeds $seeds, ${seconds}s runs"

# run <side> <tree> <workload> <i>: one benchmark run at $seed, result line
# kept under $runs. A void run (the harness refuses to report: unsustainable
# open loop, lost connection, wrong output) is counted against its side and
# repeated.
run() {
  local out="$runs/$3.$1.$4.json" try s0 t0
  for try in 1 2 3; do
    read -r s0 t0 < <(ticks)
    if bash "$2/benchmark/run.sh" --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 2> "$runs/stderr" | tail -n 1 > "$out"; then
      steal_since "$s0" "$t0" > "$runs/$3.$1.$4.steal"
      return
    fi
    echo "$(tail -n 1 "$runs/stderr") [steal $(steal_since "$s0" "$t0") %]" >> "$runs/$3.$1.void"
  done
  echo "bench-pair: $1 run $4 of $3 (seed $seed) was void three times: $(tail -n 1 "$runs/stderr")" >&2
  exit 1
}

status=0
for seed in $seeds; do
  runs="$pair/runs/seed$seed"
  mkdir -p "$runs"
  for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
      if ((i % 2 == 0)); then
        run base "$pair/base" "$w" "$i"; run change "$root" "$w" "$i"
      else
        run change "$root" "$w" "$i"; run base "$pair/base" "$w" "$i"
      fi
    done
    echo
    echo "== $w (seed $seed)"
    verdicts="$(while read -r name better bound; do
      for side in base change; do
        for ((i = 0; i < pairs; i++)); do
          sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p" "$runs/$w.$side.$i.json"
        done > "$runs/$w.$side.$name.txt"
      done
      paste "$runs/$w.base.$name.txt" "$runs/$w.change.$name.txt" |
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
            # ten pairs, unless the metric is a count that repeats (to 1e-6) on both
            # sides over at least three: one or two pairs have no spread to show
            enough = n >= 10 || (n >= 3 && iqr <= 1e-6 * bm && cq3 - cq1 <= 1e-6 * cm)
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
      cat "$runs/$w.$side".[0-9]*.json | awk '
        { if (match($0, /"attempted":[0-9]+/)) a += substr($0, RSTART + 12, RLENGTH - 12)
          if (match($0, /"failed":[0-9]+/)) f += substr($0, RSTART + 9, RLENGTH - 9) }
        END { print f + 0, a + 0 }' > "$runs/$w.$side.failed.txt"
      read -r f a < "$runs/$w.$side.failed.txt"
      printf '%-22s %s %d of %d epochs\n' failed "$side" "$f" "$a"
      [ ! -e "$runs/$w.$side.void" ] || printf '%-22s %s %d repeated: %s\n' "void runs" "$side" "$(wc -l < "$runs/$w.$side.void")" "$(sort -u "$runs/$w.$side.void" | tr '\n' ';')"
      steal_line "$side" "$runs/$w.$side"
    done
    if awk 'NR == FNR {b = $1 / ($2 ? $2 : 1); next} {exit !($1 / ($2 ? $2 : 1) > b)}' "$runs/$w.base.failed.txt" "$runs/$w.change.failed.txt"; then
      echo "failed                 the change fails a larger share of epochs: regressed"
      status=1
    fi
    if grep -q ' regressed$' <<< "$verdicts"; then
      status=1
    fi
  done
done
exit $status
