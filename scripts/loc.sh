#!/bin/sh
# loc.sh — non-test Go lines per internal/* and cmd/* package (one line
# each, nested packages counted on their own) plus a total: the figure
# simplicity PRs report as "non-test lines removed". Run it at two
# commits and diff the output.
set -eu
cd "$(dirname "$0")/.."

total=0
for dir in $(find internal cmd -type d | sort); do
  n=0
  for f in "$dir"/*.go; do
    case "$f" in
      *_test.go) continue ;;
    esac
    [ -e "$f" ] || continue
    n=$((n + $(wc -l < "$f")))
  done
  [ "$n" -gt 0 ] || continue
  printf '%-28s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-28s %6d\n' total "$total"
