#!/usr/bin/env bash
# Diffs the output of the example programs and CLIs against the golden
# files beside this script. Every program here is a deterministic
# simulation at a fixed seed, so any difference is a behaviour change.
#
#   bash testdata/surfaces/check.sh           # diff -u, exit 1 on any difference
#   bash testdata/surfaces/check.sh -update   # rewrite the golden files
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
dir=$root/testdata/surfaces
update=0
[ "${1:-}" = "-update" ] && update=1

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
cd "$root"
for p in examples/quickstart examples/mapreduce examples/hybrid examples/kmeans examples/mdanalysis \
         cmd/saga-hadoop cmd/radical-pilot; do
  go build -o "$bin/$(basename "$p")" "./$p"
done

fail=0
# check NAME: compares $bin/NAME.out with $dir/NAME.golden (or rewrites it).
check() {
  if [ "$update" = 1 ]; then
    cp "$bin/$1.out" "$dir/$1.golden"
  elif ! diff -u "$dir/$1.golden" "$bin/$1.out"; then
    echo "surface $1 differs from $dir/$1.golden" >&2
    fail=1
  fi
}

for ex in quickstart mapreduce hybrid kmeans mdanalysis; do
  "$bin/$ex" > "$bin/example-$ex.out"
  check "example-$ex"
done
for fw in yarn spark; do
  "$bin/saga-hadoop" -framework "$fw" > "$bin/saga-hadoop-$fw.out"
  check "saga-hadoop-$fw"
done
"$bin/radical-pilot" > "$bin/radical-pilot.out"
check radical-pilot
# -v interleaves recorder events (JSON lines) with the backend debug
# log on stderr; only the JSON lines are pinned.
"$bin/radical-pilot" -v 2>&1 >/dev/null | grep '^{' > "$bin/radical-pilot-v-events.out"
check radical-pilot-v-events

exit "$fail"
