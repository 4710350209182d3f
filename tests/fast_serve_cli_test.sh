#!/usr/bin/env bash
# End-to-end checks of the fast_serve CLI, registered with ctest by
# CMakeLists.txt (fast_serve_cli.<case>). Usage:
#
#   tests/fast_serve_cli_test.sh CASE BIN_DIR
#
# where BIN_DIR holds fast_serve, fast_match and fast_datagen. Cases:
#   once_counts_match   --once counts equal fast_match's for q0..q2
#   replay_one_tenant   a swapping replay on one tenant exits 0
#   replay_two_tenants  the same replay over two tenants exits 0
#   bad_typed_flag      --duration abc exits 2 naming the flag, before
#                       any graph is built
#   device_with_delta   --device --delta 0.3 exits 2 naming --delta, before
#                       any graph is built
#   once_update_tracks_delta
#                       --once --update: counts after cutting a hub's edges
#                       equal fast_match's on the cut graph, and counts
#                       after restoring them equal the original ones
#   replay_update_cycling
#                       a replay whose writer cycles the same two --update
#                       deltas exits 0 having published swaps
set -u

case_name=$1
bin=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Writes, for the graph file $1 (lines "t V E", "v id label", "e u v
# [label]"), the delta files $work/cut.txt (remove every edge of its
# highest-degree vertex) and $work/restore.txt (add them back), plus
# $work/g_cut.txt, the graph file with those edges already removed.
write_hub_deltas() {
  local hub
  hub=$(awk '$1 == "e" { d[$2]++; d[$3]++ }
             END { best = -1
                   for (v in d) if (d[v] > best || (d[v] == best && v + 0 < hub + 0)) {
                     best = d[v]; hub = v }
                   print hub }' "$1")
  [ -n "$hub" ] || fail "no edges in $1"
  awk -v h="$hub" '$1 == "e" && ($2 == h || $3 == h) { print "re", $2, $3 }' \
    "$1" > "$work/cut.txt"
  awk -v h="$hub" '$1 == "e" && ($2 == h || $3 == h) { print "ae", $2, $3, $4 }' \
    "$1" > "$work/restore.txt"
  local cut
  cut=$(wc -l < "$work/cut.txt")
  awk -v h="$hub" -v cut="$cut" '
    $1 == "t" { print "t", $2, $3 - cut; next }
    !($1 == "e" && ($2 == h || $3 == h))' "$1" > "$work/g_cut.txt"
}

# Prints the embeddings= count of query $2 at epoch $3 from fast_serve
# --once output $1.
once_count() {
  awk -v name="$2" -v epoch="epoch=$3" '$1 == name && $3 == epoch {
    sub("embeddings=", "", $2); print $2 }' "$1"
}

case "$case_name" in
  once_counts_match)
    # fast_datagen and fast_serve generate the same graph for the same
    # --sf and (default) --seed; its q0..q2 files are LDBC queries 0..2.
    "$bin/fast_datagen" --sf 0.05 --out "$work/g.txt" --queries-dir "$work" \
      > /dev/null || fail "fast_datagen"
    "$bin/fast_serve" --sf 0.05 --once --queries 0,1,2 --workers 2 \
      > "$work/serve.txt" || fail "fast_serve --once exited $?"
    for q in 0 1 2; do
      got=$(awk -v name="q$q" '$1 == name { sub("embeddings=", "", $2); print $2 }' \
        "$work/serve.txt")
      want=$("$bin/fast_match" --data "$work/g.txt" --query "$work/q$q.txt" |
        awk '$1 == "embeddings:" { print $2 }')
      [ -n "$got" ] || fail "q$q: no embeddings= line in fast_serve output"
      [ -n "$want" ] || fail "q$q: no embeddings: line in fast_match output"
      [ "$got" = "$want" ] || fail "q$q: fast_serve $got != fast_match $want"
      echo "q$q: $got embeddings (fast_match agrees)"
    done
    ;;
  replay_one_tenant | replay_two_tenants)
    tenants=1
    [ "$case_name" = replay_two_tenants ] && tenants=2
    "$bin/fast_serve" --sf 0.05 --tenants "$tenants" --duration 0.5 \
      --swap-every-ms 50 --workers 2 --clients 2 > "$work/serve.txt" ||
      fail "fast_serve --tenants $tenants replay exited $?"
    grep -q "^throughput:" "$work/serve.txt" || fail "no replay summary"
    ;;
  bad_typed_flag)
    "$bin/fast_serve" --sf 0.05 --duration abc > "$work/out.txt" 2> "$work/err.txt"
    rc=$?
    [ "$rc" -eq 2 ] || fail "--duration abc exited $rc, want 2"
    grep -q "duration" "$work/err.txt" || fail "error does not name --duration"
    # Rejected before any graph is built.
    ! grep -q "^data:" "$work/out.txt" || fail "a graph was built before the check"
    ;;
  device_with_delta)
    "$bin/fast_serve" --sf 0.05 --device --delta 0.3 > "$work/out.txt" \
      2> "$work/err.txt"
    rc=$?
    [ "$rc" -eq 2 ] || fail "--device --delta 0.3 exited $rc, want 2"
    grep -q -- "--delta" "$work/err.txt" || fail "error does not name --delta"
    ! grep -q "^data:" "$work/out.txt" || fail "a graph was built before the check"
    ;;
  once_update_tracks_delta)
    "$bin/fast_datagen" --sf 0.05 --out "$work/g.txt" --queries-dir "$work" \
      > /dev/null || fail "fast_datagen"
    write_hub_deltas "$work/g.txt"
    "$bin/fast_serve" --data "$work/g.txt" "$work/q0.txt" "$work/q1.txt" \
      "$work/q2.txt" --queries "" --once --workers 2 \
      --update "$work/cut.txt,$work/restore.txt" > "$work/serve.txt" ||
      fail "fast_serve --once --update exited $?"
    changed=0
    for q in 0 1 2; do
      before=$(once_count "$work/serve.txt" "$work/q$q.txt" 1)
      cut=$(once_count "$work/serve.txt" "$work/q$q.txt" 2)
      after=$(once_count "$work/serve.txt" "$work/q$q.txt" 3)
      want_before=$("$bin/fast_match" --data "$work/g.txt" --query "$work/q$q.txt" |
        awk '$1 == "embeddings:" { print $2 }')
      want_cut=$("$bin/fast_match" --data "$work/g_cut.txt" --query "$work/q$q.txt" |
        awk '$1 == "embeddings:" { print $2 }')
      [ -n "$before" ] && [ -n "$cut" ] && [ -n "$after" ] ||
        fail "q$q: missing a result line at epoch 1, 2 or 3"
      [ -n "$want_before" ] && [ -n "$want_cut" ] ||
        fail "q$q: no embeddings: line in fast_match output"
      [ "$before" = "$want_before" ] ||
        fail "q$q epoch 1: fast_serve $before != fast_match $want_before"
      [ "$cut" = "$want_cut" ] ||
        fail "q$q epoch 2: fast_serve $cut != fast_match on the cut graph $want_cut"
      [ "$after" = "$before" ] ||
        fail "q$q epoch 3: $after after restoring the edges, want $before"
      [ "$cut" != "$before" ] && changed=1
      echo "q$q: $before -> $cut -> $after embeddings"
    done
    [ "$changed" = 1 ] || fail "cutting the hub's edges changed no count"
    ;;
  replay_update_cycling)
    # Same graph as fast_serve --sf 0.05 generates (default --seed).
    "$bin/fast_datagen" --sf 0.05 --out "$work/g.txt" --queries-dir "$work" \
      > /dev/null || fail "fast_datagen"
    write_hub_deltas "$work/g.txt"
    "$bin/fast_serve" --sf 0.05 --duration 0.5 --swap-every-ms 50 \
      --update "$work/cut.txt,$work/restore.txt" --workers 2 --clients 2 \
      > "$work/serve.txt" || fail "fast_serve replay with --update exited $?"
    swaps=$(awk '$1 == "__default" { print $8 }' "$work/serve.txt")
    [ -n "$swaps" ] || fail "no __default row in the tenant table"
    [ "$swaps" -gt 0 ] || fail "the writer published no swaps"
    echo "swaps: $swaps"
    ;;
  *)
    fail "unknown case $case_name"
    ;;
esac
echo "PASS: $case_name"
