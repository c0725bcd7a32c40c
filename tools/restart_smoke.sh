#!/usr/bin/env bash
# Kill-and-restart smoke test for durable v3 snapshots, over the wire.
#
# Drives a live serve-net process through churn (INSERT/REMOVE) and two
# REINDEX generation swaps, snapshots mid-churn, kills the server hard
# (SIGKILL — a crash, not a shutdown), restarts it from the snapshot file
# ALONE (no --db), and asserts the restarted process is indistinguishable:
#
#   - STATS dimension_generation and epoch match the pre-kill values
#     (a v2-era restart would report 0 for both),
#   - QUERY answers — MODE=full and MODE=approx NPROBE=all — are
#     byte-identical to the pre-kill responses,
#   - REINDEX still works, fed by the snapshot's own store section,
#   - the restart log carries no degraded-format WARN (the cold start in
#     step 1, from the committed v1 fixture in tests/data, does WARN — the
#     loud/quiet pair is asserted both ways),
#   - an offline `gdim_tool update` of the snapshot keeps its dimension
#     generation, moves its epoch strictly forward, and keeps the graph
#     store, as seen by a server restarted from the updated file: REINDEX
#     still works there, with no --db.
#
# Usage: tools/restart_smoke.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR=${1:-build}
TOOL="$BUILD_DIR/gdim_tool"
[ -x "$TOOL" ] || { echo "restart_smoke: $TOOL not found" >&2; exit 1; }
FIXTURES="$(dirname "$0")/../tests/data"

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for p in ${PIDS[@]+"${PIDS[@]}"}; do kill "$p" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

# Starts serve-net with the given extra flags and waits for the listen
# line. Sets SERVER_PID / SERVER_PORT (no subshell — the pid must survive
# for the later SIGKILL). Usage: start_server <logfile> <flags...>
start_server() {
  local log=$1
  shift
  "$TOOL" serve-net --host=127.0.0.1 --port=0 "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  PIDS+=("$SERVER_PID")
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$log" && break
    sleep 0.1
  done
  grep -q 'listening on' "$log" || {
    echo "restart_smoke: server failed to start" >&2
    cat "$log" >&2
    exit 1
  }
  SERVER_PORT=$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$log" | head -1)
}

# One protocol client for both phases. `pre` churns, reindexes twice,
# snapshots, and records STATS + probe answers; `post` replays the probes
# against the restarted server and diffs everything.
CLIENT='
import socket, sys

def graphs(path):
    out, cur = [], []
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("t #") and cur:
            out.append(";".join(cur))
            cur = []
        cur.append(line)
    if cur:
        out.append(";".join(cur))
    return out

mode, port, qpath, state = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
sock = socket.create_connection(("127.0.0.1", port), timeout=60)
f = sock.makefile("rw", newline="\n")

def req(line):
    f.write(line + "\n")
    f.flush()
    resp = f.readline().strip()
    if not resp.startswith("OK"):
        sys.exit(f"restart_smoke: {line.split()[0]} failed: {resp!r}")
    return resp

def stats():
    return dict(tok.split("=", 1) for tok in req("STATS").split()[1:] if "=" in tok)

qs = graphs(qpath)
probes = []
for g in qs[:3]:
    probes.append(f"QUERY 5 MODE=full {g}")
    probes.append(f"QUERY 5 MODE=approx NPROBE=all {g}")

if mode == "pre":
    snap = sys.argv[5]
    # Churn + swap, twice: the snapshot must carry history no cold build
    # has (two generations selected over two different live sets).
    for g in qs:
        req("INSERT " + g)
    for rid in (1, 4, 9):
        req(f"REMOVE {rid}")
    r = req("REINDEX")
    assert "generation=1" in r, r
    for rid in (12, 15):
        req(f"REMOVE {rid}")
    for g in qs[:2]:
        req("INSERT " + g)
    r = req("REINDEX")
    assert "generation=2" in r, r
    # Mid-churn snapshot: an uncompacted tombstone and a fresh delta row.
    req("REMOVE 20")
    req("INSERT " + qs[0])
    req(f"SNAPSHOT {snap}")
    # Ground truth sampled after the snapshot with no further mutations:
    # the file and these answers describe the same state.
    kv = stats()
    assert kv["dimension_generation"] == "2", kv
    with open(state, "w") as out:
        out.write(kv["dimension_generation"] + "\n" + kv["epoch"] + "\n")
        for q in probes:
            out.write(req(q) + "\n")
elif mode == "updated":
    # The snapshot after an offline update: same generation, later epoch.
    want = open(state).read().splitlines()
    kv = stats()
    assert kv["dimension_generation"] == want[0], (
        f"generation lost across update: {kv['"'"'dimension_generation'"'"']} != {want[0]}")
    assert int(kv["epoch"]) > int(want[1]), (
        f"epoch did not advance across update: {kv['"'"'epoch'"'"']} <= {want[1]}")
    # update carried the store section through: no --db on this server.
    r = req("REINDEX")
    assert "generation=3" in r, r
else:
    want = open(state).read().splitlines()
    kv = stats()
    assert kv["dimension_generation"] == want[0], (
        f"generation lost across restart: {kv['"'"'dimension_generation'"'"']} != {want[0]}")
    assert kv["epoch"] == want[1], (
        f"epoch lost across restart: {kv['"'"'epoch'"'"']} != {want[1]}")
    for q, exp in zip(probes, want[2:]):
        got = req(q)
        assert got == exp, f"answer drifted across restart:\n  pre:  {exp}\n  post: {got}"
    # The snapshot store section feeds further refreshes — no --db anywhere.
    r = req("REINDEX")
    assert "generation=3" in r, r
req("QUIT")
print(f"restart_smoke: {mode} phase OK")
'

echo "restart_smoke: generating queries"
# The same generator call that produced the fixture's corpus; only the
# held-out queries are used.
"$TOOL" generate --kind=chem --n=60 --queries=6 \
  --out="$TMP/db.gdb" --queries-out="$TMP/q.gdb"

echo "restart_smoke: starting server 1 (legacy v1 index + --db)"
start_server "$TMP/serve1.log" --index="$FIXTURES/legacy_v1.idx" \
  --shards=3 --cache-mb=16 --db="$FIXTURES/legacy_v1.gdb" \
  --reindex-minsup=0.15 --reindex-maxedges=4
KILL_PID=$SERVER_PID
# A meta-less index plus reindex-capable flags is the degraded shape: the
# server must say so out loud. Every file written today carries META, so
# only a legacy file can take this path.
grep -q 'WARN: .*no generation/epoch metadata' "$TMP/serve1.log"

python3 -c "$CLIENT" pre "$SERVER_PORT" "$TMP/q.gdb" "$TMP/pre.txt" \
  "$TMP/snap.idx2"
[ -s "$TMP/snap.idx2" ]

echo "restart_smoke: killing server 1 (SIGKILL)"
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true

echo "restart_smoke: restarting from the snapshot alone (no --db)"
start_server "$TMP/serve2.log" --index="$TMP/snap.idx2" \
  --shards=3 --cache-mb=16
# The v3 restart restores everything; any WARN here is a regression.
if grep -q 'WARN' "$TMP/serve2.log"; then
  echo "restart_smoke: unexpected WARN on v3 restart" >&2
  cat "$TMP/serve2.log" >&2
  exit 1
fi

python3 -c "$CLIENT" post "$SERVER_PORT" "$TMP/q.gdb" "$TMP/pre.txt"
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "restart_smoke: offline update of the snapshot, then a restart from it"
# Id 0 was never removed above, so it is live in the snapshot.
"$TOOL" update --index="$TMP/snap.idx2" --remove=0 --out="$TMP/updated.idx3"
start_server "$TMP/serve3.log" --index="$TMP/updated.idx3" \
  --shards=3 --cache-mb=16
python3 -c "$CLIENT" updated "$SERVER_PORT" "$TMP/q.gdb" "$TMP/pre.txt"

echo "restart_smoke: OK"
