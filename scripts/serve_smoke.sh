#!/bin/sh
# Server smoke test: cold-start jeddd on the tiny workload, save a
# snapshot, query it with jeddq over the socket, shut it down, then
# warm-start from the snapshot and check the answers agree.  Exercises
# the full analyze/serve/query/persist loop without the test harness.
# Then `jedd-analyze --serve` must give the cold answers too, and jeddd
# out of descriptors (ulimit -n 64, 100 clients queued) must idle
# rather than spin, and serve the queue once clients leave; with 1,100
# clients it must refuse those past FD_SETSIZE and keep answering.
set -eu

SOCK="$(mktemp -u /tmp/jeddd-smoke-XXXXXX.sock)"
SNAP="$(mktemp /tmp/jeddd-smoke-XXXXXX.snap)"
trap 'kill $JEDDD_PID 2>/dev/null || true; rm -f "$SOCK" "$SNAP"' EXIT

JEDDD="dune exec bin/jeddd_main.exe --"
JEDDQ="dune exec bin/jeddq_main.exe --"
ANALYZE="dune exec bin/analyze_main.exe --"

dune build bin/jeddd_main.exe bin/jeddq_main.exe bin/analyze_main.exe

wait_for_socket() {
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && return 0
        sleep 0.1
    done
    echo "serve_smoke: server did not come up" >&2
    exit 1
}

# same WHAT EXPECTED ACTUAL
same() {
    [ "$2" = "$3" ] || {
        echo "serve_smoke: $1 mismatch: cold=$2 got=$3" >&2
        exit 1
    }
}

echo "== cold start =="
$JEDDD -s "$SOCK" -b tiny --save "$SNAP" &
JEDDD_PID=$!
wait_for_socket

$JEDDQ -s "$SOCK" ping
$JEDDQ -s "$SOCK" version
COLD_COUNT=$($JEDDQ -s "$SOCK" count pt)
COLD_PT=$($JEDDQ -s "$SOCK" pointsto 0)
$JEDDQ -s "$SOCK" stats >/dev/null
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

echo "== warm start from snapshot =="
[ -s "$SNAP" ] || { echo "serve_smoke: snapshot missing" >&2; exit 1; }
$JEDDD -s "$SOCK" --snapshot "$SNAP" &
JEDDD_PID=$!
wait_for_socket

same "warm count" "$COLD_COUNT" "$($JEDDQ -s "$SOCK" count pt)"
same "warm pointsto" "$COLD_PT" "$($JEDDQ -s "$SOCK" pointsto 0)"
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

echo "== jedd-analyze --serve =="
$ANALYZE -b tiny --serve "$SOCK" >/dev/null &
JEDDD_PID=$!
wait_for_socket

same "analyze count" "$COLD_COUNT" "$($JEDDQ -s "$SOCK" count pt)"
same "analyze pointsto" "$COLD_PT" "$($JEDDQ -s "$SOCK" pointsto 0)"
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

echo "== out of descriptors (ulimit -n 64) =="
(ulimit -n 64 && exec _build/default/bin/jeddd_main.exe -s "$SOCK" -b tiny) \
    >/dev/null &
JEDDD_PID=$!
wait_for_socket
python3 - "$JEDDD_PID" "$SOCK" <<'PY'
import os, socket, sys, time
pid, path = int(sys.argv[1]), sys.argv[2]
clients = []
for _ in range(100):  # more than jeddd has descriptors for
    c = socket.socket(socket.AF_UNIX)
    c.settimeout(10)
    c.connect(path)
    clients.append(c)
def cpu_s():
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
time.sleep(0.5)
c0, t0 = cpu_s(), time.monotonic()
time.sleep(3)
share = (cpu_s() - c0) / (time.monotonic() - t0)
print(f"jeddd CPU with clients queued: {share:.1%} of wall time")
if share >= 0.10:
    sys.exit("serve_smoke: jeddd spins while out of descriptors")
for c in clients[:-1]:
    c.close()
last = clients[-1]  # queued behind the limit until the others left
last.sendall(b'{"verb":"ping"}\n')
if b'"ok":true' not in last.makefile("rb").readline():
    sys.exit("serve_smoke: queued client was not served")
last.close()
PY
$JEDDQ -s "$SOCK" shutdown
wait $JEDDD_PID

echo "== past FD_SETSIZE (1,100 clients) =="
if (ulimit -n 4096) 2>/dev/null; then
    (ulimit -n 4096 && exec _build/default/bin/jeddd_main.exe -s "$SOCK" -b tiny) \
        >/dev/null &
    JEDDD_PID=$!
    wait_for_socket
    (ulimit -n 4096 && exec python3 - "$SOCK") <<'PY'
import socket, struct, sys
path = sys.argv[1]
ten_s = struct.pack("ll", 10, 0)  # blocking calls give up after 10 s
clients = []
for _ in range(1100):  # jeddd's ends of the last ones are past 1024
    c = socket.socket(socket.AF_UNIX)
    c.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, ten_s)
    c.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, ten_s)
    c.connect(path)  # blocking: waits while jeddd's backlog is full
    clients.append(c)
if b'"ok":false' not in clients[-1].makefile("rb").readline():
    sys.exit("serve_smoke: a client past FD_SETSIZE was not refused")
clients[0].sendall(b'{"verb":"ping"}\n')
if b'"ok":true' not in clients[0].makefile("rb").readline():
    sys.exit("serve_smoke: jeddd stopped answering past FD_SETSIZE")
for c in clients:
    c.close()
PY
    $JEDDQ -s "$SOCK" ping
    $JEDDQ -s "$SOCK" shutdown
    wait $JEDDD_PID
else
    echo "skipped: the descriptor limit cannot be raised to 4096"
fi

echo "serve_smoke: OK ($COLD_COUNT)"
