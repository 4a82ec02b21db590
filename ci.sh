#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings: no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo build (telemetry compiled out) =="
cargo build -q -p thermorl-bench --no-default-features
cargo build -q -p thermorl-dispatch --no-default-features
cargo build -q -p thermorl-serve --no-default-features

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== telemetry smoke test =="
cargo test -q -p thermorl-bench --test telemetry_smoke

echo "== cargo bench --no-run (benches must compile) =="
cargo bench --workspace --no-run

echo "== bench_thermal --quick --gate (regenerate perf snapshot, 3x regression gates) =="
# --gate bounds both die_advance_1s_ns and the large-floorplan
# 16x16 adaptive_advance_1s_ns at 3x their committed numbers.
cargo run --release -q -p thermorl-bench --bin bench_thermal -- --quick --gate
grep -q '"batch"' BENCH_thermal.json \
    || { echo "BENCH_thermal.json missing the batch section"; exit 1; }
grep -q '"large"' BENCH_thermal.json \
    || { echo "BENCH_thermal.json missing the large-floorplan sweep"; exit 1; }
grep -q '"32x32"' BENCH_thermal.json \
    || { echo "BENCH_thermal.json large sweep missing the 32x32 cell"; exit 1; }

echo "== policy tournament --quick (2 policies x 3 scenarios incl. grid_4x4, leaderboard schema gate) =="
rm -f BENCH_tournament.json
timeout 300 cargo run --release -q -p thermorl-bench --bin tournament -- \
    --quick --quiet --checkpoint "$(mktemp -d)/tournament.jsonl"
python3 - BENCH_tournament.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "thermorl-tournament-v1", doc.get("schema")
scenarios = doc["scenarios"]
assert len(scenarios) == 3, f"quick gate expects 3 scenarios, got {len(scenarios)}"
names = [s["name"] for s in scenarios]
assert "grid_4x4" in names, f"quick gate expects the grid_4x4 cell, got {names}"
for s in scenarios:
    assert s["name"], "scenario without a name"
    cells = s["cells"]
    assert len(cells) == 2, f"quick gate expects 2 policies, got {len(cells)}"
    for c in cells:
        for key in ("policy", "mttf_years", "energy_j", "ips",
                    "avg_temp_c", "peak_temp_c", "completed", "reps", "score"):
            assert key in c, f"cell missing {key}: {sorted(c)}"
        assert c["mttf_years"] > 0 and c["energy_j"] > 0 and c["ips"] > 0, c
board = doc["leaderboard"]
assert board, "empty leaderboard"
winner = doc["winner"]
assert winner == board[0]["policy"], f"winner {winner!r} != top row {board[0]}"
print(f"tournament OK: winner={winner}, "
      f"{len(scenarios)} scenarios x {len(board)} policies")
EOF

echo "== dispatch loopback smoke (serve + status + work) =="
# A real coordinator/worker round trip over 127.0.0.1 on an ephemeral
# port, dispatching just the fig1/ slice of the campaign. Every step is
# wall-clock bounded; `wait` propagates serve's exit code (nonzero if
# any dispatched job failed).
SMOKE_DIR=$(mktemp -d)
SERVE_DIR=$(mktemp -d)
# On any exit, failed steps included, stop the servers started in the
# background and remove their directories.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE_DIR" "$SERVE_DIR" "${LIMIT_DIR:-}"' EXIT
timeout 300 cargo run --release -q -p thermorl-bench --bin run_all -- \
    dispatch serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/addr" \
    --store "$SMOKE_DIR/store.jsonl" --filter fig1/ \
    --telemetry "$SMOKE_DIR/telemetry.json" --quiet &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SMOKE_DIR/addr" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/addr" ] || { echo "coordinator never bound"; exit 1; }
timeout 60 cargo run --release -q -p thermorl-bench --bin run_all -- \
    dispatch status --coordinator-file "$SMOKE_DIR/addr"
# A line the coordinator cannot parse gets an `error` reply, then EOF.
timeout 60 python3 - "$(cat "$SMOKE_DIR/addr")" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].strip().rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=30) as s:
    s.sendall(b'{"type":\n')
    f = s.makefile("rb")
    reply = json.loads(f.readline())
    assert reply["type"] == "error", reply
    rest = f.readline()
    assert rest == b"", f"connection left open after {reply}: {rest!r}"
print(f"coordinator malformed line: error reply, then EOF ({reply['message'][:60]})")
EOF
timeout 300 cargo run --release -q -p thermorl-bench --bin run_all -- \
    dispatch work --coordinator-file "$SMOKE_DIR/addr" --quiet
wait "$SERVE_PID"
grep -q '"dispatch.leases_granted"' "$SMOKE_DIR/telemetry.json" \
    || { echo "dispatch telemetry missing lease counters"; exit 1; }

echo "== serve loopback smoke (run + bench + kill -9 + restart + recovery) =="
# A real supervisor on an ephemeral port: drive 8 dies for 500 observes,
# SIGKILL the supervisor (no final snapshot pass), restart it on the same
# store, and assert the second load run resumes all 8 sessions from their
# periodic snapshots instead of starting fresh.
timeout 300 cargo run --release -q -p thermorl-bench --bin serve -- \
    run --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/addr" \
    --store "$SERVE_DIR/snapshots.jsonl" --quiet &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SERVE_DIR/addr" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/addr" ] || { echo "supervisor never bound"; exit 1; }
timeout 120 cargo run --release -q -p thermorl-bench --bin serve -- \
    bench --addr-file "$SERVE_DIR/addr" --dies 8 --requests 500 --rate 4000 \
    --out "$SERVE_DIR/bench_before_kill.json" > /dev/null
# SIGKILL the supervisor *binary*, not the timeout/cargo wrapper —
# killing the wrapper would orphan the server and skip the crash.
pkill -9 -f "serve run --addr 127.0.0.1:0 --addr-file $SERVE_DIR/addr " \
    || kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
timeout 300 cargo run --release -q -p thermorl-bench --bin serve -- \
    run --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/addr2" \
    --store "$SERVE_DIR/snapshots.jsonl" --trace --quiet &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SERVE_DIR/addr2" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/addr2" ] || { echo "restarted supervisor never bound"; exit 1; }
timeout 120 cargo run --release -q -p thermorl-bench --bin serve -- \
    bench --addr-file "$SERVE_DIR/addr2" --dies 8 --requests 500 --rate 4000 \
    --out "$SERVE_DIR/bench_after_restart.json" > /dev/null
grep -q '"resumed_dies":8' "$SERVE_DIR/bench_after_restart.json" \
    || { echo "restarted supervisor did not resume the 8 die sessions"; exit 1; }

echo "== serve bench --quick (regenerate BENCH_serve.json) =="
timeout 120 cargo run --release -q -p thermorl-bench --bin serve -- \
    bench --addr-file "$SERVE_DIR/addr2" --quick --out BENCH_serve.json > /dev/null
grep -q '"slowest_trace":"' BENCH_serve.json \
    || { echo "BENCH_serve.json missing the slowest-request trace id"; exit 1; }

echo "== serve trace verb (live SLO + slowest-trace table) =="
# The restarted supervisor runs with --trace, so its trace report must
# carry a populated SLO summary and per-trace rows for the load above.
timeout 60 cargo run --release -q -p thermorl-bench --bin serve -- \
    trace --addr-file "$SERVE_DIR/addr2" --max 8 > "$SERVE_DIR/trace_report.json"
python3 - "$SERVE_DIR/trace_report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("slo", "slowest", "recent"):
    assert key in doc, f"trace report missing {key}: {sorted(doc)}"
slo = doc["slo"]
for key in ("count", "p50_ns", "p99_ns", "objective_ns", "target",
            "over_objective", "error_rate", "budget_burn"):
    assert key in slo, f"slo summary missing {key}: {sorted(slo)}"
assert slo["count"] > 0, "SLO tracker counted no serve.request latencies"
assert doc["slowest"], "no slowest-trace rows"
for row in doc["slowest"]:
    for key in ("trace_id", "root", "start_us", "dur_us", "spans"):
        assert key in row, f"trace row missing {key}: {sorted(row)}"
    int(row["trace_id"], 16)
print(f"trace report OK: slo.count={slo['count']}, "
      f"{len(doc['slowest'])} slowest rows")
EOF

echo "== serve hostile + pipelined input (error replies, in-order stats) =="
# Against the same live supervisor: a 2 MiB line, a malformed line and a
# line with an unknown field each get an `error` reply (then EOF), three
# `stats` lines written at
# once get three in-order `stats_report` replies, and `serve stats`
# still answers afterwards.
timeout 60 python3 - "$(cat "$SERVE_DIR/addr2")" <<'EOF'
import json, socket, sys
host, port = sys.argv[1].strip().rsplit(":", 1)

def exchange(payload, replies, then_eof):
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(payload)
        f = s.makefile("rb")
        lines = [json.loads(f.readline()) for _ in range(replies)]
        if then_eof:
            rest = f.readline()
            assert rest == b"", f"connection left open after {lines}: {rest!r}"
        return lines

for name, payload in (("2 MiB line", b'{"type":"stats","pad":"' + b"x" * (2 << 20) + b'"}\n'),
                      ("malformed line", b'{"type":\n'),
                      ("unknown field", b'{"type":"stats","bogus":1}\n')):
    (reply,) = exchange(payload, 1, then_eof=True)
    assert reply["type"] == "error", f"{name}: {reply}"
    print(f"{name}: error reply, then EOF ({reply['message'][:60]})")
replies = exchange(b'{"type":"stats"}\n' * 3, 3, then_eof=False)
assert [r["type"] for r in replies] == ["stats_report"] * 3, replies
counts = [r["observes_total"] for r in replies]
assert counts == sorted(counts), f"stats replies out of order: {counts}"
print("pipelined stats OK: 3 in-order stats_report replies")
EOF
timeout 60 cargo run --release -q -p thermorl-bench --bin serve -- \
    stats --addr-file "$SERVE_DIR/addr2" > /dev/null
timeout 60 cargo run --release -q -p thermorl-bench --bin serve -- \
    shutdown --addr-file "$SERVE_DIR/addr2"
wait "$SERVE_PID"

echo "== fd exhaustion (ulimit -n 64: 100 idle connections stop neither server) =="
# Each server runs with at most 64 open fds, so a burst of 100 idle
# connections runs it out of fds. An accept that fails for want of an fd
# is counted and retried, not fatal: once the sockets close, both
# servers answer again.
LIMIT_DIR=$(mktemp -d)
BIN="${CARGO_TARGET_DIR:-target}/release"
# The binaries run directly: the fd limit is the server's, not cargo's.
cargo build --release -q -p thermorl-bench --bin serve --bin run_all
(ulimit -n 64 && exec "$BIN/serve" run --addr 127.0.0.1:0 \
    --addr-file "$LIMIT_DIR/serve.addr" --store "$LIMIT_DIR/serve.jsonl" --fresh --quiet) &
SERVE_PID=$!
(ulimit -n 64 && exec "$BIN/run_all" dispatch serve --addr 127.0.0.1:0 \
    --addr-file "$LIMIT_DIR/dispatch.addr" --store "$LIMIT_DIR/dispatch.jsonl" \
    --filter fig1/ --quiet) &
COORD_PID=$!
for file in serve.addr dispatch.addr; do
    for _ in $(seq 100); do [ -s "$LIMIT_DIR/$file" ] && break; sleep 0.1; done
    [ -s "$LIMIT_DIR/$file" ] || { echo "$file never written"; exit 1; }
done
timeout 60 python3 - "$(cat "$LIMIT_DIR/serve.addr")" "$(cat "$LIMIT_DIR/dispatch.addr")" <<'EOF'
import socket, sys, time
for addr in sys.argv[1:]:
    host, port = addr.strip().rsplit(":", 1)
    idle = [socket.create_connection((host, int(port)), timeout=10) for _ in range(100)]
    time.sleep(0.5)
    for s in idle:
        s.close()
    print(f"{addr.strip()}: 100 idle connections opened, then closed")
EOF
timeout 60 "$BIN/serve" stats --addr-file "$LIMIT_DIR/serve.addr" > /dev/null
timeout 60 "$BIN/run_all" dispatch status --coordinator-file "$LIMIT_DIR/dispatch.addr" > /dev/null
kill -0 "$SERVE_PID" "$COORD_PID" || { echo "a server died of fd exhaustion"; exit 1; }
timeout 60 "$BIN/serve" shutdown --addr-file "$LIMIT_DIR/serve.addr"
wait "$SERVE_PID"
timeout 60 "$BIN/run_all" dispatch drain --coordinator-file "$LIMIT_DIR/dispatch.addr" > /dev/null
# A drained coordinator exits 1: not every job of the campaign completed.
COORD_STATUS=0
wait "$COORD_PID" || COORD_STATUS=$?
[ "$COORD_STATUS" -eq 1 ] || { echo "coordinator exited $COORD_STATUS after drain"; exit 1; }

echo "== trace selftest (client -> serve -> shard -> batch chain + Chrome schema) =="
# In-process supervisor + loopback load with tracing on: exits nonzero
# unless at least one trace spans the whole distributed chain, then the
# exported Chrome trace must satisfy the trace-event schema Perfetto and
# chrome://tracing expect.
timeout 300 cargo run --release -q -p thermorl-bench --bin serve -- \
    selftest-trace --out "$SERVE_DIR/chrome_trace.json"
python3 - "$SERVE_DIR/chrome_trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents missing or empty"
assert doc.get("displayTimeUnit") == "ms", doc.get("displayTimeUnit")
complete = 0
for e in events:
    for key in ("name", "ph", "ts", "pid", "tid"):
        assert key in e, f"event missing {key}: {e}"
    if e["ph"] == "X":
        assert e.get("dur", 0) >= 1, f"complete event without dur: {e}"
        complete += 1
assert complete > 0, "no complete (ph=X) span events"
names = {e["name"] for e in events}
for span in ("client.observe", "serve.request", "shard.observe",
             "thermal.batch_step"):
    assert span in names, f"chrome trace missing {span} spans"
print(f"chrome trace OK: {len(events)} events, {complete} complete spans")
EOF

echo "CI OK"
