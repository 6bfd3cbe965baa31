#!/usr/bin/env bash
# Tier-1 gate: release build, the full test suite, and lint-clean clippy.
#
# The workspace vendors all third-party dependencies as path crates under
# crates/shims/ (no registry packages in Cargo.lock), so --offline always
# works and the gate is hermetic.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release --workspace
cargo test  --offline -q --workspace
# The obs crate must also pass with capture compiled out (the no-op
# mirror of the probe API keeps instrumented callers building).
cargo test  --offline -q -p folearn-obs --no-default-features
# The benchmark is a package of its own (outside the workspace): its unit
# tests and its smoke test (all four workloads at tiny counts) run here.
cargo test  --offline -q --manifest-path benchmark/Cargo.toml
cargo clippy --offline --workspace --all-targets -- -D warnings

# --- folearn-server smoke test (hermetic: loopback only, ephemeral port) ---
# Boots the daemon through the real CLI, registers a structure, solves the
# same instance twice (the repeat must come out of the result cache with an
# identical hypothesis), and shuts the daemon down cleanly.
FOLEARN=target/release/folearn
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"; for P in ${SERVER_PID:-} ${ROUTER_PID:-} ${B1_PID:-} ${B2_PID:-} ${B3_PID:-} ${DUR_PID:-}; do kill "$P" 2>/dev/null || true; done' EXIT

printf 'colors Red\nvertices 6\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\ncolor 0 Red\ncolor 3 Red\n' > "$SMOKE/graph.txt"
printf '+ 0\n- 1\n- 2\n+ 3\n- 4\n' > "$SMOKE/sample.txt"
printf '+ 1\n- 0\n+ 4\n- 5\n' > "$SMOKE/sample2.txt"

"$FOLEARN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE/addr" --workers 1 > "$SMOKE/server.log" &
SERVER_PID=$!
for _ in $(seq 1 50); do [ -s "$SMOKE/addr" ] && break; sleep 0.1; done
[ -s "$SMOKE/addr" ] || { echo "tier1: server never published its address" >&2; exit 1; }
ADDR=$(cat "$SMOKE/addr")

"$FOLEARN" client --addr "$ADDR" --action ping | grep -q pong
"$FOLEARN" client --addr "$ADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 > "$SMOKE/cold.txt"
grep -q 'cached:          no' "$SMOKE/cold.txt"
"$FOLEARN" client --addr "$ADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 > "$SMOKE/warm.txt"
grep -q 'cached:          yes' "$SMOKE/warm.txt"
# Identical solve answers modulo the cached flag.
diff <(grep -v cached "$SMOKE/cold.txt") <(grep -v cached "$SMOKE/warm.txt")

# --- event-core pipelined smoke (hermetic: loopback only) -----------------
# The default (event-loop) core must absorb 200+ concurrent pipelined
# clients on this one daemon: every request answered (224 conns × 20
# requests + 224 registers = 4704), zero errors, no worker deaths.
"$FOLEARN" loadgen --addr "$ADDR" --graph "$SMOKE/graph.txt" \
    --connections 224 --requests 20 --pipeline 8 --pool 1 --seed 23 \
    --timeout-ms 60000 > "$SMOKE/loadgen.txt"
grep -q '^4704 requests over 224 connections' "$SMOKE/loadgen.txt"
grep -q ', 0 errors' "$SMOKE/loadgen.txt"
if grep -q 'failed' "$SMOKE/loadgen.txt"; then
    echo "tier1: pipelined loadgen smoke had worker failures" >&2
    cat "$SMOKE/loadgen.txt" >&2
    exit 1
fi

"$FOLEARN" client --addr "$ADDR" --action shutdown
wait "$SERVER_PID"
SERVER_PID=
grep -q 'shut down cleanly' "$SMOKE/server.log"

# --- durability crash smoke (hermetic: loopback + a scratch data dir) -----
# Boot a durable daemon, learn, SIGKILL it, and restart it on the same data
# dir: the pre-crash hypothesis id must answer evaluate with nobody
# re-registering or re-solving — a volatile restart would answer
# unknown_hypothesis here — and stats must show the WAL replay behind it.
# A re-solve after the restart must name the same hypothesis id. The
# restart keeps a one-entry cache: a second sample evicts the first, and
# re-solving the first re-runs the learner but logs nothing, because its
# id is already durable.
"$FOLEARN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE/dur.addr" --workers 1 \
    --data-dir "$SMOKE/durable" > "$SMOKE/dur.log" &
DUR_PID=$!
for _ in $(seq 1 50); do [ -s "$SMOKE/dur.addr" ] && break; sleep 0.1; done
[ -s "$SMOKE/dur.addr" ] || { echo "tier1: durable server never published its address" >&2; exit 1; }
DADDR=$(cat "$SMOKE/dur.addr")
"$FOLEARN" client --addr "$DADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 > "$SMOKE/dur-solve.txt"
HYP=$(sed -n 's/^hypothesis id:   //p' "$SMOKE/dur-solve.txt")
[ -n "$HYP" ] || { echo "tier1: durable solve printed no hypothesis id" >&2; exit 1; }

kill -9 "$DUR_PID"; wait "$DUR_PID" 2>/dev/null || true
DUR_PID=
rm -f "$SMOKE/dur.addr"
"$FOLEARN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE/dur.addr" --workers 1 \
    --data-dir "$SMOKE/durable" --cache 1 > "$SMOKE/dur2.log" &
DUR_PID=$!
for _ in $(seq 1 50); do [ -s "$SMOKE/dur.addr" ] && break; sleep 0.1; done
[ -s "$SMOKE/dur.addr" ] || { echo "tier1: durable server never came back" >&2; exit 1; }
DADDR=$(cat "$SMOKE/dur.addr")
"$FOLEARN" client --addr "$DADDR" --action evaluate --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --hypothesis "$HYP" > "$SMOKE/dur-eval.txt"
grep -q 'error vs labels: 0.0000' "$SMOKE/dur-eval.txt"
"$FOLEARN" client --addr "$DADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 > "$SMOKE/dur-resolve.txt"
grep -qx "hypothesis id:   $HYP" "$SMOKE/dur-resolve.txt" || {
    echo "tier1: re-solve after the restart did not return hypothesis $HYP" >&2
    cat "$SMOKE/dur-resolve.txt" >&2
    exit 1
}
"$FOLEARN" client --addr "$DADDR" --action stats > "$SMOKE/dur-stats.txt"
grep -q '"durable": true' "$SMOKE/dur-stats.txt"
grep -Eq '"wal_records_replayed": [1-9]' "$SMOKE/dur-stats.txt"
grep -q '"wal_records_written": 0,' "$SMOKE/dur-stats.txt"
"$FOLEARN" client --addr "$DADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample2.txt" --ell 1 --q 1 > "$SMOKE/dur-solve2.txt"
grep -q 'cached:          no' "$SMOKE/dur-solve2.txt"
"$FOLEARN" client --addr "$DADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 > "$SMOKE/dur-evicted.txt"
grep -q 'cached:          no' "$SMOKE/dur-evicted.txt"
grep -qx "hypothesis id:   $HYP" "$SMOKE/dur-evicted.txt"
"$FOLEARN" client --addr "$DADDR" --action stats > "$SMOKE/dur-stats2.txt"
grep -q '"wal_records_written": 1,' "$SMOKE/dur-stats2.txt" || {
    echo "tier1: expected exactly one WAL record (the second sample's solve)" >&2
    grep wal_records "$SMOKE/dur-stats2.txt" >&2
    exit 1
}
"$FOLEARN" client --addr "$DADDR" --action shutdown
wait "$DUR_PID"
DUR_PID=

# --- cluster smoke test (hermetic: loopback only, ephemeral ports) --------
# Boots three backend daemons and the consistent-hash router through the
# real CLI, learns through the router, kills one backend, and learns a
# fresh instance again: the surviving replicas must absorb the loss.
"$FOLEARN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE/b1.addr" --workers 1 > "$SMOKE/b1.log" &
B1_PID=$!
"$FOLEARN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE/b2.addr" --workers 1 > "$SMOKE/b2.log" &
B2_PID=$!
"$FOLEARN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE/b3.addr" --workers 1 > "$SMOKE/b3.log" &
B3_PID=$!
for F in b1 b2 b3; do
    for _ in $(seq 1 50); do [ -s "$SMOKE/$F.addr" ] && break; sleep 0.1; done
    [ -s "$SMOKE/$F.addr" ] || { echo "tier1: backend $F never published its address" >&2; exit 1; }
done
BACKENDS="$(cat "$SMOKE/b1.addr"),$(cat "$SMOKE/b2.addr"),$(cat "$SMOKE/b3.addr")"

"$FOLEARN" route --backends "$BACKENDS" --replicas 2 --hedge-ms 25 \
    --addr 127.0.0.1:0 --addr-file "$SMOKE/router.addr" > "$SMOKE/router.log" &
ROUTER_PID=$!
for _ in $(seq 1 50); do [ -s "$SMOKE/router.addr" ] && break; sleep 0.1; done
[ -s "$SMOKE/router.addr" ] || { echo "tier1: router never published its address" >&2; exit 1; }
RADDR=$(cat "$SMOKE/router.addr")

"$FOLEARN" client --addr "$RADDR" --action ping | grep -q pong
"$FOLEARN" client --addr "$RADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 --retries 4 > "$SMOKE/routed.txt"
grep -q 'training error:  0.0000' "$SMOKE/routed.txt"
"$FOLEARN" client --addr "$RADDR" --action stats > "$SMOKE/router-stats.txt"
grep -q '"router"' "$SMOKE/router-stats.txt"
# The router counts its own front-door connection lifecycle.
grep -q '"oversize_closes"' "$SMOKE/router-stats.txt"

# --- cluster observability smoke ------------------------------------------
# An opted-in solve (--trace-out attaches a trace context) must come back
# with ONE stitched span tree: the router's spans wrapping the winning
# backend's server.solve subtree, renderable by `folearn trace`.
"$FOLEARN" client --addr "$RADDR" --action solve --graph "$SMOKE/graph.txt" \
    --examples "$SMOKE/sample.txt" --ell 1 --q 1 --retries 4 \
    --trace-out "$SMOKE/routed-trace.jsonl" > "$SMOKE/traced.txt"
grep -q 'trace:           written to' "$SMOKE/traced.txt"
grep -q 'router.solve' "$SMOKE/routed-trace.jsonl"
grep -q 'router.attempt' "$SMOKE/routed-trace.jsonl"
grep -q 'server.solve' "$SMOKE/routed-trace.jsonl"
"$FOLEARN" trace --file "$SMOKE/routed-trace.jsonl" > "$SMOKE/rendered.txt"
grep -q 'router.solve' "$SMOKE/rendered.txt"
grep -q 'server.solve' "$SMOKE/rendered.txt"
# Hypothesis ids are content addresses: the untraced and the traced solve
# of the same instance name the same hypothesis.
grep -q '^hypothesis id:' "$SMOKE/routed.txt"
diff <(grep '^hypothesis id:' "$SMOKE/routed.txt") <(grep '^hypothesis id:' "$SMOKE/traced.txt")
# The live view, single-frame mode: fan-in stats from both live backends.
"$FOLEARN" top --addr "$RADDR" --once > "$SMOKE/top.txt"
grep -q 'folearn top — router' "$SMOKE/top.txt"
grep -q 'cluster:' "$SMOKE/top.txt"
grep -q '3 backends, 3 live' "$SMOKE/top.txt"
# Each live backend row carries the router's timing of its calls to it.
grep -Eq 'requests, calls p50 [0-9]+µs p99 [0-9]+µs' "$SMOKE/top.txt"

# The router's front door is the same event core: 224 concurrent
# pipelined clients through it must all be answered (224 conns × 20
# requests + 224 registers = 4704), with zero errors.
"$FOLEARN" loadgen --addr "$RADDR" --graph "$SMOKE/graph.txt" \
    --connections 224 --requests 20 --pipeline 8 --pool 1 --seed 23 \
    --timeout-ms 60000 > "$SMOKE/router-loadgen.txt"
grep -q '^4704 requests over 224 connections' "$SMOKE/router-loadgen.txt"
grep -q ', 0 errors' "$SMOKE/router-loadgen.txt"
if grep -q 'failed' "$SMOKE/router-loadgen.txt"; then
    echo "tier1: pipelined loadgen through the router had worker failures" >&2
    cat "$SMOKE/router-loadgen.txt" >&2
    exit 1
fi

# Kill one backend; a fresh structure must still learn through the
# surviving replicas (the router retries and fails over internally).
kill "$B2_PID"; wait "$B2_PID" 2>/dev/null || true
B2_PID=
printf 'colors Red\nvertices 7\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 5 6\ncolor 0 Red\ncolor 3 Red\ncolor 6 Red\n' > "$SMOKE/graph2.txt"
printf '+ 0\n- 1\n- 2\n+ 3\n- 4\n- 5\n+ 6\n' > "$SMOKE/sample2.txt"
"$FOLEARN" client --addr "$RADDR" --action solve --graph "$SMOKE/graph2.txt" \
    --examples "$SMOKE/sample2.txt" --ell 1 --q 1 --retries 4 > "$SMOKE/degraded.txt"
grep -q 'training error:  0.0000' "$SMOKE/degraded.txt"

"$FOLEARN" client --addr "$RADDR" --action shutdown
wait "$ROUTER_PID"
ROUTER_PID=
grep -q 'shut down cleanly' "$SMOKE/router.log"
for P in "$B1_PID" "$B3_PID"; do kill "$P" 2>/dev/null || true; wait "$P" 2>/dev/null || true; done
B1_PID=; B3_PID=

# --- type kernel end to end (hermetic: no I/O) -----------------------------
# E9 (type counts stabilise in n) and E10 (Fact 5 locality: zero
# violations at r = 4^q) drive the type kernel through global and local
# types; each finishes in well under a second and must print PASS.
target/release/exp_e9_types > "$SMOKE/e9.txt"
grep -q 'verdict: PASS' "$SMOKE/e9.txt"
target/release/exp_e10_gaifman > "$SMOKE/e10.txt"
grep -q 'verdict: PASS' "$SMOKE/e10.txt"

# --- Lemma 7 reduction end to end (hermetic: no I/O) -----------------------
# E1 + E12 run the reduction against the brute-force ERM oracle (its ℓ = 0
# solves included) and an adversarial one; reduced answers must equal
# direct model checking. Finishes in about 0.1 s.
target/release/exp_e1_hardness > "$SMOKE/e1.txt"
grep -q 'verdict: PASS' "$SMOKE/e1.txt"

# --- paper experiments gated on counts and errors (hermetic: no I/O) ------
# Each binary exits 1 when its verdict is FAIL. These eleven gate on counts,
# errors and bounds, not wall time; together they finish in a few seconds.
for E in e2_covering e3_bruteforce e4_realizable e5_ndlearner e6_pac e7_vc \
         e8_splitter e11_ablation e13_counting e14_sublinear e15_preprocessing; do
    target/release/exp_$E > "$SMOKE/$E.txt" || {
        echo "tier1: exp_$E failed its verdict" >&2
        tail -n 5 "$SMOKE/$E.txt" >&2
        exit 1
    }
done

# --- VM engine smoke test (hermetic: local files only) --------------------
# The compiled bytecode engine must agree with the tree walker on a real
# learn and a model check, straight through the CLI flag. One sweep thread:
# with more, the report's evaluated/pruned tallies depend on scheduling.
"$FOLEARN" learn --graph "$SMOKE/graph.txt" --examples "$SMOKE/sample.txt" \
    --ell 1 --q 1 --threads 1 --engine tree > "$SMOKE/learn_tree.txt"
"$FOLEARN" learn --graph "$SMOKE/graph.txt" --examples "$SMOKE/sample.txt" \
    --ell 1 --q 1 --threads 1 --engine vm > "$SMOKE/learn_vm.txt"
diff "$SMOKE/learn_tree.txt" "$SMOKE/learn_vm.txt"
TREE_MC=$("$FOLEARN" modelcheck --graph "$SMOKE/graph.txt" \
    --formula 'exists x0. Red(x0) & exists x1. E(x0, x1) & !Red(x1)' --engine tree)
VM_MC=$("$FOLEARN" modelcheck --graph "$SMOKE/graph.txt" \
    --formula 'exists x0. Red(x0) & exists x1. E(x0, x1) & !Red(x1)' --engine vm)
[ "$TREE_MC" = "$VM_MC" ]

# --- tracing smoke test (hermetic: local files only) ----------------------
# A traced learn writes a JSONL span tree; `folearn trace` reads it back
# and prints the per-name rollup with the sweep's work counters.
"$FOLEARN" learn --graph "$SMOKE/graph.txt" --examples "$SMOKE/sample.txt" \
    --ell 1 --q 1 --trace-out "$SMOKE/trace.jsonl" --trace-summary on > "$SMOKE/learn.txt"
grep -q 'erm.sweep' "$SMOKE/learn.txt"
[ -s "$SMOKE/trace.jsonl" ]
"$FOLEARN" trace --file "$SMOKE/trace.jsonl" > "$SMOKE/trace.txt"
grep -q 'root span(s)' "$SMOKE/trace.txt"
grep -q 'evaluated_params=' "$SMOKE/trace.txt"

echo "tier1: OK"
