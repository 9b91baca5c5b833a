#!/usr/bin/env bash
# Tier-1 gate, fully offline (all deps are vendored path crates; see
# .cargo/config.toml). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt (check only) =="
cargo fmt --all --check

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test -q --workspace --release

echo "== allocation gate (warm hot paths, reported by name) =="
# Counting-allocator tests: the kernel's warm event loop allocates
# nothing; a warm data-packet hop through two FANcY switches allocates
# nothing, through a reroute-protected port too; a warm counting session
# allocates only the Report payload it sends, hooks on or off. They also
# run in the workspace tests above; this stage names the regression.
cargo test -q --release -p fancy-sim --test zero_alloc
cargo test -q --release -p fancy-core --test zero_alloc_hop --test zero_alloc_hooks
# A warm FANcY pair holds one tree counter array per side: the receiver
# answers a repeated Stop from its registers, not from a second copy.
cargo test -q --release -p fancy-core --test tree_array_memory
# A TCP sender's peak heap grows with the flows running at once, not with
# the length of its schedule (at most 16 B per extra scheduled flow); a
# receiver holds one word per flow (at most 32 B with its key and slack).
cargo test -q --release -p fancy-tcp --test live_flow_memory

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== benches compile =="
cargo build --benches --release --workspace
# The one bench that runs in seconds: the IBF and wire-format unit costs.
cargo bench -q -p fancy-bench --bench micro

echo "== ledger still compiles (benchmark/ against the harness API) =="
# benchmark/ is a separate package that path-depends on this workspace;
# its self-test catches a harness API change here instead of at the
# next benchmark run.
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== digest gate (speed-only changes keep the simulated bytes) =="
# Each ledger workload folds what its simulation produced into a
# `sim_digest`; a change that only makes the simulator faster must leave
# all five where they are. Which of them fold an event count matters
# when a change alters what the scheduler is *fed* (fewer timers for the
# same packets) and nothing else: `caida_sweep` folds Table 3 rows only
# and stays; the three `backbone_*` digests fold the kernel's
# `events_dispatched` next to packets forwarded, drops and detections,
# so they move (`backbone_plain` must still equal `backbone_sharded`);
# `fwd_udp` folds it too, but runs no TCP host and is the control. After
# a deliberate change of either kind, re-bless: run the command below
# and write its output over the golden file.
BENCH_DIGESTS="$(cargo run -q --release --manifest-path benchmark/Cargo.toml -- \
    --seed 1 --seconds 1 --trace 0 | awk '$2 == "sim_digest" { print $1, $3 }')"
diff -u tests/golden/bench_digests.txt <(printf '%s\n' "$BENCH_DIGESTS") \
    || { echo "digest gate: a ledger sim_digest moved (seed 1)"; exit 1; }

echo "== chaos gate (protocol soak + fault-injected determinism) =="
# Protocol soak: sessions must survive 20% control loss, degrade to
# port-level counting at 100%, and recover; plus the check that a
# fault-injected 32-cell sweep is bit-identical across 1 and 8
# threads (chaos RNG is plan-owned, never scheduling-dependent) and to
# crates/bench/tests/golden/chaos32.golden (duplicated and reordered
# packets are the arrivals the event queue sorts outside their link's
# channel; the fixture predates the channels).
cargo test -q --release -p fancy-core --test chaos_soak --test fsm_chaos
cargo test -q --release -p fancy-bench --test chaos_determinism

echo "== cache gate (cold -> warm round-trip, warm run executes 0 cells) =="
# A 32-cell sweep run twice against one FANCY_CACHE_DIR must execute
# zero cells the second time and reproduce the cold report bit-for-bit
# at 1 and 8 threads; corrupt records must degrade to silent misses.
cargo test -q --release -p fancy-bench --test cache_roundtrip

echo "== trace-report smoke (JSONL round-trip, fails on schema drift) =="
# A live scenario's trace must round-trip byte for byte and show a
# failure onset and a detection. Kinds a live scenario does not emit
# (cache hits, scrapes, failover/damping/alarm, no-backup drops) are
# pinned line by line by the fancy-trace unit tests run in the metrics
# gate below.
cargo run -q --release --example trace_report

echo "== metrics gate (golden Prometheus diff + merge determinism) =="
# The metrics plane is sim-time-only, so the Prometheus text exposition
# of the metrics_report scenario is byte-identical on any machine at any
# thread count; diffing against the committed golden catches schema or
# semantics drift. The determinism test pins the sweep-level snapshot
# merge: 1-thread == 8-thread, byte-for-byte.
cargo run -q --release --example metrics_report -- --golden tests/golden/metrics_report.prom >/dev/null
cargo test -q --release -p fancy-bench --test metrics_determinism
# The one JSONL codec (fancy_trace::json) and the snapshot's byte pin, by name.
cargo test -q --release -p fancy-metrics -p fancy-trace --lib

echo "== network-wide gate (small ISP backbone, FANcY on every edge) =="
# Fails a sample of edges on a 12-switch backbone with every edge
# monitored concurrently: exits non-zero unless coverage is 100%, and
# unless at least one SPIDER-protected edge's flight-recorder-measured
# detect+reroute latency lands inside its analytic bound. The netwide
# determinism test pins 1-thread == 8-thread per-edge outcomes.
cargo run -q --release --example isp_backbone -- --switches 12 --fail 4
cargo test -q --release -p fancy-bench --test netwide_determinism
# Malformed CLI input is a usage error (exit 2), never a panic; so is a
# flag missing its path, and an argument the example does not know. An
# input file that cannot be read is a plain failure (exit 1) with the
# I/O error, never a panic.
expect_exit() { # expect_exit CODE EXAMPLE ARGS...
    local want=$1 rc=0 err
    shift
    err="$(cargo run -q --release --example "$@" 2>&1 >/dev/null)" || rc=$?
    if [ "$rc" -ne "$want" ] || grep -q panicked <<<"$err"; then
        echo "negative smoke: '$*' must exit $want without panicking (exit $rc): $err"
        exit 1
    fi
}
expect_exit 2 isp_backbone -- --switches x
expect_exit 2 isp_backbone -- --switches 1
expect_exit 2 isp_backbone -- --switches 1 --fail 0 --multi 2
expect_exit 2 isp_backbone -- --switches 12 --fail 2 --multi 2 --combos 0
# One traffic-carrying edge cannot make a combo of two overlapping failures.
expect_exit 2 isp_backbone -- --switches 2 --fail 0 --multi 2 --combos 1
# One edge, no loop-free alternate: nothing is SPIDER-protected, so the
# reroute check does not apply and the run passes on its other checks.
expect_exit 0 isp_backbone -- --switches 2 --fail 0
expect_exit 2 isp_backbone -- --switch 12
expect_exit 2 metrics_report -- --golden
expect_exit 2 metrics_report -- --write-golden
# An unknown flag, or both golden flags, would let the metrics gate pass
# without reading its golden.
expect_exit 2 metrics_report -- --golde tests/golden/metrics_report.prom
expect_exit 2 metrics_report -- --golden a --write-golden b
expect_exit 2 trace_compile -- compile --scale
expect_exit 2 trace_compile -- compile --scale abc
expect_exit 2 trace_compile -- compile --scale 2
expect_exit 1 trace_compile -- verify --file /nonexistent/missing.events
# A trace that cannot be read, or names an unknown event kind, fails
# typed (exit 1, the parse error printed), never with a panic.
expect_exit 1 trace_report -- /nonexistent/missing.jsonl
expect_exit 2 trace_report -- a b
WARP_TRACE="$(mktemp)"
trap 'rm -f "$WARP_TRACE"' EXIT
echo '{"ev":"warp","t":1}' >"$WARP_TRACE"
expect_exit 1 trace_report -- "$WARP_TRACE"
rm -f "$WARP_TRACE"

echo "== shard gate (conservative-parallel DES, FANCY_SHARDS byte-identity) =="
# The same 12-switch netwide runs sharded in every cell; the shard
# layout is a pure function of the topology and FANCY_SHARDS only picks
# the worker-thread count — so the merged reference-run trace, the
# metrics plane, telemetry, and every per-edge outcome record must be
# byte-identical at FANCY_SHARDS=1 and FANCY_SHARDS=4. The unit-level
# contract (1/4/8 workers through the executor's one window loop) is
# pinned by shard_determinism.
SHARD_DUMP_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DUMP_DIR"' EXIT
FANCY_SHARDS=1 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 4 --dump "$SHARD_DUMP_DIR/s1" >/dev/null
FANCY_SHARDS=4 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 4 --dump "$SHARD_DUMP_DIR/s4" >/dev/null
for f in trace.jsonl metrics.jsonl telemetry.txt outcomes.jsonl; do
    cmp "$SHARD_DUMP_DIR/s1.$f" "$SHARD_DUMP_DIR/s4.$f" \
        || { echo "shard gate: $f differs between FANCY_SHARDS=1 and 4"; exit 1; }
done
# The dump is also what the flight recorder and the metrics hubs wrote,
# byte for byte: a change that only makes the hooks cheaper must leave
# these checksums where they are (`sim_digest` does not see the hooks).
# The trace is checked on its own first: every packet, drop, FSM step
# and detection is in it, so its bytes are the simulated behaviour. The
# metrics and outcome files also carry scheduler bookkeeping (kernel
# event/timer gauges, per-shard events/windows), which a change to what
# the scheduler is fed moves with the trace standing still. After a
# deliberate change, re-bless: run the cksum below on the s1 dump and
# write its output over the golden.
DUMP_SUMS="$(cd "$SHARD_DUMP_DIR" && cksum s1.trace.jsonl s1.metrics.jsonl s1.outcomes.jsonl)"
diff -u <(head -n 1 tests/golden/isp_backbone_dump.sums) <(head -n 1 <<<"$DUMP_SUMS") \
    || { echo "shard gate: flight-recorder bytes moved — behaviour change"; exit 1; }
diff -u tests/golden/isp_backbone_dump.sums <(printf '%s\n' "$DUMP_SUMS") \
    || { echo "shard gate: bookkeeping bytes moved — re-bless if intended"; exit 1; }
cargo test -q --release -p fancy-bench --test shard_determinism

echo "== multi-failure gate (overlapping gray failures + recovery verifier) =="
# Two simultaneously failed edges per combo on the 12-switch backbone —
# adversarial bursty-loss chaos on one, a hard gray drop on the other —
# with every combo member carrying its own victim entry. The example
# exits non-zero unless every combo is fully detected, every protected
# member's recovery contract (latency bound, loss cessation, damping)
# verifies, and at least one member measured a reroute. The combo
# outcome records must also be byte-identical at FANCY_SHARDS=1 and 4,
# and equal to the golden cksum (every per-member verdict, reroute and
# shard count is in them). After a deliberate change, re-bless: run the
# cksum below on the m1 dump and write its output over the golden.
FANCY_SHARDS=1 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 2 --multi 2 --combos 2 --dump "$SHARD_DUMP_DIR/m1" >/dev/null
FANCY_SHARDS=4 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 2 --multi 2 --combos 2 --dump "$SHARD_DUMP_DIR/m4" >/dev/null
cmp "$SHARD_DUMP_DIR/m1.combos.jsonl" "$SHARD_DUMP_DIR/m4.combos.jsonl" \
    || { echo "multi gate: combos.jsonl differs between FANCY_SHARDS=1 and 4"; exit 1; }
diff -u tests/golden/isp_backbone_combos.sums \
    <(cd "$SHARD_DUMP_DIR" && cksum m1.combos.jsonl) \
    || { echo "multi gate: combo outcome bytes moved — re-bless if intended"; exit 1; }

echo "== trace gate (compiled .events replay, byte-identical to in-process) =="
# Compile one small Table-5 trace, prove the file self-verifies
# (inspect + re-synthesize + byte-compare), then run the Table 3 smoke
# sweep three ways — in-process, cold compiled dir, warm compiled dir at
# 8 threads — and byte-diff the bit-exact JSONL row dumps pairwise. The
# warm replay path must never fall back to in-process synthesis; the
# trace_pipeline test additionally pins the synthesis-run counts and the
# corrupt-file recompile path.
TRACE_GATE_DIR="$SHARD_DUMP_DIR/traces"
cargo run -q --release --example trace_compile -- compile \
    --trace 1 --scale 0.004 --secs 6 --seed 7 --dir "$TRACE_GATE_DIR" >/dev/null \
    || { echo "trace gate: compile failed"; exit 1; }
TRACE_GATE_FILE="$(ls "$TRACE_GATE_DIR"/caida1-*.events)"
cargo run -q --release --example trace_compile -- inspect --file "$TRACE_GATE_FILE" >/dev/null
cargo run -q --release --example trace_compile -- verify --file "$TRACE_GATE_FILE" >/dev/null \
    || { echo "trace gate: verify failed (synthesizer/frame drift)"; exit 1; }
FANCY_THREADS=1 cargo run -q --release --example trace_compile -- smoke \
    --dump "$SHARD_DUMP_DIR/rows-inproc.jsonl" 2>/dev/null
FANCY_TRACE_DIR="$TRACE_GATE_DIR" FANCY_THREADS=1 cargo run -q --release \
    --example trace_compile -- smoke --dump "$SHARD_DUMP_DIR/rows-cold.jsonl" 2>/dev/null
FANCY_TRACE_DIR="$TRACE_GATE_DIR" FANCY_THREADS=8 cargo run -q --release \
    --example trace_compile -- smoke --dump "$SHARD_DUMP_DIR/rows-warm8.jsonl" 2>/dev/null
for f in rows-cold.jsonl rows-warm8.jsonl; do
    cmp "$SHARD_DUMP_DIR/rows-inproc.jsonl" "$SHARD_DUMP_DIR/$f" \
        || { echo "trace gate: $f differs from the in-process rows"; exit 1; }
done
cargo test -q --release -p fancy-bench --test trace_pipeline
cargo test -q --release -p fancy-traffic --test events_roundtrip

echo "ci.sh: all green"
