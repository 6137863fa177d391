#!/usr/bin/env bash
# Repo gate: formatted, release build, full test suite, lint-clean at
# -D warnings, differential verification, pruning benchmark.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --all --check
cargo build --release --workspace
# The benchmark is a workspace of its own and pins part of the public
# API; build and test it against these crates. --locked fails when a
# dependency change would rewrite its lockfile.
cargo build --release --offline --locked --manifest-path flexbench/Cargo.toml
cargo test -q --offline --locked --manifest-path flexbench/Cargo.toml
# bench_json writes every BENCH_PR*.json here, never over the
# committed files.
export FLEXER_BENCH_DIR=.bench-ci
cargo test -q
cargo clippy --workspace -- -D warnings
# Differential gate: the interpreter/verifier suites plus a network-level
# sweep executing every winning schedule on the SPM abstract machine.
cargo test -q -p flexer-sim -p flexer-sched
# Recorded proptest failures replayed explicitly: the vendored proptest
# stand-in does not read .proptest-regressions files, so the shrunken
# seeds live in dedicated regression_seed_* tests that must never rot.
cargo test -q --test property_schedules regression_seed
# Trace gate: golden span tree, Chrome schema, thread-count invariance.
cargo test -q --test trace_pipeline
./target/release/verify
# Branch-and-bound gate: pruned and exhaustive searches must agree
# (asserted inside bench_json) while the pruned one is faster. Also
# emits a sample search trace (validated on write) as a CI artifact.
FLEXER_BENCH_ITERS="${FLEXER_BENCH_ITERS:-3}" ./target/release/bench_json --trace-out trace.json
# Solver-seeding gate: on both reference presets the seeded search must
# schedule strictly fewer candidates to completion than the unseeded
# one while returning byte-identical winners layer for layer — both
# hard-asserted inside bench_json --seed, which exits non-zero (and
# prints no "seed gate" lines) on violation.
seed_out="$(FLEXER_BENCH_ITERS="${FLEXER_BENCH_ITERS:-3}" ./target/release/bench_json --seed)"
echo "$seed_out"
if [ "$(grep -c '^seed gate arch' <<<"$seed_out")" -lt 2 ]; then
    echo "check.sh: bench_json --seed did not report both presets" >&2
    exit 1
fi
# Residency gate: the network-level inter-layer residency planner must
# strictly cut total DMA bytes with latency no worse on both reference
# presets, keep the residency-disabled run byte-identical to the plain
# per-layer search, and pass differential verification on every
# residency-on schedule — all hard-asserted inside bench_json
# --residency, which exits non-zero (and prints no "residency gate"
# lines) on violation.
residency_out="$(FLEXER_BENCH_ITERS="${FLEXER_BENCH_ITERS:-3}" ./target/release/bench_json --residency)"
echo "$residency_out"
if [ "$(grep -c '^residency gate arch' <<<"$residency_out")" -lt 2 ]; then
    echo "check.sh: bench_json --residency did not report both presets" >&2
    exit 1
fi
# Workload-diversity gate: every network in the diverse zoo
# (transformer encoder, MobileNet-style depthwise net, branching fire
# net) must schedule, differentially verify, and warm-start from the
# store on a second pass, on Arch1, Arch5 and the heterogeneous
# configuration; the branching net must cleanly decline residency —
# all hard-asserted inside bench_json --zoo, which exits non-zero (and
# prints no "zoo gate" lines) on violation.
zoo_out="$(./target/release/bench_json --zoo)"
echo "$zoo_out"
if [ "$(grep -c '^zoo gate ' <<<"$zoo_out")" -lt 9 ]; then
    echo "check.sh: bench_json --zoo did not report all nine net/arch pairs" >&2
    exit 1
fi
# Anytime gate: an expiring deadline yields a partial result with a
# proven gap instead of a typed deadline error.
cargo test -q -p flexer-serve anytime
cargo test -q --test seeded_search
# Store and serving suites: fingerprint pinning, corruption handling,
# warm-start byte identity, server abuse (saturation, malformed input,
# deadlines, graceful drain).
cargo test -q -p flexer-store -p flexer-serve
# Store gate, run twice against one directory: every invocation proves
# warm hits == layers and byte-identical winners internally; the
# second invocation must additionally warm-start from the first
# *process*'s entries — its very first pass sees zero misses.
rm -rf .flexer-store-ci
./target/release/bench_json --store .flexer-store-ci
warm_out="$(./target/release/bench_json --store .flexer-store-ci)"
echo "$warm_out"
if ! grep -q "^store first pass: .* / 0 misses" <<<"$warm_out"; then
    echo "check.sh: second bench_json --store run was not warm" >&2
    exit 1
fi
# Serving gate: boot the daemon on a loopback port (sharing the warm
# store), round-trip the client, then drain gracefully. flexer-cli
# exits non-zero unless the server answered {"ok":true}.
rm -f .flexer-serve-ci.port
./target/release/flexer-serve --addr 127.0.0.1:0 \
    --port-file .flexer-serve-ci.port --store .flexer-store-ci &
serve_pid=$!
for _ in $(seq 100); do [ -s .flexer-serve-ci.port ] && break; sleep 0.1; done
port="$(cat .flexer-serve-ci.port)"
./target/release/flexer-cli --addr "127.0.0.1:$port" health
./target/release/flexer-cli --addr "127.0.0.1:$port" schedule squeezenet >/dev/null
./target/release/flexer-cli --addr "127.0.0.1:$port" stats
./target/release/flexer-cli --addr "127.0.0.1:$port" shutdown
wait "$serve_pid"
rm -f .flexer-serve-ci.port
rm -rf .flexer-store-ci
# Fleet smoke: a supervised 3-node fleet must route every request to
# its ring owner (asserted via per-node store counters), keep every
# request answerable through failover while one member is down, and
# bring a freshly rejoined member to manifest parity purely through
# anti-entropy — the rejoined node answers its shard warm (hits > 0,
# zero misses) with responses byte-identical to the pre-kill baseline.
rm -rf .fleet-smoke-ci
smoke_out="$(./target/release/flexer-fleet smoke \
    --serve-bin ./target/release/flexer-serve --scratch .fleet-smoke-ci)"
echo "$smoke_out"
if ! grep -q '^fleet smoke: PASS' <<<"$smoke_out"; then
    echo "check.sh: fleet smoke did not pass" >&2
    exit 1
fi
rm -rf .fleet-smoke-ci
# Fleet serving gate: 1-node vs 3-node (same total worker budget) —
# cold responses byte-identical with provenance masked, and after
# anti-entropy the fleet's aggregate warm-hit throughput over one
# connection per node must strictly beat the single node — both
# hard-asserted inside bench_json --fleet, which exits non-zero (and
# prints no "fleet gate" lines) on violation. Emits
# $FLEXER_BENCH_DIR/BENCH_PR10.json.
fleet_out="$(./target/release/bench_json --fleet)"
echo "$fleet_out"
if [ "$(grep -c '^fleet gate ' <<<"$fleet_out")" -lt 2 ]; then
    echo "check.sh: bench_json --fleet did not report both gates" >&2
    exit 1
fi
# Chaos gate: the deterministic harness drives real flexer-serve
# daemons through soak, slow-loris, store-corruption, deadline-skew,
# kill/restart, and sharded-fleet scenarios on three fixed seeds. Zero invariant
# violations allowed; p50/p99 latency SLOs are asserted from the
# deterministic trace layer's logical ticks (no wall-clock flake). A
# failure dumps a replayable artifact under .chaos-artifacts/ naming
# the seed to re-run with.
rm -rf .chaos-artifacts
./target/release/flexer-chaos \
    --seed 101 --seed 202 --seed 303 --duration-short \
    --serve-bin ./target/release/flexer-serve \
    --artifact-dir .chaos-artifacts
echo "check.sh: all green"
