#!/usr/bin/env bash
# Repo gate: formatted, release build, full test suite, lint-clean at
# -D warnings, rustdoc without a broken link, differential
# verification, benchmark rows, then serving, fleet and chaos gates.
# Every step passes or fails by its exit code.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --all --check
cargo build --release --workspace
# The benchmark is a workspace of its own and pins part of the public
# API; build and test it against these crates. --locked fails when a
# dependency change would rewrite its lockfile.
cargo build --release --offline --locked --manifest-path flexbench/Cargo.toml
cargo test -q --offline --locked --manifest-path flexbench/Cargo.toml
# Benchmark self-test: every workload at --tiny, traced and untraced,
# with the benchmark's output checks — every hit byte-identical to its
# cold answer after provenance masking, every cold winner re-verified
# on the SPM abstract machine. It writes only under .bench_work/.
python3 flexbench/selftest.py
# Every suite of every crate, in one run. It includes:
# - Differential gate: the interpreter/verifier suites of flexer-sim
#   and flexer-sched, plus a network-level sweep executing every
#   winning schedule on the SPM abstract machine.
# - Recorded proptest failures: the vendored proptest stand-in does not
#   read .proptest-regressions files, so the shrunken seeds live in
#   dedicated regression_seed_* tests that must never rot.
# - Trace gate: golden span tree, Chrome schema, thread-count
#   invariance (tests/trace_pipeline.rs).
# - Anytime gate: an expiring deadline yields a partial result with a
#   proven gap instead of a typed deadline error (flexer-serve).
# - Residency gate: on squeezenet ÷4 the planner strictly cuts DMA
#   bytes at no worse latency, verified, with the residency-off run
#   byte-identical (crates/core/tests/residency_equiv.rs).
# - Store and serving suites: fingerprint pinning, corruption handling,
#   warm-start byte identity for squeezenet ÷4 and every diverse-zoo
#   net on Arch1, Arch5 and hetero1 (tests/store_warmstart.rs), server
#   abuse (saturation, malformed input, deadlines, graceful drain).
# - Fleet gate: a 3-node fleet answers byte-identically to a
#   standalone node and reaches replica parity
#   (crates/fleet/tests/fleet_roundtrip.rs).
cargo test -q --workspace
# Hostile-input sweep again in release, where overflow checks are off
# and a wrapped size would pass silently instead of panicking.
cargo test -q --release -p flexer-serve --test hostile_shapes
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: no intra-doc link dangles after a deletion or points at
# a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
./target/release/verify
# Benchmark rows: one argument-free run writes every BENCH_PR*.json
# and the sample search trace (trace.json) under FLEXER_BENCH_DIR,
# never over the committed files. It checks only that each row's
# samples did the same work; the properties it once asserted are
# tests in the suite above.
FLEXER_BENCH_DIR=.bench-ci FLEXER_BENCH_ITERS="${FLEXER_BENCH_ITERS:-3}" \
    ./target/release/bench_json
# Serving gate: boot the daemon on a loopback port with a store of its
# own, round-trip the client, then drain gracefully. flexer-cli exits
# non-zero unless the server answered {"ok":true}. compare and verify
# run on the driver schedule warmed, so their layers are tier and
# store hits; verify re-verifies each one.
rm -rf .flexer-serve-store-ci .flexer-serve-ci.port
./target/release/flexer-serve --addr 127.0.0.1:0 \
    --port-file .flexer-serve-ci.port --store .flexer-serve-store-ci &
serve_pid=$!
for _ in $(seq 100); do [ -s .flexer-serve-ci.port ] && break; sleep 0.1; done
port="$(cat .flexer-serve-ci.port)"
./target/release/flexer-cli --addr "127.0.0.1:$port" health
./target/release/flexer-cli --addr "127.0.0.1:$port" schedule squeezenet >/dev/null
./target/release/flexer-cli --addr "127.0.0.1:$port" compare squeezenet >/dev/null
./target/release/flexer-cli --addr "127.0.0.1:$port" verify squeezenet >/dev/null
./target/release/flexer-cli --addr "127.0.0.1:$port" stats
./target/release/flexer-cli --addr "127.0.0.1:$port" shutdown
wait "$serve_pid"
rm -rf .flexer-serve-store-ci .flexer-serve-ci.port
# Fleet smoke: a supervised 3-node fleet must route every request to
# its ring owner (asserted via per-node store counters), keep every
# request answerable through failover while one member is down, and
# bring a freshly rejoined member to manifest parity purely through
# anti-entropy — the rejoined node answers its shard warm (hits > 0,
# zero misses) with responses byte-identical to the pre-kill baseline.
# flexer-fleet exits non-zero on any violation.
rm -rf .fleet-smoke-ci
./target/release/flexer-fleet smoke \
    --serve-bin ./target/release/flexer-serve --scratch .fleet-smoke-ci
rm -rf .fleet-smoke-ci
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
