#!/usr/bin/env bash
# Builds the flexer-serve daemon and the flexbench load generator from
# source, then runs one benchmark workload against the daemon.
#
#   bash flexbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target). Everything the run writes stays under .bench_work/.
set -euo pipefail

target=${CARGO_TARGET_DIR:-target}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --quiet --release --offline --manifest-path Cargo.toml -p flexer-serve >&2
cargo build --quiet --release --offline --manifest-path flexbench/Cargo.toml >&2
exec "$target/release/flexbench" --daemon "$target/release/flexer-serve" "$@"
