#!/usr/bin/env bash
# Build the program and its benchmark from source, then run perf_suite with
# the arguments given (see README.md; BENCHMARK.json names this script).
#
# The workspace depends on nine published crates. Where cargo can resolve
# them without the network (a vendored or cached registry), the program is
# built against them, as it ships. The container this was written in has a
# Rust toolchain and an empty registry: there every registry dependency is
# patched to its stand-in under stubs/ — from the command line, because no
# manifest or cargo config of the repository may know about the benchmark.
# Which of the two was used is in the host block of every result
# ("deps"); numbers taken with one do not compare with the other's.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/core" ]; then
    echo "perf: $root is not the crayfish workspace; nothing to benchmark" >&2
    exit 3
fi
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac

patches=()
if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
    export PERF_DEPS=registry
else
    export PERF_DEPS=stubs
    for stub in "$here"/stubs/*/; do
        name="$(basename "$stub")"
        patches+=(--config "patch.crates-io.$name.path=\"${stub%/}\"")
    done
    # Cargo keeps its lock and cache files in its home directory: with
    # nothing to read there, move it inside the build directory, so the run
    # writes nothing outside the checkout.
    export CARGO_HOME="$target/cargo-home"
fi

# crayfish-node must sit beside perf_suite: the TCP-broker workload spawns it.
cargo build --release --offline --quiet ${patches[@]+"${patches[@]}"} \
    -p crayfish -p crayfish-perf --bin crayfish-node --bin perf_suite >&2

# One compute thread: see the README on why the engine thread runs alone.
export CRAYFISH_THREADS=1
exec "$target/release/perf_suite" "$@"
