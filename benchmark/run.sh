#!/usr/bin/env bash
# The one command of the repository benchmark: builds the standalone
# benchmark crate (release, offline) and forwards every argument to it.
#
#   benchmark/run.sh                         the matrix: 4 workloads x 3 fresh-process
#                                            repeats, then one traced run each;
#                                            writes benchmark/out/result.json
#   benchmark/run.sh --smoke                 the same at ~1/50 scale, one repeat
#   benchmark/run.sh --seed 2                another seed (invariant checks only)
#   benchmark/run.sh --workload fig06_paper --seed 1 --seconds 15 --trace 0
#                                            one run, one process (BENCHMARK.json's contract)
#   benchmark/run.sh --compare old.json new.json
#
# Exits non-zero if the build fails or any check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
manifest="$root/benchmark/Cargo.toml"

# Cargo's human output goes to stderr; stdout carries only the benchmark's.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2

export HYBRIDCAST_BENCH_ROOT="$root"
export HYBRIDCAST_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export HYBRIDCAST_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

# A relative CARGO_TARGET_DIR is relative to the caller's directory, as
# cargo itself reads it.
exec "${CARGO_TARGET_DIR:-$root/benchmark/target}/release/hybridcast-benchmark" "$@"
