#!/usr/bin/env sh
# CI gate: static checks first (fast fail), then build, then the full test
# suite (which pins BENCH_tier1.json byte for byte), then the observability
# smokes and the wall-clock trajectory.
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# The counting allocator is the only code behind the `prof` feature and the
# only writer of the allocation counters: lint that build too.
cargo clippy --workspace --all-targets --features ncp2-bench/prof -- -D warnings
cargo xtask lint --scan-only --json > target/lint_report.json
cargo build --release
# hostbench/ (the pinned host benchmark) is its own cargo workspace linking
# ncp2-bench by path, so `cargo test` never compiles it: build it here so a
# harness change cannot break the benchmark unnoticed, and run the tier-1
# grid once. Its checks are exact: the pinned simulated cycles, all 112
# checksums and a silent oracle. The `--seconds` value is required but
# unused when `--iterations` is given.
cargo build --release --offline --locked --manifest-path hostbench/Cargo.toml \
    --target-dir target/hostbench-check
# The benchmark's own unit tests, among them the pinned checksums of the
# sequential runs.
cargo test --release --offline --locked --manifest-path hostbench/Cargo.toml \
    --target-dir target/hostbench-check -q
target/hostbench-check/release/ncp2-hostbench --workload tier1-grid --seed 0 \
    --seconds 1 --iterations 1 --trace 0 --work-dir target/hostbench-work \
    > target/hostbench_grid.out
tail -n 1 target/hostbench_grid.out | grep -q '"correct": true'
cargo test -q

# Observability smoke: one observed run must pass its own conservation /
# determinism self-check and produce parseable exports.
OBS_OUT="${OBS_OUT:-target/obs-smoke}"
cargo run --release --bin obs_report -- \
    --app TSP --mode I+P+D --nprocs 4 --out-dir "$OBS_OUT" --selfcheck

# Critical-path smoke: the dependency graph must build, the conservation
# law (critical-path length == total cycles) must hold, and the what-if
# prediction must land inside the documented accuracy bound.
cargo run --release --bin critpath_report -- \
    --app TSP --no-cache --quiet --check --out "$OBS_OUT/critpath.json"

# Timeline smoke: the windowed time-series recorder plus the assertion
# engine. A congestion fault window must fire the retransmit-storm
# assertion inside the injected cycle range, the fault-free twin must fire
# nothing, and the archived JSON must be byte-identical across reruns.
cargo run --release --bin timeline_report -- \
    --check --no-cache --quiet --out-dir "$OBS_OUT"

# Service gate: the open-loop tail-latency matrix — every protocol mode at
# three offered loads, oracle-verified, checksum-invariant across modes and
# loads, p99(I+P+D) < p99(Base) at the highest pre-saturation load, the 1%
# frame-drop twin checksum-equal with bounded tail inflation, and the
# archived svc_report.json byte-identical across --jobs 1 and --jobs 8.
cargo run --release --bin svc_report -- --check --quiet --out-dir "$OBS_OUT"

# Chaos gate: every tier-1 workload under every protocol mode, faulted
# (drop + duplicate + corrupt + ack loss + a reordering latency spike) and
# fault-free. Checksums must match their fault-free twins, the verification
# oracle must stay silent, total cycles must stay within the bounded
# degradation budget, and the window-assertion engine must see the faults
# (>= 1 firing across the faulted runs, zero on any fault-free twin).
# Cache disabled: the gate must exercise the transport as built.
cargo run --release --bin chaos_report -- --check --no-cache --quiet

# Scale smoke: the 2..=256 doubling sweep of one scale workload (Ocean,
# under Base and I+P+D) with the verify oracle on proves the event heap,
# flat tables and indexed routing hold up at the full cluster size on every
# CI run. Cache disabled: a cached record carries no observation, so the
# critical-path tiling check would run on no run at all.
cargo run --release --bin fig01b_doubling -- --scale --app Ocean --no-cache --quiet

# Host-side profiling demo: one observed run with `--prof` (counting
# allocator in) must still pass the determinism self-check — host-phase
# attribution is wall-clock data and provably inert to everything simulated.
cargo run --release --features prof --bin obs_report -- \
    --app TSP --mode I+P+D --nprocs 4 --selfcheck --prof --quiet

# Allocation gate: with the counting allocator in, pooling must still cut
# Ocean@64's steady-state event-loop allocations, and the pooled count may
# not exceed its recorded ceiling. The plain `cargo test` above builds
# without the allocator, where this test only checks the counters are off.
cargo test --release --features prof -p ncp2-bench --test arena_inert

# The counting branches of ncp2-prof's own unit tests (counters, peak reset)
# run only with the allocator in; the plain `cargo test` runs the zero ones.
cargo test -q --release -p ncp2-prof --features prof

# Wall-clock trajectory: the microbench suite over the host hot paths, in
# the fast smoke configuration, gated against the committed baseline —
# median time may not double, exact allocation counts may not grow past
# 10%. Archived next to the other artifacts; refreshed in place after a
# pass so the baseline tracks the host the gate runs on. It runs last: its
# time gate depends on the host's speed, and a failure here must not keep
# the exact gates above from running.
cargo run --release --features prof --bin wall_bench -- \
    --fast --out "$OBS_OUT/wall_report.json"
cargo xtask wall-diff BENCH_WALL.json "$OBS_OUT/wall_report.json" --update
