//! Wall-clock microbench binary: runs the [`ncp2_bench::wallbench`] suite,
//! prints one line per bench and (with `--out FILE`) writes the wall report
//! consumed by `cargo xtask wall-diff`.
//!
//! Flags:
//!
//! * `--out FILE` — write the suite's results as deterministic JSON (the
//!   `BENCH_WALL.json` format) as well as printing them.
//! * `--fast` — 5 samples, a 100 ms measurement budget and a 30 ms warm-up
//!   per bench (instead of 20, 1 s and 300 ms) for CI smoke runs.
//!
//! Build with `--features prof` to install the counting allocator; without
//! it the report still carries median wall times but `alloc_counting` is
//! false and every allocation column is zero.

use ncp2_bench::harness::{write_file, Opts};

fn main() {
    let o = Opts::parse_standalone(&["--fast", "--out"]);
    let report = ncp2_bench::wallbench::run(o.fast);
    if let Some(path) = &o.out {
        write_file(path, &report.to_json());
        println!(
            "wall_bench: wrote {} bench(es) to {}",
            report.benches.len(),
            path.display()
        );
    }
}
