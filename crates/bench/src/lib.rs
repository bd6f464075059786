//! # ncp2-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`). All of them
//! declare their runs as a [`engine::Grid`] and execute it on the parallel
//! [`engine::Engine`] (work-queue over `std::thread`, one fresh simulation
//! per grid point, content-hashed result caching under `results/cache/`).
//! The shared command-line parser lives in [`harness`], the CI gates'
//! verdict plumbing in [`gate`], and the cache file format in [`cache`].

pub mod cache;
pub mod engine;
pub mod gate;
pub mod harness;
pub mod wallbench;
