//! # pnbbst-bench — benchmark harness for the PNB-BST reproduction
//!
//! One entry point runs every experiment definition:
//! `cargo run --release -p pnbbst-bench --bin experiments [-- --quick]
//! [-- e1 e3 ...]` — the timed setbench-style sweeps that regenerate
//! the EXPERIMENTS.md tables (ops/sec at fixed wall-clock duration).
//!
//! The `stats` feature forwards to `pnb-bst/stats` and populates the E7
//! ablation counters; it is off by default so shared counters cannot
//! perturb the scalability numbers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod experiments;
