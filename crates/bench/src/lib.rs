//! # pnbbst-bench — benchmark harness for the PNB-BST reproduction
//!
//! One entry point runs every experiment definition:
//! `cargo run --release -p pnbbst-bench --bin experiments [-- --quick]
//! [-- e1 e3 ...]` — the timed setbench-style sweeps that regenerate
//! the EXPERIMENTS.md tables (ops/sec at fixed wall-clock duration).
//!
//! The E7, E8r and E9 counters come from the trees', the collector's and
//! the arena's always-on counters: every build counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod experiments;
