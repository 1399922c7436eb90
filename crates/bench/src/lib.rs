//! # smdb-bench — experiment harness and benchmarks
//!
//! Shared setup for the `experiments` binary (which regenerates every
//! experiment table E1–E11 listed in `DESIGN.md` §5), the `calibrate`
//! binary (measured kernel timings + cost-model calibration) and the
//! Criterion benches.

pub mod calibrate;
pub mod experiments;
pub mod gate;
pub mod report;
pub mod setup;
pub mod table;

pub use setup::*;
pub use table::TableBuilder;

/// Parses a numeric command-line value for the bench binaries; an
/// invalid number prints `{name}: invalid number {value}` and exits
/// with status 2.
pub fn parse_num<T: std::str::FromStr>(value: &str, name: &str) -> T {
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{name}: invalid number {value}");
            std::process::exit(2);
        }
    }
}
