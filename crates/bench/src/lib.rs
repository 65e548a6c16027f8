//! # sqlsem-bench
//!
//! Experiment binaries and Criterion benchmarks reproducing the paper's
//! evaluation. Each binary regenerates one paper artifact; see
//! `EXPERIMENTS.md` at the repository root for the index and the
//! paper-vs-measured record.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig1_truth_tables` | Figure 1 — the 3VL truth tables |
//! | `ex1_difference` | Example 1 — Q1/Q2/Q3 inequivalence under nulls, plus their §5 RA translations |
//! | `ex2_star_ambiguity` | Example 2 — `SELECT *` ambiguity per dialect |
//! | `tpch_calibration` | §4 — TPC-H shape statistics and derived generator parameters |
//! | `sec4_validation` | §4 — the randomised differential validation |
//! | `sec5_ra_equivalence` | §5 / Theorem 1 — SQL ≡ RA on random queries |
//! | `sec6_twovl` | §6 / Theorem 2 — 3VL ≡ 2VL on random queries |
//! | `optimizer_gauntlet` | beyond the paper — optimized engine vs spec interpreter vs naive engine, all `LogicMode` × dialect combinations |
//! | `join_scaling` | beyond the paper — hash-join vs naive-product scaling at 1×/10×/100× the §4 row cap (`--record` writes `BENCH_join_scaling.json`) |
//! | `concurrent_gauntlet` | beyond the paper — N writers × M readers over one `SharedDatabase`: snapshot reads vs the spec interpreter, serial replay of the commit log, all combinations |
//! | `saturation` | beyond the paper — the TCP server under 1/8/64 concurrent clients, read-heavy vs write-heavy, p50/p95 + throughput (`--record` writes `BENCH_saturation.json`) |
//!
//! Benchmarks (`cargo bench -p sqlsem-bench`) measure the cost of the
//! denotational interpreter against the independent engine and the
//! evaluated RA translation, plus microbenchmarks of the bag operations
//! and of the engine optimizer's rewrites (`join_scaling`).
//!
//! The [`baseline`] module is the `--check` guard that `join_scaling`
//! and `saturation` share against their committed baseline files.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;

use std::fmt::Display;
use std::str::FromStr;

/// Minimal `--flag value` argument parsing for the experiment binaries
/// (kept dependency-free on purpose): the value after the first `name`
/// in `args`, parsed, or `default` when `name` is absent. A flag with
/// no value, or a value that does not parse, is an error — never a
/// silent fall-back to the default.
pub fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: Display,
{
    let Some(at) = args.iter().position(|a| a == name) else { return Ok(default) };
    let value = args.get(at + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map_err(|e| format!("invalid value {value:?} for {name}: {e}"))
}

/// [`parse_arg`] over the process arguments; exits with status 2 on an
/// error, so a mistyped option cannot quietly run the default.
pub fn arg<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: Display,
{
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// `true` iff the bare flag is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::parse_arg;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arg_returns_default_when_absent() {
        assert_eq!(super::arg("--not-passed", 7usize), 7);
        assert!(!super::flag("--not-passed-either"));
        assert_eq!(parse_arg(&args(&["bin", "--seed", "3"]), "--queries", 7usize), Ok(7));
    }

    #[test]
    fn parse_arg_reads_the_value_after_the_flag() {
        let argv = args(&["bin", "--queries", "200", "--backend", "vec", "--queries", "9"]);
        assert_eq!(parse_arg(&argv, "--queries", 0usize), Ok(200));
        assert_eq!(parse_arg(&argv, "--backend", String::new()), Ok("vec".to_string()));
    }

    #[test]
    fn parse_arg_rejects_unparsable_and_missing_values() {
        let err = parse_arg(&args(&["bin", "--queries", "many"]), "--queries", 0usize).unwrap_err();
        assert!(err.contains("--queries") && err.contains("many"), "{err}");
        let backend = sqlsem_engine::Backend::OptimizedEngine;
        let err = parse_arg(&args(&["bin", "--backend", "persistent"]), "--backend", backend);
        assert!(err.unwrap_err().contains("unknown backend"));
        let err = parse_arg(&args(&["bin", "--dump"]), "--dump", String::new()).unwrap_err();
        assert_eq!(err, "--dump needs a value");
    }
}
