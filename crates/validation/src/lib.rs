//! # sqlsem-validation
//!
//! The experimental validation machinery of §4: the correctness
//! criterion ([`compare()`]) and the differential harness
//! ([`run_validation`]) that compares the formal semantics against a
//! candidate backend — driven end to end through the `Session` API —
//! on randomly generated queries and databases: the reproduction of
//! the paper's 100,000-query experiment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod harness;

pub use compare::{
    compare, compare_with_order, ordered_comparison, OrderedComparison, Outcome, Verdict,
};
pub use harness::{
    candidate_session, iteration_case, iteration_rng, run_validation, session_outcome, via_storage,
    DialectStats, Disagreement, ValidationConfig, ValidationReport,
};
