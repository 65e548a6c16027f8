//! One execution interface over the workspace's five evaluators.
//!
//! The paper's whole point is that a single formal semantics stands
//! behind many consumers; this module is the code-level rendering of
//! that idea. The five ways the workspace can run a query — the
//! denotational spec interpreter ([`sqlsem_core::Evaluator`]), the
//! engine with its optimizer disabled, the engine with it enabled, the
//! engine driving its plans through the columnar batch executor, and
//! the adaptive dispatcher choosing between the last two per query —
//! are selected by the [`Backend`] enum, so that the `Session` API, the
//! §4 harness and the optimizer gauntlet can all swap evaluation
//! strategies without touching any other code. The four engine
//! backends map to engine settings in one place,
//! [`Engine::with_backend`].

use std::fmt;
use std::str::FromStr;

use sqlsem_core::{
    Database, Dialect, EvalError, Evaluator, LogicMode, PredicateRegistry, Query, Table,
};

use crate::Engine;

/// Which of the five evaluators a session (or harness) runs queries with.
///
/// All five implement the same semantics — the optimizer gauntlet's
/// standing result is that they are indistinguishable under the paper's
/// coincidence criterion — but they differ in pedigree and speed:
///
/// * [`Backend::SpecInterpreter`] is the executable specification
///   (Figures 4–7, environments and all), naive by design;
/// * [`Backend::NaiveEngine`] is the independent positional-plan engine
///   with its optimizer off — the §4 oracle stand-in;
/// * [`Backend::OptimizedEngine`] adds predicate pushdown, hash
///   equi-joins, subquery caching and `EXISTS` early exit;
/// * [`Backend::VectorizedEngine`] runs the optimized plans
///   batch-at-a-time through the columnar executor
///   ([`crate::vexec::VecExecutor`]);
/// * [`Backend::Adaptive`] (the default) dispatches per query: the
///   vectorized executor over big inputs, the row engine below the
///   calibrated [`crate::ADAPTIVE_ROW_CUTOFF`], where batch setup
///   overhead dominates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The denotational interpreter `⟦·⟧` of `sqlsem-core`.
    SpecInterpreter,
    /// The physical-plan engine, optimizations off.
    NaiveEngine,
    /// The physical-plan engine, optimizations on.
    OptimizedEngine,
    /// The physical-plan engine with optimizations on, executed
    /// batch-at-a-time over columnar batches.
    VectorizedEngine,
    /// Per-query dispatch between the optimized row engine and the
    /// vectorized executor, by estimated input size (the default).
    #[default]
    Adaptive,
}

impl Backend {
    /// All backends, for exhaustive differential sweeps.
    pub const ALL: [Backend; 5] = [
        Backend::SpecInterpreter,
        Backend::NaiveEngine,
        Backend::OptimizedEngine,
        Backend::VectorizedEngine,
        Backend::Adaptive,
    ];

    /// Runs `query` over `db` with this backend, configured with the
    /// given dialect, logic mode and predicate registry.
    pub fn execute(
        self,
        db: &Database,
        dialect: Dialect,
        logic: LogicMode,
        preds: &PredicateRegistry,
        query: &Query,
    ) -> Result<Table, EvalError> {
        match self {
            Backend::SpecInterpreter => Evaluator::new(db)
                .with_dialect(dialect)
                .with_logic(logic)
                .with_predicates(preds.clone())
                .eval(query),
            _ => Engine::new(db)
                .with_dialect(dialect)
                .with_logic(logic)
                .with_predicates(preds.clone())
                .with_backend(self)
                .execute(query),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::SpecInterpreter => "spec",
            Backend::NaiveEngine => "naive",
            Backend::OptimizedEngine => "optimized",
            Backend::VectorizedEngine => "vectorized",
            Backend::Adaptive => "adaptive",
        })
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parses the `--backend` spelling used by the experiment binaries:
    /// `spec`, `naive`, `optimized`, `vectorized` or `adaptive`. The
    /// storage round trip is not a backend: the optimizer gauntlet's
    /// `--via-storage` flag applies it to the database under any of
    /// these.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spec" | "spec-interpreter" | "interpreter" => Ok(Backend::SpecInterpreter),
            "naive" | "naive-engine" => Ok(Backend::NaiveEngine),
            "optimized" | "optimized-engine" | "engine" => Ok(Backend::OptimizedEngine),
            "vectorized" | "vectorized-engine" | "vec" => Ok(Backend::VectorizedEngine),
            "adaptive" | "auto" => Ok(Backend::Adaptive),
            other => Err(format!(
                "unknown backend {other:?}: expected spec, naive, optimized, \
                 vectorized or adaptive"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlsem_core::{table, Schema, Value};

    fn example1() -> (Schema, Database) {
        let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
        let mut db = Database::new(schema.clone());
        db.replace_table("R", table! { ["A"]; [1], [Value::Null] }).unwrap();
        db.replace_table("S", table! { ["A"]; [Value::Null] }).unwrap();
        (schema, db)
    }

    #[test]
    fn all_backends_agree_on_example1() {
        let (schema, db) = example1();
        let q = sqlsem_parser::compile(
            "SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)",
            &schema,
        )
        .unwrap();
        let preds = PredicateRegistry::new();
        for backend in Backend::ALL {
            let out = backend
                .execute(&db, Dialect::Standard, LogicMode::ThreeValued, &preds, &q)
                .unwrap();
            assert!(out.is_empty(), "{backend}: {out}");
        }
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("spec".parse::<Backend>().unwrap(), Backend::SpecInterpreter);
        assert_eq!("NAIVE".parse::<Backend>().unwrap(), Backend::NaiveEngine);
        assert_eq!("optimized".parse::<Backend>().unwrap(), Backend::OptimizedEngine);
        assert_eq!("vectorized".parse::<Backend>().unwrap(), Backend::VectorizedEngine);
        assert_eq!("vec".parse::<Backend>().unwrap(), Backend::VectorizedEngine);
        assert_eq!("adaptive".parse::<Backend>().unwrap(), Backend::Adaptive);
        assert_eq!("auto".parse::<Backend>().unwrap(), Backend::Adaptive);
        // The storage round trip is a database fixture (the gauntlet's
        // `--via-storage`), not an evaluator, so it has no spelling here.
        for rejected in ["postgres", "persistent", "durable"] {
            assert!(rejected.parse::<Backend>().is_err(), "{rejected}");
        }
        for b in Backend::ALL {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert_eq!(Backend::default(), Backend::Adaptive);
    }
}
