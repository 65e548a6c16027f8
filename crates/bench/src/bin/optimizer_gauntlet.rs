//! The optimizer's differential gauntlet, driven through the unified
//! [`Session`] API: thousands of generated queries through a session
//! configured with the candidate backend (by default the **optimized**
//! engine — predicate pushdown, hash equi-joins, subquery caching,
//! `EXISTS` early exit) against two oracles, under every `LogicMode` ×
//! dialect combination:
//!
//! * the denotational interpreter (`sqlsem_core::Evaluator`) — the
//!   executable specification, under the §4 coincidence criterion;
//! * the engine's naive execution path (optimizations off) — the
//!   HoTTSQL-style discipline of justifying each rewrite against a
//!   semantics.
//!
//! Each candidate run goes end to end through the public pipeline —
//! the query is printed in the dialect's syntax and fed to
//! [`Session::execute`] as SQL text — so the gauntlet also proves the
//! `Session` redesign is semantics-preserving.
//!
//! The fixed prefix replays the paper's pitfall queries (Example 1's
//! three null-sensitive shapes, Example 2's ambiguous star) before the
//! random sweep. Exit status is non-zero on any disagreement.
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin optimizer_gauntlet -- \
//!     --queries 2000 --seed 1 --backend optimized
//! ```
//!
//! `--backend vectorized` runs the columnar executor as the candidate
//! and `--backend adaptive` the dispatching default; `--batch-size N`
//! then sets the batch granularity and `--threads N` the morsel worker
//! count (the nightly matrix sweeps batch sizes 1, 3 and 1024 and
//! thread counts 1, 2 and 8 to fuzz chunk boundaries and scheduling).
//!
//! `--via-storage` pushes every database (the pitfall one included)
//! through [`via_storage`] first — written to a temp-dir store,
//! reopened, recovery asserted exact, every table indexed on its first
//! column — so the candidate and both oracles run over crash-recovered
//! data with the IndexScan/IndexJoin rewrites live. It composes with
//! every `--backend`.

use sqlsem_bench::{arg, flag};
use sqlsem_core::{Dialect, Evaluator, LogicMode, Query, Schema};
use sqlsem_engine::{Backend, Engine};
use sqlsem_generator::paper_schema;
use sqlsem_session::Session;
use sqlsem_validation::{
    candidate_session, compare_with_order, iteration_case, ordered_comparison, session_outcome,
    via_storage, ValidationConfig, Verdict,
};

/// Example 1 and Example 2, the shapes whose null/ambiguity behaviour
/// the optimizations are most likely to disturb, plus the outer-join /
/// combinator shapes whose dangling-tuple padding is most sensitive to
/// the logic mode (over the pitfall data `R = {1, NULL}`, `S = {NULL}`,
/// `R.A = S.A` matches nothing under 3VL but matches the `NULL`s under
/// syntactic equality, flipping which side gets padded).
fn pitfall_cases() -> (Schema, Vec<Query>) {
    let schema = Schema::builder().table("R", ["A"]).table("S", ["A"]).build().unwrap();
    let sqls = [
        "SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)",
        "SELECT DISTINCT R.A FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.A = R.A)",
        "SELECT A FROM R EXCEPT SELECT A FROM S",
        "SELECT * FROM R x, S y WHERE x.A = y.A",
        "SELECT * FROM (SELECT R.A, R.A FROM R) AS T",
        "SELECT * FROM R LEFT JOIN S ON R.A = S.A",
        "SELECT * FROM R FULL OUTER JOIN S ON R.A = S.A",
        "SELECT COALESCE(S.A, R.A, 0) AS c FROM R LEFT JOIN S ON R.A < S.A",
        "SELECT CASE WHEN S.A IS NULL THEN 0 ELSE S.A END AS c \
         FROM R RIGHT JOIN S ON NULLIF(R.A, 1) = S.A",
    ];
    let queries = sqls.iter().map(|s| sqlsem_parser::compile(s, &schema).unwrap()).collect();
    (schema, queries)
}

/// The pitfall database is created through the session's own DDL/DML —
/// the zero-Rust-builder path the `Session` API exists for.
fn pitfall_db(schema: &Schema) -> sqlsem_core::Database {
    let mut session = Session::builder().with_schema(Schema::default()).build();
    session
        .run_script(
            "CREATE TABLE R (A); CREATE TABLE S (A); \
             INSERT INTO R VALUES (1), (NULL); INSERT INTO S VALUES (NULL);",
        )
        .expect("pitfall script executes");
    assert_eq!(session.schema(), schema, "script-built schema matches the compiled queries'");
    session.database().clone()
}

struct Tally {
    dialect: Dialect,
    logic: LogicMode,
    vs_spec: usize,
    vs_naive: usize,
    disagreements: usize,
}

/// Writes a disagreement dump — the SQL, the detail, and the full
/// database instance — for CI to upload as a workflow artifact.
fn dump_disagreement(dir: &str, index: usize, sql: &str, detail: &str, session: &Session) {
    let _ = std::fs::create_dir_all(dir);
    let mut text = format!("-- disagreement #{index}\n-- {detail}\n{sql}\n\n-- database dump\n");
    let db = session.database();
    for (table, _) in db.schema().iter() {
        if let Ok(t) = db.table(table) {
            text.push_str(&format!("-- {table} ({} rows)\n{t}\n", t.len()));
        }
    }
    let path = format!("{dir}/disagreement_{index}.txt");
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("could not write {path}: {e}");
    }
}

fn main() {
    let queries: usize = arg("--queries", 2_000);
    let seed: u64 = arg("--seed", 1);
    let rows: usize = arg("--rows", 8);
    let backend: Backend = arg("--backend", Backend::OptimizedEngine);
    let batch_size: usize = arg("--batch-size", 0);
    let batch_size = (batch_size > 0).then_some(batch_size);
    let threads: usize = arg("--threads", 0);
    let threads = (threads > 0).then_some(threads);
    let dump_dir: String = arg("--dump", String::new());
    // `--gen outer-join-heavy` switches the random sweep to the
    // outer-join-heavy generator preset (the nightly matrix runs it);
    // the default keeps the small TPC-H-calibrated shapes of `quick`.
    let gen_preset: String = arg("--gen", String::new());
    let storage = flag("--via-storage");
    let fixture = |db| if storage { via_storage(&db) } else { db };

    let combos: Vec<(Dialect, LogicMode)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| LogicMode::ALL.into_iter().map(move |l| (d, l)))
        .collect();
    let mut tallies: Vec<Tally> = combos
        .iter()
        .map(|(d, l)| Tally { dialect: *d, logic: *l, vs_spec: 0, vs_naive: 0, disagreements: 0 })
        .collect();
    let mut samples: Vec<String> = Vec::new();

    // The session is built once per database (below) and retargeted per
    // combination; query execution never mutates the database.
    let mut dumped = 0usize;
    let mut check = |tally: &mut Tally, query: &Query, session: &mut Session| {
        let (dialect, logic) = (tally.dialect, tally.logic);
        session.set_dialect(dialect);
        session.set_logic(logic);
        // Candidate: SQL text through the Session with the chosen backend.
        let sql = sqlsem_parser::to_sql(query, dialect);
        let candidate = session_outcome(session, &sql);
        // Ordered queries are compared as lists (prefix-equality under
        // ties); everything else under the §4 bag criterion.
        let order = ordered_comparison(query, session.schema());
        // Oracles: the spec interpreter and the naive engine, direct.
        let db = session.database();
        let spec = Evaluator::new(db).with_dialect(dialect).with_logic(logic).eval(query);
        let naive = Engine::new(db)
            .with_dialect(dialect)
            .with_logic(logic)
            .with_optimizations(false)
            .execute(query);
        for (oracle, outcome, count) in
            [("spec", &spec, &mut tally.vs_spec), ("naive", &naive, &mut tally.vs_naive)]
        {
            match compare_with_order(outcome, &candidate, order.as_ref()) {
                Verdict::AgreeResult | Verdict::AgreeError => *count += 1,
                Verdict::Disagree(detail) => {
                    tally.disagreements += 1;
                    let detail = format!("[{dialect} / {logic:?} vs {oracle}] {detail}");
                    if !dump_dir.is_empty() && dumped < 20 {
                        dumped += 1;
                        dump_disagreement(&dump_dir, dumped, &sql, &detail, session);
                    }
                    if samples.len() < 5 {
                        samples.push(format!("{detail}\n    {sql}"));
                    }
                }
            }
        }
    };

    let (pitfall_schema, pitfalls) = pitfall_cases();
    let mut pit_session =
        candidate_session(fixture(pitfall_db(&pitfall_schema)), backend, batch_size, threads);
    for tally in tallies.iter_mut() {
        for query in &pitfalls {
            check(tally, query, &mut pit_session);
        }
    }

    let schema = paper_schema();
    let mut config = ValidationConfig::quick(queries, seed);
    config.data_config.max_rows = rows;
    match gen_preset.as_str() {
        "" => {}
        "outer-join-heavy" => {
            config.query_config = sqlsem_generator::QueryGenConfig::outer_join_heavy();
        }
        other => {
            eprintln!("unknown --gen preset {other:?} (expected \"outer-join-heavy\")");
            std::process::exit(2);
        }
    }
    let start = std::time::Instant::now();
    for i in 0..queries {
        let (query, db) = iteration_case(&schema, &config, i);
        let mut session = candidate_session(fixture(db), backend, batch_size, threads);
        for tally in tallies.iter_mut() {
            check(tally, &query, &mut session);
        }
    }

    let batch_note = batch_size.map(|n| format!(", batch size {n}")).unwrap_or_default();
    let thread_note = threads.map(|n| format!(", threads {n}")).unwrap_or_default();
    let storage_note = if storage { " over storage-recovered, indexed databases" } else { "" };
    println!(
        "optimizer gauntlet: {} pitfall + {queries} random queries per combination \
         (candidate backend {backend}{batch_note}{thread_note} via Session{storage_note}, \
         seed {seed}, row cap {rows}) in {:.2?}\n",
        pitfalls.len(),
        start.elapsed()
    );
    let mut total_disagreements = 0;
    for t in &tallies {
        total_disagreements += t.disagreements;
        println!(
            "  {:<12} {:<22} vs-spec: {:>6}   vs-naive: {:>6}   disagree: {:>4}",
            t.dialect.to_string(),
            format!("{:?}", t.logic),
            t.vs_spec,
            t.vs_naive,
            t.disagreements
        );
    }
    for s in &samples {
        println!("  DISAGREEMENT {s}");
    }
    println!(
        "\nverdict: {}",
        if total_disagreements == 0 {
            "0 disagreements — optimizations are invisible under the coincidence criterion"
        } else {
            "DISAGREEMENTS FOUND"
        }
    );
    if total_disagreements > 0 {
        std::process::exit(1);
    }
}
