//! Integration tests for durable connections
//! (`SharedDatabase::open(dir)?.connect()`): every mutating statement
//! is WAL-logged and fsynced before it is acknowledged, so dropping the
//! connection and reopening the same directory recovers exactly the
//! committed state — schema, rows (in order, duplicates preserved), and
//! index definitions.

use std::collections::BTreeMap;

use sqlsem_core::Value;
use sqlsem_session::{Connection, SharedDatabase, SqlsemError, StatementResult};
use sqlsem_storage::fresh_temp_dir;

/// Runs `f` against a fresh storage directory and removes it afterwards
/// (even when `f` panics the directory is in the temp dir, so leaks are
/// bounded to the test run).
fn with_dir(tag: &str, f: impl FnOnce(&std::path::Path)) {
    let dir = fresh_temp_dir(tag);
    f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

fn open(dir: &std::path::Path) -> Connection {
    SharedDatabase::open(dir).expect("storage opens").connect()
}

#[test]
fn durable_round_trip_recovers_tables_rows_and_indexes() {
    with_dir("session_round_trip", |dir| {
        let mut s = open(dir);
        s.run_script(
            "CREATE TABLE R (A, B);
             INSERT INTO R VALUES (1, 'x'), (1, 'x'), (NULL, 'y');
             CREATE INDEX r_a_idx ON R (A);",
        )
        .expect("setup script runs");
        drop(s);

        let mut s = open(dir);
        // Rows back, duplicates and NULLs included, in insertion order.
        let rows = s.execute("SELECT R.A, R.B FROM R").unwrap();
        let table = rows.rows().expect("a query returns rows");
        let got: Vec<Vec<Value>> = table.rows().map(|r| r.values().to_vec()).collect();
        assert_eq!(
            got,
            vec![
                vec![Value::from(1), Value::from("x")],
                vec![Value::from(1), Value::from("x")],
                vec![Value::Null, Value::from("y")],
            ]
        );
        // The index definition survived and the optimizer can use it.
        let defs: Vec<String> =
            s.database().indexes().iter().map(|i| i.def().name.to_string()).collect();
        assert_eq!(defs, ["r_a_idx"]);
        let plan = s.execute("EXPLAIN SELECT R.B FROM R WHERE R.A = 1").unwrap();
        let plan = plan.plan().expect("EXPLAIN returns a plan").to_string();
        assert!(plan.contains("IndexScan idx=r_a_idx"), "{plan}");
    });
}

#[test]
fn drop_index_is_durable_too() {
    with_dir("session_drop_index", |dir| {
        let mut s = open(dir);
        let results = s
            .run_script(
                "CREATE TABLE R (A);
                 CREATE INDEX r_a_idx ON R (A);
                 DROP INDEX r_a_idx;",
            )
            .unwrap();
        assert_eq!(results[1], StatementResult::IndexCreated("r_a_idx".into()));
        assert_eq!(results[1].tag(), "CREATE INDEX");
        assert_eq!(results[2], StatementResult::IndexDropped("r_a_idx".into()));
        assert_eq!(results[2].tag(), "DROP INDEX");
        drop(s);

        let s = open(dir);
        assert!(s.database().indexes().is_empty());
    });
}

/// Every file in the store, by name, with its bytes.
fn store_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (entry.file_name().to_string_lossy().into_owned(), std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

#[test]
fn forks_of_a_durable_connection_never_write_to_the_store() {
    with_dir("session_fork_detaches", |dir| {
        let mut s = open(dir);
        s.execute("CREATE TABLE R (A)").unwrap();
        let before = store_files(dir);

        // A fork keeps working on a private copy without touching the store.
        let mut fork = s.fork();
        assert!(fork.shared_database().is_none());
        fork.run_script("CREATE TABLE OnlyInFork (B); INSERT INTO R VALUES (1)").unwrap();
        assert_eq!(store_files(dir), before, "the fork wrote to the store");

        // A clone is one more caller of the same durable database.
        let mut clone = s.clone();
        assert!(clone.shared_database().is_some());
        clone.execute("CREATE TABLE ViaClone (C)").unwrap();
        drop((fork, clone, s));

        let s = open(dir);
        assert!(s.schema().attributes("OnlyInFork").is_none());
        assert!(s.schema().attributes("ViaClone").is_some());
        assert!(s.database().table("R").unwrap().is_empty());
    });
}

#[test]
fn storage_failures_surface_as_storage_errors() {
    with_dir("session_bad_dir", |dir| {
        // A file where the storage directory should be: open must fail
        // cleanly, not panic.
        std::fs::create_dir_all(dir).unwrap();
        let file = dir.join("not_a_dir");
        std::fs::write(&file, b"occupied").unwrap();
        let err = SharedDatabase::open(&file).unwrap_err();
        assert!(matches!(err, SqlsemError::Storage { .. }), "{err}");
        assert_eq!(err.sql(), "");
    });
}
