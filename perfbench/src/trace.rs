//! Spans and the per-layer replays of a traced run.
//!
//! The program carries no instrumentation of its own: every span here
//! wraps the benchmark's own call into one layer's public function.
//! Reads are replayed statement by statement on the snapshot the
//! workload read (parse → annotate → compile → optimize → execute →
//! render); writes are replayed by feeding the same [`WalOp`]s through a
//! standalone [`Storage`] and a copy of the master database, in the
//! batches the commit queue formed. Spans stay in memory and are
//! written out when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sqlsem_core::{Database, Dialect, LogicMode, PredicateRegistry, Row, Table, Value};
use sqlsem_engine::{compile_plan, optimize, Engine, Executor, VecExecutor, DEFAULT_BATCH_SIZE};
use sqlsem_parser::{annotate_statement, parse_statement, Statement};
use sqlsem_server::{Client, ServerBuilder};
use sqlsem_session::{SharedDatabase, StatementResult};
use sqlsem_storage::{Storage, WalOp, DEFAULT_CHECKPOINT_THRESHOLD};

/// One timed call: which layer, which statement, and the span that
/// caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub class: &'static str,
    pub stmt: u64,
    pub thread: u8,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder, one per thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    thread: u8,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant, thread: u8) -> Tracer {
        Tracer { t0, thread, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        class: &'static str,
        stmt: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            class,
            stmt,
            thread: self.thread,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        class: &'static str,
        stmt: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, class, stmt, parent, start, Instant::now());
        out
    }

    /// Opens a parent span; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, class: &'static str, stmt: u64) -> usize {
        let now = Instant::now();
        self.record(name, class, stmt, None, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.ns(Instant::now());
    }
}

/// What replaying one read produced.
pub struct ReadOut {
    /// The result as `StatementResult`'s `Display` renders it.
    pub rendered: String,
    pub result_rows: usize,
    /// `Executor::rows_produced`, when the row engine ran the plan.
    pub produced: Option<usize>,
}

/// Replays one query through each read-path layer on `db`, choosing
/// the executor the default (adaptive) backend would choose.
pub fn replay_read(
    tr: &mut Tracer,
    class: &'static str,
    stmt: u64,
    sql: &str,
    db: &Database,
) -> Result<ReadOut, String> {
    let root = tr.open("replay.read", class, stmt);
    let p = Some(root);
    let surface = tr
        .time("parser.parse", class, stmt, p, || parse_statement(sql))
        .map_err(|e| e.to_string())?;
    let statement = tr
        .time("parser.annotate", class, stmt, p, || annotate_statement(&surface, db.schema()))
        .map_err(|e| e.to_string())?;
    let Statement::Query(query) = statement else {
        return Err(format!("not a query: {sql}"));
    };
    let compiled = tr
        .time("engine.compile", class, stmt, p, || compile_plan(&query, db, Dialect::Standard))
        .map_err(|e| e.to_string())?;
    let prepared = tr.time("engine.optimize", class, stmt, p, || optimize(compiled, db));
    // The dispatch decision as EXPLAIN reports it — no copy of the rule.
    let vectorized = Engine::new(db)
        .with_adaptive(true)
        .explain_prepared(&prepared)
        .starts_with("dispatch: [adaptive: vectorized");
    let preds = PredicateRegistry::new();
    let (rows, produced) = if vectorized {
        let mut exec = VecExecutor::new(db, LogicMode::ThreeValued, &preds, DEFAULT_BATCH_SIZE);
        let rows = tr.time("engine.exec_vec", class, stmt, p, || exec.run(&prepared.plan));
        (rows.map_err(|e| e.to_string())?, None)
    } else {
        let mut exec = Executor::new(db, LogicMode::ThreeValued, &preds);
        let rows = tr.time("engine.exec_row", class, stmt, p, || exec.run(&prepared.plan));
        (rows.map_err(|e| e.to_string())?, Some(exec.rows_produced()))
    };
    let table = Table::with_rows(prepared.columns.clone(), rows).map_err(|e| e.to_string())?;
    let result_rows = table.len();
    let result = StatementResult::Rows(table);
    let rendered = tr.time("session.render", class, stmt, p, || result.to_string());
    tr.close(root);
    Ok(ReadOut { rendered, result_rows, produced })
}

/// Replays the text-side layers of a write: parse and annotate.
pub fn replay_write_text(
    tr: &mut Tracer,
    class: &'static str,
    stmt: u64,
    sql: &str,
    db: &Database,
) -> Result<(), String> {
    let surface = tr
        .time("parser.parse", class, stmt, None, || parse_statement(sql))
        .map_err(|e| e.to_string())?;
    tr.time("parser.annotate", class, stmt, None, || annotate_statement(&surface, db.schema()))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The commit path without the queue: a standalone [`Storage`] and a
/// copy of the master, fed the committed ops batch by batch the way the
/// commit queue's leader does (apply + log per op, one fsync, maybe a
/// checkpoint, one publish).
pub struct WriteReplay {
    master: Database,
    /// The last published snapshot. Holding it keeps the master's
    /// tables shared, so each apply pays the copy-on-write copy the
    /// live system pays while readers hold snapshots.
    live: Arc<Database>,
    storage: Storage,
    pub checkpoints: u64,
    pub wal_bytes: u64,
    pub rows: u64,
}

/// Makes `db` the durable, checkpointed state of `dir`, returning the
/// open store.
pub fn persist(db: &Database, dir: &Path) -> Result<Storage, String> {
    let (mut storage, _) = Storage::open(dir).map_err(|e| e.to_string())?;
    storage.save_all(db).map_err(|e| e.to_string())?;
    storage.checkpoint(db).map_err(|e| e.to_string())?;
    Ok(storage)
}

impl WriteReplay {
    /// Starts from `db`, made durable (and checkpointed) in `dir`.
    pub fn new(db: &Database, dir: &Path) -> Result<WriteReplay, String> {
        Ok(WriteReplay {
            master: db.clone(),
            live: Arc::new(db.clone()),
            storage: persist(db, dir)?,
            checkpoints: 0,
            wal_bytes: 0,
            rows: 0,
        })
    }

    /// Replays one commit batch: `(statement id, op)` in commit order.
    pub fn batch(
        &mut self,
        tr: &mut Tracer,
        class: &'static str,
        ops: &[(u64, WalOp)],
    ) -> Result<(), String> {
        let Some(&(first, _)) = ops.first() else {
            return Ok(());
        };
        for (stmt, op) in ops {
            let WalOp::Append { table, rows } = op else {
                return Err("the replay only carries appends".into());
            };
            let master = &mut self.master;
            tr.time("core.apply", class, *stmt, None, || {
                master.append_rows(table.clone(), rows.iter().cloned())
            })
            .map_err(|e| e.to_string())?;
            let before = self.storage.wal_len();
            let storage = &mut self.storage;
            tr.time("storage.wal_append", class, *stmt, None, || storage.log(op))
                .map_err(|e| e.to_string())?;
            self.wal_bytes += self.storage.wal_len() - before;
            self.rows += rows.len() as u64;
        }
        let storage = &mut self.storage;
        tr.time("storage.fsync", class, first, None, || storage.commit())
            .map_err(|e| e.to_string())?;
        let before = self.storage.wal_len();
        let start = Instant::now();
        self.storage
            .maybe_checkpoint(&self.master, DEFAULT_CHECKPOINT_THRESHOLD)
            .map_err(|e| e.to_string())?;
        if self.storage.wal_len() < before {
            tr.record("storage.checkpoint", class, first, None, start, Instant::now());
            self.checkpoints += 1;
        }
        let master = &self.master;
        self.live = tr.time("core.publish", class, first, None, || Arc::new(master.clone()));
        Ok(())
    }

    /// A checkpoint of the replay's current state, timed — for
    /// workloads whose WAL never reaches the threshold by itself. Its
    /// class is `forced`, so it is not charged to any commit.
    pub fn forced_checkpoint(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let (storage, master) = (&mut self.storage, &self.master);
        tr.time("storage.checkpoint", "forced", 0, None, || storage.checkpoint(master))
            .map_err(|e| e.to_string())
    }
}

/// Bytes of user data in `db`: 8 per integer or Boolean, the length of
/// each string, nothing for NULL.
pub fn user_bytes(db: &Database) -> u64 {
    let mut total = 0u64;
    for (name, _) in db.schema().iter() {
        if let Some(t) = db.stored_table(name.as_str()) {
            for row in t.rows() {
                for v in row.iter() {
                    total += match v {
                        Value::Null => 0,
                        Value::Bool(_) | Value::Int(_) => 8,
                        Value::Str(s) => s.len() as u64,
                    };
                }
            }
        }
    }
    total
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Timed recovery: reopens a durable directory.
pub fn timed_recovery(
    tr: &mut Tracer,
    class: &'static str,
    dir: &Path,
) -> Result<SharedDatabase, String> {
    tr.time("storage.recovery", class, 0, None, || SharedDatabase::open(dir))
        .map_err(|e| e.to_string())
}

/// Rows in the probe table.
const PROBE_ROWS: i64 = 64;

/// Measures every layer once on a tiny database of its own, so a
/// workload that bypasses a layer still reports a measured value for
/// it (marked `probe` in the report, and predicted not to move that
/// workload's end-to-end metrics). Returns the per-layer counts.
pub fn probe_layers(tr: &mut Tracer, dir: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    const CLASS: &str = "probe";
    let mut db = Database::new(sqlsem_core::Schema::default());
    db.create_table("P", ["K", "V"]).map_err(|e| e.to_string())?;
    let rows: Vec<Row> =
        (0..PROBE_ROWS).map(|k| Row::new(vec![Value::Int(k), Value::Int(k % 8)])).collect();
    db.append_rows("P", rows).map_err(|e| e.to_string())?;
    db.create_index("P_K", "P", ["K"]).map_err(|e| e.to_string())?;
    let mut counts = BTreeMap::new();

    // Read path: an indexed point read and a self-join (row engine).
    let mut produced = 0usize;
    let mut results = 0usize;
    for i in 0..10u64 {
        let sql = if i % 2 == 0 {
            format!("SELECT P.V AS v FROM P WHERE P.K = {i}")
        } else {
            "SELECT COUNT(*) AS n FROM P x, P y WHERE x.V = y.V".to_string()
        };
        let out = replay_read(tr, CLASS, i, &sql, &db)?;
        produced += out.produced.unwrap_or(0);
        results += out.result_rows;
    }
    counts.insert("engine.rows_per_result", produced as f64 / results.max(1) as f64);

    // Commit path: single-row INSERTs through a durable shared
    // database, then the same ops through the standalone replay.
    let live_dir = dir.join("live");
    drop(persist(&db, &live_dir)?);
    let shared = SharedDatabase::open(&live_dir).map_err(|e| e.to_string())?;
    let mut conn = shared.connect();
    let mut replay = WriteReplay::new(&db, &dir.join("replay"))?;
    let v0 = shared.version();
    const WRITES: u64 = 10;
    for i in 0..WRITES {
        let k = PROBE_ROWS + i as i64;
        let sql = format!("INSERT INTO P VALUES ({k}, {})", k % 8);
        replay_write_text(tr, CLASS, 100 + i, &sql, &db)?;
        tr.time("session.commit", CLASS, 100 + i, None, || conn.execute(&sql))
            .map_err(|e| e.to_string())?;
        let op = WalOp::Append {
            table: "P".into(),
            rows: vec![Row::new(vec![Value::Int(k), Value::Int(k % 8)])],
        };
        replay.batch(tr, CLASS, &[(100 + i, op)])?;
    }
    counts
        .insert("session.commit_batch_size", WRITES as f64 / (shared.version() - v0).max(1) as f64);
    counts.insert("storage.wal_bytes_per_row", replay.wal_bytes as f64 / replay.rows.max(1) as f64);
    replay.forced_checkpoint(tr)?;
    counts.insert("storage.checkpoints", replay.checkpoints as f64);

    // The wire: empty-line round trips against a server on the probe.
    {
        let server = ServerBuilder::new()
            .with_shared(&shared)
            .bind("127.0.0.1:0")
            .map_err(|e| e.to_string())?;
        let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        for i in 0..20u64 {
            tr.time("server.rtt", CLASS, 200 + i, None, || client.send(""))
                .map_err(|e| e.to_string())?;
        }
        drop(client);
        server.shutdown();
    }

    // Space and restart.
    shared.checkpoint().map_err(|e| e.to_string())?;
    let user = user_bytes(&shared.snapshot());
    drop(conn);
    drop(shared);
    counts.insert(
        "storage.disk_bytes_per_user_byte",
        dir_bytes(&live_dir) as f64 / user.max(1) as f64,
    );
    let reopened = timed_recovery(tr, CLASS, &live_dir)?;
    let n = reopened.snapshot().stored_table("P").map_or(0, Table::len);
    if n != (PROBE_ROWS as u64 + WRITES) as usize {
        return Err(format!("probe recovered {n} rows"));
    }
    Ok(counts)
}

/// Appends one thread's spans to `into`, re-basing parent indices.
pub fn merge(into: &mut Vec<Span>, from: Vec<Span>) {
    let base = into.len();
    into.extend(from.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}
