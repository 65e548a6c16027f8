//! # sqlsem-session
//!
//! The unified, stateful entry point to the sqlsem semantics stack.
//!
//! The paper's value is that *one* formal semantics stands behind many
//! consumers — validation, translation, optimization. This crate gives
//! that idea an API: a [`Session`] owns a database, is configured once
//! with a dialect (§4), a logic mode (§6) and an execution
//! [`Backend`], and from then on speaks SQL **text** end to end —
//! including the DDL/DML statement fragment (`CREATE TABLE`,
//! `DROP TABLE`, `INSERT INTO … VALUES`, `EXPLAIN`) — returning one
//! result type and one error type:
//!
//! ```
//! use sqlsem_session::Session;
//!
//! let mut session = Session::new();
//! session.execute("CREATE TABLE R (A)").unwrap();
//! session.execute("INSERT INTO R VALUES (1), (NULL)").unwrap();
//! let out = session
//!     .execute("SELECT DISTINCT R.A FROM R WHERE R.A NOT IN (SELECT R.A FROM R WHERE R.A IS NULL)")
//!     .unwrap();
//! // Example 1's NOT IN pitfall: NULL poisons the subquery, no rows.
//! assert!(out.rows().unwrap().is_empty());
//! ```
//!
//! The outer-join and null-combinator fragment works the same way —
//! a dangling row is padded with `NULL`s, and `CASE`/`COALESCE`
//! observe the padding:
//!
//! ```
//! use sqlsem_session::Session;
//!
//! let mut session = Session::new();
//! session
//!     .run_script(
//!         "CREATE TABLE R (A); CREATE TABLE S (A, C); \
//!          INSERT INTO R VALUES (1), (2); INSERT INTO S VALUES (1, 10);",
//!     )
//!     .unwrap();
//! let tagged = session
//!     .execute(
//!         "SELECT CASE WHEN S.A IS NULL THEN 0 ELSE S.A END AS tag, \
//!                 COALESCE(S.C, -1) AS c \
//!          FROM R LEFT JOIN S ON R.A = S.A",
//!     )
//!     .unwrap();
//! // R.A = 1 matches; R.A = 2 dangles and is padded with NULLs,
//! // which the combinators turn back into defaults.
//! use sqlsem_core::table;
//! assert!(tagged.rows().unwrap().coincides(&table! { ["tag", "c"]; [1, 10], [0, -1] }));
//! ```
//!
//! Swapping the execution strategy is a builder choice, not a rewrite:
//!
//! ```
//! use sqlsem_session::{Backend, Session};
//!
//! for backend in Backend::ALL {
//!     let mut s = Session::builder().with_backend(backend).build();
//!     s.execute("CREATE TABLE R (A)").unwrap();
//!     s.execute("INSERT INTO R VALUES (1), (2)").unwrap();
//!     let n = s.execute("SELECT COUNT(*) AS n FROM R").unwrap();
//!     assert_eq!(n.rows().unwrap().len(), 1);
//! }
//! ```
//!
//! ## Connections and sharing
//!
//! [`Session`] is an alias for [`Connection`]: the cheap per-caller
//! object carrying configuration (dialect × logic × backend) and the
//! prepared-statement identity. A connection is a snapshot — an
//! `Arc<Database>` its statements evaluate against — plus an optional
//! commit queue. Without one it **owns** its database (the
//! single-caller mode above) and writes into it copy-on-write. With
//! one it belongs to a [`SharedDatabase`]: a versioned MVCC cell many
//! connections use concurrently. Readers evaluate against lock-free
//! snapshots; every DDL/DML statement serializes through a group-commit
//! queue that applies each batch, publishes one new snapshot and — when
//! the cell was opened on a directory — WAL-logs and fsyncs the batch
//! once first (see [`SharedDatabase`] and `sqlsem-server` for the TCP
//! front end):
//!
//! ```
//! use sqlsem_session::SharedDatabase;
//!
//! let shared = SharedDatabase::in_memory();
//! let mut writer = shared.connect();
//! let mut reader = shared.connect();
//! writer.run_script("CREATE TABLE R (A); INSERT INTO R VALUES (1), (2)").unwrap();
//! let n = reader.execute("SELECT COUNT(*) AS n FROM R").unwrap();
//! assert_eq!(n.rows().unwrap().len(), 1);
//! ```
//!
//! Durability lives only there: a durable connection is
//! `SharedDatabase::open(dir)?.connect()` (see [`SharedDatabase::open`]),
//! and reopening the directory recovers every acknowledged statement.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod shared;

use std::fmt;
use std::sync::Arc;

use sqlsem_core::{
    Database, Dialect, EvalError, LogicMode, Name, PredicateRegistry, Query, Row, Schema, Span,
    Table, Value,
};
use sqlsem_engine::{Engine, Prepared, DEFAULT_BATCH_SIZE};
use sqlsem_parser::{annotate_statement, parse_script, parse_statement, Statement};
use sqlsem_storage::WalOp;

pub use error::SqlsemError;
pub use shared::SharedDatabase;
pub use sqlsem_engine::Backend;

/// Builder for [`Session`]: dialect × logic mode × backend, plus an
/// optional starting database and predicate registry.
///
/// ```
/// use sqlsem_core::{Dialect, LogicMode};
/// use sqlsem_session::{Backend, Session};
///
/// let session = Session::builder()
///     .with_dialect(Dialect::Oracle)
///     .with_logic(LogicMode::ThreeValued)
///     .with_backend(Backend::SpecInterpreter)
///     .build();
/// assert_eq!(session.dialect(), Dialect::Oracle);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    dialect: Dialect,
    logic: LogicMode,
    backend: Backend,
    preds: PredicateRegistry,
    db: Option<Database>,
    batch_size: Option<usize>,
    threads: usize,
    shared: Option<SharedDatabase>,
}

impl SessionBuilder {
    /// A builder with the defaults: Standard dialect, three-valued
    /// logic, adaptive backend, empty schema.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Selects the dialect (§4 adjustments).
    #[must_use]
    pub fn with_dialect(mut self, dialect: Dialect) -> Self {
        self.dialect = dialect;
        self
    }

    /// Selects the logic mode (§6).
    #[must_use]
    pub fn with_logic(mut self, logic: LogicMode) -> Self {
        self.logic = logic;
        self
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Provides user predicates (the open collection `P` of §2).
    #[must_use]
    pub fn with_predicates(mut self, preds: PredicateRegistry) -> Self {
        self.preds = preds;
        self
    }

    /// Sets the batch granularity of [`Backend::VectorizedEngine`]
    /// (rows per columnar batch; clamped to at least 1). Ignored by the
    /// other backends. Every batch size computes the same results —
    /// the flag exists so harnesses can fuzz chunk boundaries.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size.max(1));
        self
    }

    /// Sets the worker-thread count for the vectorized executor's
    /// speculation-safe stages (`0` = one worker per available core,
    /// `1` = pinned sequential). Ignored by the row backends. Every
    /// thread count computes the same results in the same order — the
    /// flag exists for calibration and for harnesses that fuzz
    /// scheduling.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Seeds the session with an existing database (schema and data) —
    /// the bridge from the direct-crate-access flow.
    #[must_use]
    pub fn with_database(mut self, db: Database) -> Self {
        self.db = Some(db);
        self
    }

    /// Seeds the session with a schema over which every table is empty.
    #[must_use]
    pub fn with_schema(mut self, schema: Schema) -> Self {
        self.db = Some(Database::new(schema));
        self
    }

    /// Connects the session to an existing [`SharedDatabase`] instead
    /// of an owned one: reads evaluate against lock-free snapshots of
    /// the shared state, and every DDL/DML statement serializes through
    /// its commit queue. This is also how a connection becomes durable:
    /// `SharedDatabase::open(dir)` owns the store. Mutually exclusive
    /// with [`SessionBuilder::with_database`] /
    /// [`SessionBuilder::with_schema`] (a shared database is seeded
    /// when it is created) — [`SessionBuilder::try_build`] reports the
    /// conflict as [`SqlsemError::Config`].
    #[must_use]
    pub fn with_shared(mut self, shared: &SharedDatabase) -> Self {
        self.shared = Some(shared.clone());
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if [`SessionBuilder::with_shared`] was combined with
    /// [`SessionBuilder::with_database`] or
    /// [`SessionBuilder::with_schema`] — use
    /// [`SessionBuilder::try_build`] to handle that conflict.
    pub fn build(self) -> Session {
        self.try_build().expect("session configuration is consistent")
    }

    /// Finishes the builder, reporting a seed database combined with a
    /// shared one as [`SqlsemError::Config`] instead of panicking.
    pub fn try_build(self) -> Result<Session, SqlsemError> {
        let (snap, version) = match (&self.shared, self.db) {
            (Some(_), Some(_)) => {
                return Err(SqlsemError::config(
                    "with_shared and with_database/with_schema are mutually exclusive: \
                     a shared database is seeded when it is created",
                ))
            }
            (Some(shared), None) => shared.snapshot_versioned(),
            (None, db) => (Arc::new(db.unwrap_or_else(|| Database::new(Schema::default()))), 0),
        };
        Ok(Connection {
            snap,
            version,
            shared: self.shared,
            pinned: false,
            dialect: self.dialect,
            logic: self.logic,
            backend: self.backend,
            preds: self.preds,
            batch_size: self.batch_size.unwrap_or(DEFAULT_BATCH_SIZE),
            threads: self.threads,
            id: NEXT_SESSION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            epoch: 0,
        })
    }
}

/// The result of executing one statement: rows for queries, a plan for
/// `EXPLAIN`, and psql-style acknowledgements for DDL/DML.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum StatementResult {
    /// A query's output bag.
    Rows(Table),
    /// An `EXPLAIN` rendering of the statement's execution plan.
    Explained(String),
    /// `CREATE TABLE` succeeded.
    Created(Name),
    /// `DROP TABLE` succeeded.
    Dropped(Name),
    /// `INSERT` appended this many rows.
    Inserted {
        /// The target table.
        table: Name,
        /// Number of rows appended.
        rows: usize,
    },
    /// `CREATE INDEX` succeeded.
    IndexCreated(Name),
    /// `DROP INDEX` succeeded.
    IndexDropped(Name),
}

impl StatementResult {
    /// The output table, when the statement was a query.
    pub fn rows(&self) -> Option<&Table> {
        match self {
            StatementResult::Rows(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the result into the output table, when the statement was
    /// a query.
    pub fn into_rows(self) -> Option<Table> {
        match self {
            StatementResult::Rows(t) => Some(t),
            _ => None,
        }
    }

    /// The rendered plan, when the statement was an `EXPLAIN`.
    pub fn plan(&self) -> Option<&str> {
        match self {
            StatementResult::Explained(p) => Some(p),
            _ => None,
        }
    }

    /// Number of rows the statement changed: the appended count for an
    /// `INSERT`, `0` for queries, `EXPLAIN` and DDL — so wire protocols
    /// and the REPL can report mutation sizes without matching on
    /// variants.
    pub fn rows_affected(&self) -> usize {
        match self {
            StatementResult::Inserted { rows, .. } => *rows,
            _ => 0,
        }
    }

    /// A psql-style command tag: `SELECT 3`, `CREATE TABLE`, `INSERT 0 2`…
    pub fn tag(&self) -> String {
        match self {
            StatementResult::Rows(t) => format!("SELECT {}", t.len()),
            StatementResult::Explained(_) => "EXPLAIN".to_string(),
            StatementResult::Created(_) => "CREATE TABLE".to_string(),
            StatementResult::Dropped(_) => "DROP TABLE".to_string(),
            StatementResult::Inserted { rows, .. } => format!("INSERT 0 {rows}"),
            StatementResult::IndexCreated(_) => "CREATE INDEX".to_string(),
            StatementResult::IndexDropped(_) => "DROP INDEX".to_string(),
        }
    }
}

impl fmt::Display for StatementResult {
    /// Rows render as the table (which already carries its own row
    /// count); everything else renders as its command tag.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementResult::Rows(t) => write!(f, "{t}"),
            StatementResult::Explained(p) => f.write_str(p),
            _ => f.write_str(&self.tag()),
        }
    }
}

/// A prepared statement: the parse, annotation, and (for the engine
/// backends) compile+optimize work of one statement, cached for reuse.
///
/// Handles stay valid across DDL: each records the identity and schema
/// *epoch* of the session that compiled it — plus, on a shared
/// database, the snapshot *version* — and
/// [`Session::execute_prepared`] transparently re-prepares from the
/// original SQL when the schema (or the session's
/// dialect/logic/backend configuration) has changed since — or when
/// the handle is executed on a different session than it was prepared
/// on, so a cached positional plan never runs against a schema it was
/// not compiled for. The version check is deliberately coarse (any
/// commit from any connection re-prepares): the optimizer's totality
/// proofs are data-seeded, so even a plain `INSERT` elsewhere can
/// invalidate a cached plan.
#[derive(Clone, Debug)]
pub struct PreparedStatement {
    sql: String,
    statement: Statement,
    plan: Option<Prepared>,
    session_id: u64,
    epoch: u64,
    db_version: u64,
}

impl PreparedStatement {
    /// The SQL text this handle was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The compiled statement.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }
}

/// Process-wide counter behind [`Session`] identities, so a prepared
/// statement can tell which session compiled it.
static NEXT_SESSION_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The historical name of [`Connection`], kept as an alias so existing
/// call sites (and the harnesses built on them) compile unchanged.
pub type Session = Connection;

/// A stateful SQL connection: one object that executes SQL text under
/// a fixed dialect × logic mode × backend configuration, over either
/// an owned [`Database`] or a [`SharedDatabase`]. See the
/// [crate docs](crate) for examples.
///
/// Either way a connection is a snapshot plus an optional commit queue:
/// statements evaluate against `snap`; an owned connection writes into
/// it copy-on-write, a shared one submits to the [`SharedDatabase`]'s
/// queue and takes the snapshot the commit published.
#[derive(Debug)]
pub struct Connection {
    /// The database statements evaluate against: the owned database,
    /// or the shared snapshot as of the last statement.
    snap: Arc<Database>,
    /// The version of `snap` (`0` on owned connections).
    version: u64,
    /// The shared cell, when writes go through its commit queue.
    shared: Option<SharedDatabase>,
    /// `true` while [`Connection::pin_snapshot`] holds reads at `snap`.
    pinned: bool,
    dialect: Dialect,
    logic: LogicMode,
    backend: Backend,
    preds: PredicateRegistry,
    /// Rows per columnar batch for the vectorized backend.
    batch_size: usize,
    /// Worker threads for the vectorized executor's parallel stages
    /// (`0` = auto, `1` = sequential).
    threads: usize,
    /// Process-unique identity; prepared statements record it so a
    /// handle prepared on one session is never trusted by another whose
    /// epoch counter happens to coincide.
    id: u64,
    /// Bumped on every schema or configuration change; prepared
    /// statements compare it to know when their cached work is stale.
    epoch: u64,
}

impl Clone for Connection {
    /// A new connection with the same configuration and a fresh
    /// identity, reaching the database the way this one does:
    ///
    /// * **Shared**: a new connection over the *same*
    ///   [`SharedDatabase`]. Both see each other's committed writes;
    ///   this is the natural "one more caller" operation.
    /// * **Owned**: the historical fork semantics — a divergent
    ///   copy-on-write copy whose schema can drift from here on. This
    ///   silent fork is **deprecated as a `clone` meaning**; new code
    ///   should say [`Connection::fork`], which spells the copy out (and
    ///   also works on shared connections, detaching a private copy of
    ///   the current snapshot).
    fn clone(&self) -> Self {
        self.fresh_with(self.shared.clone())
    }
}

impl Default for Connection {
    fn default() -> Self {
        Connection::new()
    }
}

impl Connection {
    /// A session with the default configuration (Standard dialect, 3VL,
    /// adaptive backend) over an initially empty schema.
    pub fn new() -> Connection {
        SessionBuilder::new().build()
    }

    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// An independent copy-on-write copy of this connection's current
    /// database view (for a shared connection: the current snapshot),
    /// with the same configuration and a fresh identity. The fork owns
    /// its database — it never writes to the original's shared cell or
    /// durable store, and the two schemas can diverge from here on.
    pub fn fork(&self) -> Connection {
        self.fresh_with(None)
    }

    /// A connection with this one's configuration and a fresh identity,
    /// over `shared`'s latest snapshot — or, with `None`, owning this
    /// connection's current view.
    fn fresh_with(&self, shared: Option<SharedDatabase>) -> Connection {
        let (snap, version) = match &shared {
            Some(shared) => shared.snapshot_versioned(),
            None => (Arc::clone(&self.snap), 0),
        };
        Connection {
            snap,
            version,
            shared,
            pinned: false,
            dialect: self.dialect,
            logic: self.logic,
            backend: self.backend,
            preds: self.preds.clone(),
            batch_size: self.batch_size,
            threads: self.threads,
            id: NEXT_SESSION_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            epoch: 0,
        }
    }

    /// The database this connection currently reads: the owned database,
    /// or — on a shared connection — the snapshot as of the last
    /// statement (each statement refreshes it unless
    /// [`Connection::pin_snapshot`] is in effect).
    pub fn database(&self) -> &Database {
        &self.snap
    }

    /// The current schema.
    pub fn schema(&self) -> &Schema {
        self.database().schema()
    }

    /// The shared database this connection participates in, when it was
    /// built with [`SessionBuilder::with_shared`] (or
    /// [`SharedDatabase::connect`]).
    pub fn shared_database(&self) -> Option<&SharedDatabase> {
        self.shared.as_ref()
    }

    /// Freezes reads at the current snapshot of the shared database:
    /// until [`Connection::unpin_snapshot`], statements keep evaluating
    /// against this exact version even as other connections commit.
    /// Writes still go through the commit queue (they are just not
    /// observed). The differential harnesses pin around each read so
    /// the spec interpreter can be run on the *same* value. Has no
    /// effect on owned connections, whose database only changes under
    /// their own hands.
    pub fn pin_snapshot(&mut self) {
        self.refresh();
        self.pinned = true;
    }

    /// Releases [`Connection::pin_snapshot`]: the next statement sees
    /// the latest committed state again.
    pub fn unpin_snapshot(&mut self) {
        self.pinned = false;
        self.refresh();
    }

    /// The version of the snapshot this connection currently reads
    /// (`0` on owned connections, whose database is unversioned).
    pub fn snapshot_version(&self) -> u64 {
        self.version
    }

    /// Takes the latest published snapshot, unless reads are pinned or
    /// the database is owned.
    fn refresh(&mut self) {
        if let (Some(shared), false) = (&self.shared, self.pinned) {
            (self.snap, self.version) = shared.snapshot_versioned();
        }
    }

    /// The dialect in effect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The logic mode in effect.
    pub fn logic(&self) -> LogicMode {
        self.logic
    }

    /// The execution backend in effect.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The vectorized backend's batch granularity (rows per columnar
    /// batch).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The worker-thread count for the vectorized executor's parallel
    /// stages (`0` = auto, `1` = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Forces a checkpoint of the durable store (compacting the WAL
    /// into the paged checkpoint file) of the shared database this
    /// connection writes to. A no-op for owned and in-memory databases.
    pub fn checkpoint(&self) -> Result<(), SqlsemError> {
        self.shared.as_ref().map_or(Ok(()), SharedDatabase::checkpoint)
    }

    /// Switches the dialect. Invalidates prepared statements (they
    /// transparently re-prepare on next execution).
    pub fn set_dialect(&mut self, dialect: Dialect) {
        self.dialect = dialect;
        self.epoch += 1;
    }

    /// Switches the logic mode. Invalidates prepared statements.
    pub fn set_logic(&mut self, logic: LogicMode) {
        self.logic = logic;
        self.epoch += 1;
    }

    /// Switches the backend. Invalidates prepared statements.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
        self.epoch += 1;
    }

    /// Switches the vectorized backend's batch granularity (clamped to
    /// at least 1). Invalidates prepared statements.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.batch_size = batch_size.max(1);
        self.epoch += 1;
    }

    /// Switches the worker-thread count for the vectorized executor's
    /// parallel stages (`0` = auto, `1` = sequential). Invalidates
    /// prepared statements.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
        self.epoch += 1;
    }

    /// Parses and executes one SQL statement (a trailing `;` is
    /// allowed).
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult, SqlsemError> {
        self.refresh();
        let span = Span::of(sql);
        let surface = parse_statement(sql).map_err(|e| SqlsemError::parse(e, sql))?;
        let statement = annotate_statement(&surface, self.schema())
            .map_err(|e| SqlsemError::annotate(e, sql, span))?;
        self.run(&statement, sql, span)
    }

    /// Parses and executes a whole script of `;`-separated statements,
    /// returning one result per statement. Statements are compiled
    /// lazily, so DDL is visible to everything after it. Execution
    /// stops at the first error; there is no transactionality —
    /// statements before the failure stay executed.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, SqlsemError> {
        let statements = parse_script(sql).map_err(|e| SqlsemError::parse(e, sql))?;
        let mut results = Vec::with_capacity(statements.len());
        for spanned in statements {
            // Per-statement refresh: on a shared connection, DDL from
            // other connections is visible between script statements,
            // exactly as it is between separate `execute` calls.
            self.refresh();
            let statement = annotate_statement(&spanned.statement, self.schema())
                .map_err(|e| SqlsemError::annotate(e, sql, spanned.span))?;
            results.push(self.run(&statement, sql, spanned.span)?);
        }
        Ok(results)
    }

    /// Parses, annotates, and — for the engine backends — compiles and
    /// optimizes one statement, returning a reusable handle whose
    /// cached work is skipped on every subsequent
    /// [`Session::execute_prepared`].
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, SqlsemError> {
        let span = Span::of(sql);
        let surface = parse_statement(sql).map_err(|e| SqlsemError::parse(e, sql))?;
        let statement = annotate_statement(&surface, self.schema())
            .map_err(|e| SqlsemError::annotate(e, sql, span))?;
        let plan = match (&statement, self.backend) {
            // The spec interpreter has no compiled form: its "plan" is
            // the annotated query itself.
            (_, Backend::SpecInterpreter) => None,
            (Statement::Query(q) | Statement::Explain(q), _) => {
                Some(self.engine().prepare(q).map_err(|e| SqlsemError::eval(e, sql, span))?)
            }
            _ => None,
        };
        Ok(PreparedStatement {
            sql: sql.to_string(),
            statement,
            plan,
            session_id: self.id,
            epoch: self.epoch,
            db_version: self.snapshot_version(),
        })
    }

    /// Executes a prepared statement, reusing its cached compile+optimize
    /// work. If the schema or session configuration changed since the
    /// handle was prepared, it is transparently re-prepared from its SQL
    /// first (so handles never go stale, they just lose one cache hit).
    pub fn execute_prepared(
        &mut self,
        prepared: &mut PreparedStatement,
    ) -> Result<StatementResult, SqlsemError> {
        self.refresh();
        if prepared.session_id != self.id
            || prepared.epoch != self.epoch
            || prepared.db_version != self.snapshot_version()
        {
            *prepared = self.prepare(&prepared.sql)?;
        }
        let span = Span::of(&prepared.sql);
        let sql = prepared.sql.clone();
        match (&prepared.statement, &prepared.plan) {
            (Statement::Query(_), Some(plan)) => {
                let out = self
                    .engine()
                    .execute_prepared(plan)
                    .map_err(|e| SqlsemError::eval(e, &sql, span))?;
                Ok(StatementResult::Rows(out))
            }
            (Statement::Explain(_), Some(plan)) => {
                Ok(StatementResult::Explained(self.engine().explain_prepared(plan)))
            }
            _ => self.run(&prepared.statement.clone(), &sql, span),
        }
    }

    /// Executes an already-annotated query through the session's
    /// backend, skipping SQL text — a convenience for callers that hold
    /// annotated ASTs (the direct-crate-access flow). The §4 harness
    /// and the optimizer gauntlet deliberately do *not* use this: they
    /// feed printed SQL to [`Session::execute`] so the text pipeline is
    /// under test too.
    pub fn execute_query(&self, query: &Query) -> Result<Table, SqlsemError> {
        self.backend_execute(query).map_err(|e| {
            let sql = sqlsem_parser::to_sql(query, self.dialect);
            let span = Span::of(&sql);
            SqlsemError::eval(e, sql, span)
        })
    }

    /// `EXPLAIN` for an already-annotated query: the execution plan the
    /// session's backend would use.
    pub fn explain_query(&self, query: &Query) -> Result<String, SqlsemError> {
        match self.backend {
            Backend::SpecInterpreter => Ok(Self::spec_explain(query, self.dialect)),
            _ => self.engine().explain(query).map_err(|e| {
                let sql = sqlsem_parser::to_sql(query, self.dialect);
                let span = Span::of(&sql);
                SqlsemError::eval(e, sql, span)
            }),
        }
    }

    // -- internals ---------------------------------------------------------

    /// The engine configured for this session (used by the engine
    /// backends): the backend choice via [`Engine::with_backend`], plus
    /// the session's batch size and thread count.
    fn engine(&self) -> Engine<'_> {
        Engine::new(self.database())
            .with_dialect(self.dialect)
            .with_logic(self.logic)
            .with_predicates(self.preds.clone())
            .with_backend(self.backend)
            .with_batch_size(self.batch_size)
            .with_threads(self.threads)
    }

    /// Runs a query through the session's backend. Engine backends go
    /// through [`Session::engine`], so the session's batch size reaches
    /// the vectorized executor.
    fn backend_execute(&self, query: &Query) -> Result<Table, EvalError> {
        match self.backend {
            Backend::SpecInterpreter => {
                self.backend.execute(self.database(), self.dialect, self.logic, &self.preds, query)
            }
            _ => self.engine().execute(query),
        }
    }

    /// The `EXPLAIN` rendering for the spec interpreter, which has no
    /// physical plan: the annotated query, pretty-printed.
    fn spec_explain(query: &Query, dialect: Dialect) -> String {
        format!(
            "SpecInterpreter (no physical plan; Figures 4\u{2013}7 interpret the \
             annotated query directly)\n{}",
            sqlsem_parser::to_sql_pretty(query, dialect)
        )
    }

    /// Executes one compiled statement.
    fn run(
        &mut self,
        statement: &Statement,
        sql: &str,
        span: Span,
    ) -> Result<StatementResult, SqlsemError> {
        match statement {
            Statement::Query(q) => {
                let out = self.backend_execute(q).map_err(|e| SqlsemError::eval(e, sql, span))?;
                Ok(StatementResult::Rows(out))
            }
            Statement::Explain(q) => match self.backend {
                Backend::SpecInterpreter => {
                    Ok(StatementResult::Explained(Self::spec_explain(q, self.dialect)))
                }
                _ => {
                    let text =
                        self.engine().explain(q).map_err(|e| SqlsemError::eval(e, sql, span))?;
                    Ok(StatementResult::Explained(text))
                }
            },
            Statement::CreateTable { table, columns } => {
                let op = WalOp::CreateTable { name: table.clone(), columns: columns.clone() };
                self.apply(op, sql, span)?;
                self.epoch += 1;
                Ok(StatementResult::Created(table.clone()))
            }
            Statement::DropTable { table } => {
                self.apply(WalOp::DropTable { name: table.clone() }, sql, span)?;
                self.epoch += 1;
                Ok(StatementResult::Dropped(table.clone()))
            }
            Statement::CreateIndex { name, table, columns } => {
                let op = WalOp::CreateIndex {
                    name: name.clone(),
                    table: table.clone(),
                    columns: columns.clone(),
                };
                self.apply(op, sql, span)?;
                // Indexes don't change name resolution, but they do
                // change plans — cached prepared plans must recompile.
                self.epoch += 1;
                Ok(StatementResult::IndexCreated(name.clone()))
            }
            Statement::DropIndex { name } => {
                self.apply(WalOp::DropIndex { name: name.clone() }, sql, span)?;
                self.epoch += 1;
                Ok(StatementResult::IndexDropped(name.clone()))
            }
            Statement::Insert { table, columns, rows } => {
                let full = self
                    .full_rows(table, columns.as_deref(), rows)
                    .map_err(|e| SqlsemError::eval(e, sql, span))?;
                let count = full.len();
                self.apply(WalOp::Append { table: table.clone(), rows: full }, sql, span)?;
                Ok(StatementResult::Inserted { table: table.clone(), rows: count })
            }
        }
    }

    /// Routes one mutation to wherever this connection's database
    /// lives. Owned: apply to the snapshot, copying it first only if a
    /// fork still shares it. Shared: submit to the [`SharedDatabase`]
    /// commit queue, block until a leader commits the batch, and
    /// refresh the snapshot — publish-before-deliver in the queue
    /// guarantees the refreshed snapshot contains this write.
    fn apply(&mut self, op: WalOp, sql: &str, span: Span) -> Result<(), SqlsemError> {
        match &self.shared {
            None => shared::apply_op(Arc::make_mut(&mut self.snap), &op),
            Some(shared) => shared.commit(op).map(drop),
        }
        .map_err(|e| e.into_sqlsem(sql, span))?;
        self.refresh();
        Ok(())
    }

    /// `INSERT INTO table [(columns)] VALUES rows`, the pure half:
    /// reorders each value tuple into schema attribute order (filling
    /// unmentioned columns with `NULL`) without appending — the caller
    /// submits the rows as one [`WalOp::Append`].
    fn full_rows(
        &self,
        table: &Name,
        columns: Option<&[Name]>,
        rows: &[Vec<Value>],
    ) -> Result<Vec<Row>, EvalError> {
        let Some(attrs) = self.schema().attributes(table) else {
            return Err(EvalError::UnknownTable(table.clone()));
        };
        let attrs = attrs.to_vec();
        let full_rows: Vec<Row> = match columns {
            None => rows.iter().map(|r| Row::new(r.clone())).collect(),
            Some(cols) => {
                // Each named column must exist, once.
                for (i, c) in cols.iter().enumerate() {
                    if !attrs.contains(c) {
                        return Err(EvalError::UnboundName(c.clone()));
                    }
                    if cols[..i].contains(c) {
                        return Err(EvalError::AmbiguousName(c.clone()));
                    }
                }
                let mut reordered = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != cols.len() {
                        return Err(EvalError::RowArity { expected: cols.len(), got: row.len() });
                    }
                    let values = attrs
                        .iter()
                        .map(|a| {
                            cols.iter().position(|c| c == a).map_or(Value::Null, |i| row[i].clone())
                        })
                        .collect();
                    reordered.push(Row::new(values));
                }
                reordered
            }
        };
        Ok(full_rows)
    }
}
