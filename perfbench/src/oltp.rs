//! `oltp_wire`: a closed loop of 2 wire clients against a server on a
//! durable shared database — indexed point reads on a 100k-row table
//! (nearly every text distinct), a few repeated reads on reference
//! tables below the adaptive row cutoff, and single-row INSERTs.

use std::sync::Mutex;
use std::time::Instant;

use sqlsem_core::{Database, Row, Table, Value};
use sqlsem_server::{Client, ServerBuilder};
use sqlsem_session::{Backend, SessionBuilder, SharedDatabase, StatementResult};
use sqlsem_storage::WalOp;

use crate::gen::{self, OltpStmt, OltpStream};
use crate::trace::{self, Tracer, WriteReplay};
use crate::{Ctx, Outcome, Sample, CLIENTS, ROUNDS};

/// A result as a wire client reads it back: the server sends each
/// payload line (an empty one as a single space) and the client joins
/// them with newlines.
pub fn wire_form(rendered: &str) -> String {
    rendered.lines().map(|l| if l.is_empty() { " " } else { l }).collect::<Vec<_>>().join("\n")
}

fn rows_block(columns: &[&str], rows: Vec<Row>) -> String {
    let table = Table::with_rows(columns.iter().map(|c| (*c).into()).collect(), rows)
        .expect("arity matches the columns");
    wire_form(&StatementResult::Rows(table).to_string())
}

/// The database every round starts from: `R(K, V, W)` with an index on
/// `K`, plus the reference tables.
pub fn database(seed: u64) -> Result<Database, String> {
    let mut db = Database::new(sqlsem_core::Schema::default());
    let e = |e: &dyn std::fmt::Display| e.to_string();
    db.create_table("R", ["K", "V", "W"]).map_err(|x| e(&x))?;
    db.create_table("RG", ["RK", "NAME"]).map_err(|x| e(&x))?;
    db.create_table("N", ["NK", "RK", "NAME"]).map_err(|x| e(&x))?;
    db.create_table("S", ["SK", "NK", "BAL"]).map_err(|x| e(&x))?;
    let rows = (0..gen::OLTP_ROWS).map(|k| {
        Row::new(vec![
            Value::Int(k),
            Value::Int(gen::oltp_value(seed, k)),
            Value::str(gen::oltp_payload(seed, k)),
        ])
    });
    db.append_rows("R", rows).map_err(|x| e(&x))?;
    let refs = gen::oltp_refs(seed);
    db.append_rows("RG", refs.rg).map_err(|x| e(&x))?;
    db.append_rows("N", refs.n).map_err(|x| e(&x))?;
    db.append_rows("S", refs.s).map_err(|x| e(&x))?;
    db.create_index("R_K", "R", ["K"]).map_err(|x| e(&x))?;
    Ok(db)
}

fn count(shared: &SharedDatabase, table: &str) -> Result<i64, String> {
    let out = shared
        .connect()
        .execute(&format!("SELECT COUNT(*) AS n FROM {table}"))
        .map_err(|e| e.to_string())?;
    match out.rows().and_then(|t| t.rows().next()).and_then(|r| r.get(0)) {
        Some(Value::Int(n)) => Ok(*n),
        other => Err(format!("COUNT(*) returned {other:?}")),
    }
}

/// What one client thread brings back from a round.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    wrong: Vec<String>,
    inserted: i64,
    spans: Vec<trace::Span>,
    /// Row-engine work: (rows produced, result rows).
    produced: (usize, usize),
    /// (replica version, statement, op) of every INSERT, traced only.
    ops: Vec<(u64, u64, WalOp)>,
}

struct Round<'a> {
    ctx: &'a Ctx,
    round: u64,
    traced: bool,
    t0: Instant,
    deadline: Instant,
    small_texts: &'a [String],
    small_golden: &'a [String],
    shared: &'a SharedDatabase,
    replica: Option<&'a SharedDatabase>,
}

fn client_loop(r: &Round<'_>, client: usize, mut wire: Client) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut tr = Tracer::new(r.t0, client as u8);
    let mut replica = r.replica.map(SharedDatabase::connect);
    let mut stream = OltpStream::new(r.ctx.seed, r.round, client, CLIENTS);
    let mut n = 0u64;
    while Instant::now() < r.deadline {
        let stmt = stream.next().expect("the stream is endless");
        let id = (r.round << 40) | ((client as u64) << 32) | n;
        n += 1;
        let sql: &str = match &stmt {
            OltpStmt::Point { sql, .. } | OltpStmt::Insert { sql, .. } => sql,
            OltpStmt::Small { text } => &r.small_texts[*text],
        };
        let start = Instant::now();
        let reply = wire.send(sql).map_err(|e| format!("wire: {e}"))?;
        let latency = start.elapsed();
        let expected = match &stmt {
            OltpStmt::Point { value, .. } => rows_block(&["v"], vec![gen::int_row(&[*value])]),
            OltpStmt::Small { text } => r.small_golden[*text].clone(),
            OltpStmt::Insert { .. } => "INSERT 0 1".to_string(),
        };
        let ok = reply == expected;
        if !ok {
            log.wrong.push(format!("{sql}: expected {expected:?}, got {reply:?}"));
        } else if let OltpStmt::Insert { .. } = stmt {
            log.inserted += 1;
        }
        log.samples.push(Sample {
            round: r.round,
            client,
            stmt: id,
            class: stmt.class(),
            text: gen::fnv1a(sql.as_bytes(), gen::FNV_OFFSET),
            start_ms: start.duration_since(r.t0).as_secs_f64() * 1e3,
            latency_ms: latency.as_secs_f64() * 1e3,
            ok,
            traced: r.traced,
        });
        if !r.traced {
            continue;
        }
        // Layer replays, outside the timed call.
        let class = stmt.class();
        tr.record("statement", class, id, None, start, start + latency);
        if n.is_multiple_of(4) {
            tr.time("server.rtt", class, id, None, || wire.send("")).map_err(|e| e.to_string())?;
        }
        let snap = r.shared.snapshot();
        match &stmt {
            OltpStmt::Insert { key, .. } => {
                trace::replay_write_text(&mut tr, class, id, sql, &snap)?;
                let conn = replica.as_mut().expect("traced rounds have a replica");
                tr.time("session.commit", class, id, None, || conn.execute(sql))
                    .map_err(|e| e.to_string())?;
                let row = Row::new(vec![
                    Value::Int(*key),
                    Value::Int(gen::oltp_value(r.ctx.seed, *key)),
                    Value::str(gen::oltp_payload(r.ctx.seed, *key)),
                ]);
                log.ops.push((
                    conn.snapshot_version(),
                    id,
                    WalOp::Append { table: "R".into(), rows: vec![row] },
                ));
            }
            _ => {
                let out = trace::replay_read(&mut tr, class, id, sql, &snap)?;
                if wire_form(&out.rendered) != reply {
                    log.wrong.push(format!("{sql}: replay rendered {:?}", out.rendered));
                }
                if let Some(p) = out.produced {
                    log.produced.0 += p;
                    log.produced.1 += out.result_rows;
                }
            }
        }
    }
    log.spans = tr.spans;
    Ok(log)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let small_texts = gen::oltp_small_texts(ctx.seed);
    let mut produced = (0usize, 0usize);
    let (mut inserts, mut versions) = (0i64, 0u64);
    let mut disk_ratio = Vec::new();
    let mut wal_bytes = (0u64, 0u64);
    let mut checkpoints = 0u64;
    for round in 0..ROUNDS {
        let traced = ctx.traced_round(round);
        let dir = ctx.tmp.join(format!("oltp-{round}"));
        let setup = Instant::now();
        let db = database(ctx.seed)?;
        drop(trace::persist(&db, &dir)?);
        let shared = SharedDatabase::open(&dir).map_err(|e| e.to_string())?;
        let server = ServerBuilder::new()
            .with_shared(&shared)
            .bind("127.0.0.1:0")
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        // Reference-table answers: the default backend must coincide
        // with the spec interpreter on one pinned snapshot, and the
        // wire must return exactly the default backend's rendering.
        let mut default = shared.connect();
        default.pin_snapshot();
        let mut spec = SessionBuilder::new()
            .with_shared(&shared)
            .with_backend(Backend::SpecInterpreter)
            .try_build()
            .map_err(|e| e.to_string())?;
        spec.pin_snapshot();
        let mut golden = Vec::new();
        for text in &small_texts {
            let fast = default.execute(text).map_err(|e| e.to_string())?;
            let oracle = spec.execute(text).map_err(|e| e.to_string())?;
            let (Some(a), Some(b)) = (fast.rows(), oracle.rows()) else {
                return Err(format!("{text}: not a query result"));
            };
            if !a.coincides(b) {
                o.wrong.push(format!("{text}: default backend {a} vs spec {b}"));
            }
            golden.push(wire_form(&fast.to_string()));
        }
        drop((default, spec));
        let mut clients = clients;
        for (text, want) in small_texts.iter().zip(&golden) {
            let got = clients[0].send(text).map_err(|e| e.to_string())?;
            if &got != want {
                o.wrong.push(format!("{text}: wire {got:?} vs {want:?}"));
            }
        }
        let (replica, mut replay) = if traced {
            let rdir = ctx.tmp.join(format!("oltp-{round}-replica"));
            drop(trace::persist(&db, &rdir)?);
            let replica = SharedDatabase::open(&rdir).map_err(|e| e.to_string())?;
            (
                Some(replica),
                Some(WriteReplay::new(&db, &ctx.tmp.join(format!("oltp-{round}-replay")))?),
            )
        } else {
            (None, None)
        };
        drop(db);
        o.setup_s.push(setup.elapsed().as_secs_f64());

        let v0 = shared.version();
        crate::heap::reset_peak();
        let start = Instant::now();
        let slice = std::time::Duration::from_secs_f64(ctx.seconds / ROUNDS as f64);
        let r = Round {
            ctx,
            round,
            traced,
            t0,
            deadline: start + slice,
            small_texts: &small_texts,
            small_golden: &golden,
            shared: &shared,
            replica: replica.as_ref(),
        };
        let logs = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, wire)| {
                    s.spawn({
                        let r = &r;
                        move || client_loop(r, c, wire)
                    })
                })
                .collect();
            for h in handles {
                logs.lock().expect("log lock").push(h.join().expect("client thread"));
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        o.round_s.push(elapsed);
        let mut acked = 0i64;
        let mut ops = Vec::new();
        for log in logs.into_inner().expect("log lock") {
            let log = log?;
            o.samples.extend(log.samples);
            o.wrong.extend(log.wrong);
            acked += log.inserted;
            trace::merge(&mut o.spans, log.spans);
            produced.0 += log.produced.0;
            produced.1 += log.produced.1;
            ops.extend(log.ops);
        }
        o.round_rows.push(acked as u64);
        o.round_memory(round);
        let n = count(&shared, "R")?;
        if n != gen::OLTP_ROWS + acked {
            o.wrong.push(format!(
                "round {round}: COUNT(*) = {n}, expected {}",
                gen::OLTP_ROWS + acked
            ));
        }
        inserts += acked;
        versions += shared.version() - v0;
        server.shutdown();

        // Restart: the reopened directory holds every acknowledged row.
        let mut tr = Tracer::new(t0, 8);
        if let Some(replay) = replay.as_mut() {
            ops.sort_by_key(|(v, id, _)| (*v, *id));
            for (_, id, op) in ops {
                replay.batch(&mut tr, "insert", &[(id, op)])?;
            }
            checkpoints += replay.checkpoints;
            wal_bytes.0 += replay.wal_bytes;
            wal_bytes.1 += replay.rows;
            if replay.checkpoints == 0 {
                replay.forced_checkpoint(&mut tr)?;
            }
        }
        drop(replica);
        drop(shared);
        let reopened = if traced {
            trace::timed_recovery(&mut tr, "insert", &dir)?
        } else {
            SharedDatabase::open(&dir).map_err(|e| e.to_string())?
        };
        let n = count(&reopened, "R")?;
        if n != gen::OLTP_ROWS + acked {
            o.wrong.push(format!("round {round}: reopened COUNT(*) = {n}"));
        }
        if traced {
            reopened.checkpoint().map_err(|e| e.to_string())?;
            let user = trace::user_bytes(&reopened.snapshot());
            disk_ratio.push(trace::dir_bytes(&dir) as f64 / user as f64);
        }
        trace::merge(&mut o.spans, tr.spans);
        drop((reopened, replay));
        // Every directory of this round, replica and replay included.
        let _ = std::fs::remove_dir_all(&ctx.tmp);
    }
    o.fact("rows in R at start", gen::OLTP_ROWS);
    o.fact("reference tables", "RG 5 rows, N 25 rows, S 200 rows");
    o.fact("clients", CLIENTS);
    o.fact(
        "mix",
        format!("{}% point, {}% reference, rest INSERT", gen::OLTP_POINT_PCT, gen::OLTP_SMALL_PCT),
    );
    o.fact("inserts acknowledged", inserts);
    o.fact("stream digest (round 0, 500 statements per client)", stream_digest(ctx.seed, 0, 500));
    if ctx.trace {
        o.counts.insert("engine.rows_per_result", produced.0 as f64 / produced.1.max(1) as f64);
        o.counts.insert("session.commit_batch_size", inserts as f64 / versions.max(1) as f64);
        o.counts
            .insert("storage.wal_bytes_per_row", wal_bytes.0 as f64 / wal_bytes.1.max(1) as f64);
        o.counts.insert("storage.checkpoints", checkpoints as f64);
        o.counts.insert("storage.disk_bytes_per_user_byte", crate::stats::mean(&disk_ratio));
        o.probe(ctx, t0)?;
    }
    Ok(o)
}

/// FNV-1a of the first `n` statements of every client's stream.
pub fn stream_digest(seed: u64, round: u64, n: usize) -> String {
    let texts = gen::oltp_small_texts(seed);
    let mut h = gen::FNV_OFFSET;
    for c in 0..CLIENTS {
        for stmt in OltpStream::new(seed, round, c, CLIENTS).take(n) {
            let sql = match &stmt {
                OltpStmt::Point { sql, .. } | OltpStmt::Insert { sql, .. } => sql.as_str(),
                OltpStmt::Small { text } => texts[*text].as_str(),
            };
            h = gen::fnv1a(sql.as_bytes(), h);
            h = gen::fnv1a(b"\n", h);
        }
    }
    format!("{h:016x}")
}
