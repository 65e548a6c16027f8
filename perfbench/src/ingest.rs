//! `ingest`: 2 in-process writer connections on a durable shared
//! database append 100-row INSERTs to an indexed table that starts at
//! 100k rows. Each round does a fixed amount of work (so faster code
//! does not get a bigger table), then drops the database, reopens the
//! directory, and checks that exactly the acknowledged rows came back.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sqlsem_core::{Database, Row, Value};
use sqlsem_session::SharedDatabase;
use sqlsem_storage::WalOp;

use crate::gen::{self, INGEST_BATCH, INGEST_STMTS_PER_WRITER};
use crate::trace::{self, Tracer, WriteReplay};
use crate::{Ctx, Outcome, Sample, CLIENTS, ROUNDS};

/// Rounds run until `--seconds` of timed work, but at least
/// [`ROUNDS`] and at most this many.
const MAX_ROUNDS: u64 = 8;

fn round_seed(seed: u64, round: u64) -> u64 {
    gen::mix(seed ^ gen::mix(round + 1))
}

fn row(seed: u64, k: i64) -> Row {
    let (g, payload) = gen::ingest_row(seed, k);
    Row::new(vec![Value::Int(k), Value::Int(g), Value::str(payload)])
}

fn database(seed: u64) -> Result<Database, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let mut db = Database::new(sqlsem_core::Schema::default());
    db.create_table("L", ["K", "G", "P"]).map_err(|x| e(&x))?;
    db.append_rows("L", (0..gen::INGEST_ROWS).map(|k| row(seed, k))).map_err(|x| e(&x))?;
    db.create_index("L_K", "L", ["K"]).map_err(|x| e(&x))?;
    Ok(db)
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

/// What one writer brings back from a round.
#[derive(Default)]
struct WriterLog {
    samples: Vec<Sample>,
    wrong: Vec<String>,
    /// Keys of acknowledged rows.
    keys: Vec<i64>,
    spans: Vec<trace::Span>,
    /// (version after commit, statement, op), traced only.
    ops: Vec<(u64, u64, WalOp)>,
    /// Checkpoints seen as the WAL file shrinking (writer 0 only).
    checkpoints: u64,
}

fn writer(
    ctx: &Ctx,
    round: u64,
    traced: bool,
    t0: Instant,
    w: usize,
    shared: &SharedDatabase,
    dir: &Path,
) -> WriterLog {
    let seed = round_seed(ctx.seed, round);
    let mut log = WriterLog::default();
    let mut tr = Tracer::new(t0, w as u8);
    let mut conn = shared.connect();
    let mut wal = wal_len(dir);
    for i in 0..INGEST_STMTS_PER_WRITER {
        let (keys, sql) = gen::ingest_stmt(seed, w as i64, CLIENTS as i64, i);
        let id = (round << 40) | ((w as u64) << 32) | i as u64;
        let start = Instant::now();
        let out = conn.execute(&sql);
        let latency = start.elapsed();
        let ok = matches!(&out, Ok(r) if r.rows_affected() == INGEST_BATCH as usize);
        if ok {
            log.keys.extend(&keys);
        } else {
            log.wrong.push(format!("writer {w} statement {i}: {out:?}"));
        }
        log.samples.push(Sample {
            round,
            client: w,
            stmt: id,
            class: "insert",
            text: gen::fnv1a(sql.as_bytes(), gen::FNV_OFFSET),
            start_ms: start.duration_since(t0).as_secs_f64() * 1e3,
            latency_ms: latency.as_secs_f64() * 1e3,
            ok,
            traced,
        });
        let now = wal_len(dir);
        // Both writers see each shrink; writer 0 does the counting.
        if now < wal && w == 0 {
            log.checkpoints += 1;
        }
        wal = now;
        if traced {
            // The e2e call is the shared `Connection::execute` itself.
            tr.record("session.commit", "insert", id, None, start, start + latency);
            let version = conn.snapshot_version();
            if let Err(e) = trace::replay_write_text(&mut tr, "insert", id, &sql, conn.database()) {
                log.wrong.push(e);
            }
            let rows = keys.iter().map(|k| row(seed, *k)).collect();
            log.ops.push((version, id, WalOp::Append { table: "L".into(), rows }));
        }
    }
    log.spans = tr.spans;
    log
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let mut timed = 0.0;
    let (mut stmts, mut versions, mut seen_checkpoints) = (0u64, 0u64, 0u64);
    let (mut wal_bytes, mut wal_rows, mut replay_checkpoints) = (0u64, 0u64, 0u64);
    let mut disk_ratio = Vec::new();
    let mut round = 0u64;
    while round < ROUNDS || (timed < ctx.seconds && round < MAX_ROUNDS) {
        let traced = ctx.traced_round(round);
        let seed = round_seed(ctx.seed, round);
        let dir = ctx.tmp.join(format!("ingest-{round}"));
        let setup = Instant::now();
        let db = database(seed)?;
        drop(trace::persist(&db, &dir)?);
        let shared = SharedDatabase::open(&dir).map_err(|e| e.to_string())?;
        let mut replay = if traced {
            Some(WriteReplay::new(&db, &ctx.tmp.join(format!("ingest-{round}-replay")))?)
        } else {
            None
        };
        drop(db);
        o.setup_s.push(setup.elapsed().as_secs_f64());

        let v0 = shared.version();
        crate::heap::reset_peak();
        let start = Instant::now();
        let logs = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|w| {
                    let (shared, dir) = (&shared, &dir);
                    s.spawn(move || writer(ctx, round, traced, t0, w, shared, dir))
                })
                .collect();
            for h in handles {
                logs.lock().expect("log lock").push(h.join().expect("writer thread"));
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        o.round_s.push(elapsed);
        timed += elapsed;
        versions += shared.version() - v0;
        let mut keys = Vec::new();
        let mut ops = Vec::new();
        for log in logs.into_inner().expect("log lock") {
            o.samples.extend(log.samples);
            o.wrong.extend(log.wrong);
            keys.extend(log.keys);
            trace::merge(&mut o.spans, log.spans);
            ops.extend(log.ops);
            seen_checkpoints += log.checkpoints;
        }
        stmts += (keys.len() as i64 / INGEST_BATCH) as u64;
        o.round_rows.push(keys.len() as u64);
        o.round_memory(round);

        let mut tr = Tracer::new(t0, 8);
        if let Some(replay) = replay.as_mut() {
            // Commit order: by published version, then by statement.
            ops.sort_by_key(|(v, id, _)| (*v, *id));
            let mut i = 0;
            while i < ops.len() {
                let j = i + ops[i..].iter().take_while(|(v, _, _)| *v == ops[i].0).count();
                let batch: Vec<(u64, WalOp)> =
                    ops[i..j].iter().map(|(_, id, op)| (*id, op.clone())).collect();
                replay.batch(&mut tr, "insert", &batch)?;
                i = j;
            }
            wal_bytes += replay.wal_bytes;
            wal_rows += replay.rows;
            replay_checkpoints += replay.checkpoints;
        }
        drop(replay);

        // Drop the database and reopen the directory: exactly the
        // acknowledged rows must come back.
        drop(shared);
        let reopened = if traced {
            trace::timed_recovery(&mut tr, "insert", &dir)?
        } else {
            SharedDatabase::open(&dir).map_err(|e| e.to_string())?
        };
        let want_n = gen::INGEST_ROWS + keys.len() as i64;
        let want_sum = (0..gen::INGEST_ROWS).sum::<i64>() + keys.iter().sum::<i64>();
        let out = reopened
            .connect()
            .execute("SELECT COUNT(*) AS n, SUM(L.K) AS s FROM L")
            .map_err(|e| e.to_string())?;
        let got = out.rows().and_then(|t| t.rows().next().cloned());
        if got != Some(gen::int_row(&[want_n, want_sum])) {
            o.wrong.push(format!(
                "round {round}: reopened (COUNT, SUM) = {got:?}, expected ({want_n}, {want_sum})"
            ));
        }
        if traced {
            let snap = reopened.snapshot();
            let out = trace::replay_read(
                &mut tr,
                "verify",
                0,
                "SELECT COUNT(*) AS n, SUM(L.K) AS s FROM L",
                &snap,
            )?;
            if out.result_rows != 1 {
                o.wrong.push("verification replay returned no row".into());
            }
            reopened.checkpoint().map_err(|e| e.to_string())?;
            disk_ratio.push(trace::dir_bytes(&dir) as f64 / trace::user_bytes(&snap) as f64);
        }
        trace::merge(&mut o.spans, tr.spans);
        drop(reopened);
        // Every directory of this round, the replay's included.
        let _ = std::fs::remove_dir_all(&ctx.tmp);
        round += 1;
    }
    o.fact("rows in L at start", gen::INGEST_ROWS);
    o.fact(
        "work per round",
        format!("{CLIENTS} writers x {INGEST_STMTS_PER_WRITER} INSERTs x {INGEST_BATCH} rows"),
    );
    o.fact("payload letters per row", gen::INGEST_PAYLOAD);
    o.fact("checkpoints seen (WAL file shrank)", seen_checkpoints);
    let mut h = gen::FNV_OFFSET;
    for w in 0..CLIENTS as i64 {
        for i in 0..INGEST_STMTS_PER_WRITER {
            h = gen::fnv1a(
                gen::ingest_stmt(round_seed(ctx.seed, 0), w, CLIENTS as i64, i).1.as_bytes(),
                h,
            );
        }
    }
    o.fact("stream digest (round 0)", format!("{h:016x}"));
    if ctx.trace {
        o.counts.insert("session.commit_batch_size", stmts as f64 / versions.max(1) as f64);
        o.counts.insert("storage.wal_bytes_per_row", wal_bytes as f64 / wal_rows.max(1) as f64);
        o.counts.insert("storage.checkpoints", replay_checkpoints as f64);
        o.counts.insert("storage.disk_bytes_per_user_byte", crate::stats::mean(&disk_ratio));
        o.probe(ctx, t0)?;
    }
    Ok(o)
}
