//! `analytic`: one in-process connection (default backend) over a
//! 1M-row fact table and a 250k-row dimension table, running a fixed
//! rotation of filter+group, join+filter+group and top-k shapes, each
//! once unprepared and once prepared. Every answer is checked against a
//! result folded from the generated data in plain Rust.

use std::time::Instant;

use sqlsem_core::{Database, Row, Table};
use sqlsem_session::{PreparedStatement, Session, StatementResult};

use crate::gen::{self, Dim, Fact};
use crate::trace::{self, Tracer};
use crate::{Ctx, Outcome, Sample, ROUNDS};

fn database(f: Fact, d: Dim) -> Result<Database, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let mut db = Database::new(sqlsem_core::Schema::default());
    db.create_table("FACT", ["K", "DK", "G", "S", "Q", "P"]).map_err(|x| e(&x))?;
    db.create_table("DIM", ["K", "R", "C"]).map_err(|x| e(&x))?;
    let facts =
        (0..f.dk.len()).map(|i| gen::int_row(&[i as i64, f.dk[i], f.g[i], f.s[i], f.q[i], f.p[i]]));
    db.append_rows("FACT", facts).map_err(|x| e(&x))?;
    let dims = (0..d.r.len()).map(|i| gen::int_row(&[i as i64, d.r[i], d.c[i]]));
    db.append_rows("DIM", dims).map_err(|x| e(&x))?;
    Ok(db)
}

/// Checks one result against the folded expectation: group shapes as
/// bags, the top-k list in order.
fn matches(shape: usize, got: &Table, expected: &[Row]) -> bool {
    if shape == 2 {
        got.rows().eq(expected.iter())
    } else {
        got.sorted_rows() == expected
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let params = gen::analytic_params(ctx.seed);
    let texts = gen::analytic_texts(params);
    let classes = [
        ["group.unprepared", "group.prepared"],
        ["join.unprepared", "join.prepared"],
        ["topk.unprepared", "topk.prepared"],
    ];
    let mut tr = Tracer::new(t0, 0);
    let mut stmt = 0u64;
    for round in 0..ROUNDS {
        let traced = ctx.traced_round(round);
        let setup = Instant::now();
        let f = gen::fact(ctx.seed, gen::FACT_ROWS, gen::DIM_ROWS);
        let d = gen::dim(ctx.seed, gen::DIM_ROWS);
        let mut expected = gen::analytic_expected(&f, &d, params);
        for e in &mut expected[..2] {
            e.sort();
        }
        let mut conn = Session::builder().with_database(database(f, d)?).build();
        let mut prepared: Vec<PreparedStatement> = texts
            .iter()
            .map(|(_, sql)| conn.prepare(sql).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        o.setup_s.push(setup.elapsed().as_secs_f64());

        crate::heap::reset_peak();
        let start = Instant::now();
        let slice = ctx.seconds / ROUNDS as f64;
        // Whole rotations only, so every round runs the same mix; one
        // more only if it should still end within the round's slice.
        let mut rotation = 0.0;
        while rotation == 0.0 || start.elapsed().as_secs_f64() + rotation <= slice {
            let begun = Instant::now();
            for (shape, (_, sql)) in texts.iter().enumerate() {
                let mut results: Vec<Table> = Vec::new();
                for (kind, &class) in classes[shape].iter().enumerate() {
                    let begin = Instant::now();
                    let out = if kind == 0 {
                        conn.execute(sql)
                    } else {
                        conn.execute_prepared(&mut prepared[shape])
                    };
                    let latency = begin.elapsed();
                    let table = out.ok().and_then(StatementResult::into_rows);
                    let ok = table.as_ref().is_some_and(|t| matches(shape, t, &expected[shape]));
                    if !ok {
                        o.wrong.push(format!("{sql} ({class}): wrong or failed result"));
                    }
                    o.samples.push(Sample {
                        round,
                        client: 0,
                        stmt,
                        class,
                        text: gen::fnv1a(sql.as_bytes(), gen::FNV_OFFSET),
                        start_ms: begin.duration_since(t0).as_secs_f64() * 1e3,
                        latency_ms: latency.as_secs_f64() * 1e3,
                        ok,
                        traced,
                    });
                    if traced {
                        tr.record("statement", class, stmt, None, begin, begin + latency);
                    }
                    results.extend(table);
                    stmt += 1;
                }
                if results.len() == 2 && results[0] != results[1] {
                    o.wrong.push(format!("{sql}: prepared and unprepared results differ"));
                }
                if traced {
                    // One replay per shape and rotation: the prepared
                    // statement's layers are the execute and render
                    // spans of the same plan.
                    let out = trace::replay_read(
                        &mut tr,
                        texts[shape].0,
                        stmt - 2,
                        sql,
                        conn.database(),
                    )?;
                    let want = StatementResult::Rows(results[0].clone()).to_string();
                    if out.rendered != want {
                        o.wrong.push(format!("{sql}: replay rendered a different result"));
                    }
                }
            }
            rotation = begun.elapsed().as_secs_f64();
        }
        o.round_s.push(start.elapsed().as_secs_f64());
        o.round_rows.push(0);
        o.round_memory(round);
    }
    o.spans = tr.spans;
    o.fact("FACT rows", gen::FACT_ROWS);
    o.fact("DIM rows", gen::DIM_ROWS);
    o.fact("rotation", "group, join, top-k; each unprepared then prepared");
    let mut h = gen::FNV_OFFSET;
    for (_, sql) in &texts {
        h = gen::fnv1a(sql.as_bytes(), h);
    }
    o.fact("stream digest", format!("{h:016x}"));
    if ctx.trace {
        o.probe(ctx, t0)?;
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The folded expectations agree with the engine (and with the spec
    /// interpreter) on a small instance, so a run's answer check tests
    /// the program, not the checker.
    #[test]
    fn folded_expectations_match_the_engines() {
        for seed in [1, 2] {
            let params = gen::analytic_params(seed);
            let (f, d) = (gen::fact(seed, 3_000, 500), gen::dim(seed, 500));
            let mut expected = gen::analytic_expected(&f, &d, params);
            for e in &mut expected[..2] {
                e.sort();
            }
            let db = database(f, d).unwrap();
            for backend in
                [sqlsem_session::Backend::Adaptive, sqlsem_session::Backend::SpecInterpreter]
            {
                let mut conn =
                    Session::builder().with_database(db.clone()).with_backend(backend).build();
                for (shape, (_, sql)) in gen::analytic_texts(params).iter().enumerate() {
                    let out = conn.execute(sql).unwrap().into_rows().unwrap();
                    assert!(matches(shape, &out, &expected[shape]), "{backend}: {sql}\n{out}");
                }
            }
        }
    }

    #[test]
    fn a_wrong_expectation_is_caught() {
        let params = gen::analytic_params(3);
        let (f, d) = (gen::fact(3, 2_000, 300), gen::dim(3, 300));
        let mut expected = gen::analytic_expected(&f, &d, params);
        let mut conn = Session::builder().with_database(database(f, d).unwrap()).build();
        let (_, sql) = &gen::analytic_texts(params)[2];
        let out = conn.execute(sql).unwrap().into_rows().unwrap();
        assert!(matches(2, &out, &expected[2]));
        expected[2].swap(0, 1);
        assert!(!matches(2, &out, &expected[2]));
    }
}
