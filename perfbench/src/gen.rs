//! Seeded input generation: a SplitMix64 stream, the tables each
//! workload loads, and the statement streams the program receives.
//!
//! Everything here is a pure function of the seed, so the same seed
//! gives a byte-identical statement stream and the same expected
//! answers (checked by the tests at the end of this file).

use sqlsem_core::{Row, Value};

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 generator. `stream` separates independent sequences
/// drawn from one seed (tables, clients, rounds).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A lowercase ASCII word of `len` letters — safe inside a SQL
    /// string literal without escaping.
    pub fn word(&mut self, len: usize) -> String {
        (0..len).map(|_| (b'a' + self.below(26) as u8) as char).collect()
    }
}

/// FNV-1a over bytes: the digest recorded for statement streams.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn int_row(values: &[i64]) -> Row {
    Row::new(values.iter().map(|v| Value::Int(*v)).collect())
}

// ---------------------------------------------------------------------
// oltp_wire
// ---------------------------------------------------------------------

/// Rows in `R` at the start of each round.
pub const OLTP_ROWS: i64 = 100_000;
/// Payload letters per `R` row.
pub const OLTP_PAYLOAD: usize = 16;

/// `R.V` for key `k`: what a point read of `k` must return.
pub fn oltp_value(seed: u64, k: i64) -> i64 {
    (mix(seed ^ mix(k as u64 ^ 0xA11CE)) % 1_000_000) as i64
}

/// `R.W` for key `k`.
pub fn oltp_payload(seed: u64, k: i64) -> String {
    Rng::new(seed, 0xB0B0_0000 ^ k as u64).word(OLTP_PAYLOAD)
}

/// The reference tables: `RG` (5 regions), `N` (25 nations) and `S`
/// (200 suppliers) — all below the adaptive row cutoff, so reads on
/// them run on the row engine.
pub struct OltpRefs {
    pub rg: Vec<Row>,
    pub n: Vec<Row>,
    pub s: Vec<Row>,
}

pub fn oltp_refs(seed: u64) -> OltpRefs {
    let mut rng = Rng::new(seed, 2);
    let rg = (0..5).map(|r| Row::new(vec![Value::Int(r), Value::str(rng.word(6))])).collect();
    let n = (0..25)
        .map(|nk| Row::new(vec![Value::Int(nk), Value::Int(nk % 5), Value::str(rng.word(8))]))
        .collect();
    let s = (0..200)
        .map(|sk| {
            let nk = rng.below(25) as i64;
            let bal = rng.below(10_000) as i64;
            int_row(&[sk, nk, bal])
        })
        .collect();
    OltpRefs { rg, n, s }
}

/// The few repeated reference-table texts of one run (constants drawn
/// from the seed once, so texts repeat exactly within the run).
pub fn oltp_small_texts(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    let r1 = rng.below(5);
    let bal = 2_000 + rng.below(6_000);
    let r2 = rng.below(5);
    vec![
        format!(
            "SELECT N.NAME AS nation, RG.NAME AS region FROM N, RG \
             WHERE N.RK = RG.RK AND RG.RK = {r1}"
        ),
        format!(
            "SELECT S.NK AS nk, COUNT(*) AS n, SUM(S.BAL) AS bal FROM S \
             WHERE S.BAL > {bal} GROUP BY S.NK"
        ),
        "SELECT S.SK AS sk, S.BAL AS bal FROM S ORDER BY bal DESC, sk LIMIT 5".to_string(),
        format!("SELECT COUNT(*) AS n FROM S, N WHERE S.NK = N.NK AND N.RK = {r2}"),
    ]
}

/// One statement of an `oltp_wire` client's stream.
#[derive(Clone, Debug, PartialEq)]
pub enum OltpStmt {
    /// Indexed point read of a seed key; `value` is the expected `R.V`.
    Point { sql: String, value: i64 },
    /// Read on a reference table: index into [`oltp_small_texts`].
    Small { text: usize },
    /// Single-row INSERT of a fresh key.
    Insert { sql: String, key: i64 },
}

impl OltpStmt {
    pub fn class(&self) -> &'static str {
        match self {
            OltpStmt::Point { .. } => "point",
            OltpStmt::Small { .. } => "small",
            OltpStmt::Insert { .. } => "insert",
        }
    }
}

/// Percent of the mix: point reads, reference reads, the rest inserts.
pub const OLTP_POINT_PCT: u64 = 80;
pub const OLTP_SMALL_PCT: u64 = 10;

/// The statement stream of client `client` in round `round`: an
/// endless, seeded sequence (the closed loop takes a prefix of it).
pub struct OltpStream {
    seed: u64,
    rng: Rng,
    client: i64,
    clients: i64,
    inserts: i64,
}

impl OltpStream {
    pub fn new(seed: u64, round: u64, client: usize, clients: usize) -> OltpStream {
        OltpStream {
            seed,
            rng: Rng::new(seed, 0x0100 + (round << 8) + client as u64),
            client: client as i64,
            clients: clients as i64,
            inserts: 0,
        }
    }
}

impl Iterator for OltpStream {
    type Item = OltpStmt;

    fn next(&mut self) -> Option<OltpStmt> {
        let roll = self.rng.below(100);
        Some(if roll < OLTP_POINT_PCT {
            let k = self.rng.below(OLTP_ROWS as u64) as i64;
            OltpStmt::Point {
                sql: format!("SELECT R.V AS v FROM R WHERE R.K = {k}"),
                value: oltp_value(self.seed, k),
            }
        } else if roll < OLTP_POINT_PCT + OLTP_SMALL_PCT {
            OltpStmt::Small { text: self.rng.below(4) as usize }
        } else {
            // Fresh keys above the seed rows, disjoint across clients.
            let key = OLTP_ROWS + self.inserts * self.clients + self.client;
            self.inserts += 1;
            let sql = format!(
                "INSERT INTO R VALUES ({key}, {}, '{}')",
                oltp_value(self.seed, key),
                oltp_payload(self.seed, key)
            );
            OltpStmt::Insert { sql, key }
        })
    }
}

// ---------------------------------------------------------------------
// analytic
// ---------------------------------------------------------------------

pub const FACT_ROWS: usize = 1_000_000;
pub const DIM_ROWS: usize = 250_000;

/// The fact table `FACT(K, DK, G, S, Q, P)` column by column.
pub struct Fact {
    pub dk: Vec<i64>,
    pub g: Vec<i64>,
    pub s: Vec<i64>,
    pub q: Vec<i64>,
    pub p: Vec<i64>,
}

/// The dimension table `DIM(K, R, C)` column by column.
pub struct Dim {
    pub r: Vec<i64>,
    pub c: Vec<i64>,
}

pub fn fact(seed: u64, rows: usize, dim_rows: usize) -> Fact {
    let mut rng = Rng::new(seed, 10);
    let mut f = Fact {
        dk: Vec::with_capacity(rows),
        g: Vec::with_capacity(rows),
        s: Vec::with_capacity(rows),
        q: Vec::with_capacity(rows),
        p: Vec::with_capacity(rows),
    };
    for _ in 0..rows {
        f.dk.push(rng.below(dim_rows as u64) as i64);
        f.g.push(rng.below(4) as i64);
        f.s.push(rng.below(3) as i64);
        f.q.push(1 + rng.below(50) as i64);
        f.p.push(1 + rng.below(100_000) as i64);
    }
    f
}

pub fn dim(seed: u64, rows: usize) -> Dim {
    let mut rng = Rng::new(seed, 11);
    let mut d = Dim { r: Vec::with_capacity(rows), c: Vec::with_capacity(rows) };
    for _ in 0..rows {
        d.r.push(rng.below(25) as i64);
        d.c.push(rng.below(10) as i64);
    }
    d
}

/// The constants of the analytic rotation, drawn once per run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalyticParams {
    pub max_q: i64,
    pub category: i64,
    pub status: i64,
}

pub fn analytic_params(seed: u64) -> AnalyticParams {
    let mut rng = Rng::new(seed, 12);
    AnalyticParams {
        max_q: 20 + rng.below(26) as i64,
        category: rng.below(10) as i64,
        status: rng.below(3) as i64,
    }
}

/// The rotation's three shapes: (class, SQL text).
pub fn analytic_texts(p: AnalyticParams) -> [(&'static str, String); 3] {
    [
        (
            "group",
            format!(
                "SELECT FACT.G AS g, FACT.S AS s, COUNT(*) AS n, SUM(FACT.Q) AS q, \
                 SUM(FACT.P) AS p FROM FACT WHERE FACT.Q <= {} GROUP BY FACT.G, FACT.S",
                p.max_q
            ),
        ),
        (
            "join",
            format!(
                "SELECT DIM.R AS r, COUNT(*) AS n, SUM(FACT.P) AS p FROM FACT, DIM \
                 WHERE FACT.DK = DIM.K AND DIM.C = {} GROUP BY DIM.R",
                p.category
            ),
        ),
        (
            "topk",
            format!(
                "SELECT FACT.K AS k, FACT.P AS p FROM FACT WHERE FACT.S = {} \
                 ORDER BY p DESC, k LIMIT 10",
                p.status
            ),
        ),
    ]
}

/// The expected answer of each shape, folded directly from the
/// generated columns. Group results are sorted (compared as bags);
/// the top-k list is in its ORDER BY order.
pub fn analytic_expected(f: &Fact, d: &Dim, p: AnalyticParams) -> [Vec<Row>; 3] {
    let mut group = [[(0i64, 0i64, 0i64); 3]; 4];
    let mut join = vec![(0i64, 0i64); 25];
    let mut top: Vec<(i64, i64)> = Vec::new();
    for i in 0..f.dk.len() {
        if f.q[i] <= p.max_q {
            let cell = &mut group[f.g[i] as usize][f.s[i] as usize];
            cell.0 += 1;
            cell.1 += f.q[i];
            cell.2 += f.p[i];
        }
        let dk = f.dk[i] as usize;
        if d.c[dk] == p.category {
            let cell = &mut join[d.r[dk] as usize];
            cell.0 += 1;
            cell.1 += f.p[i];
        }
        if f.s[i] == p.status {
            top.push((f.p[i], i as i64));
        }
    }
    let mut group_rows = Vec::new();
    for (g, by_s) in group.iter().enumerate() {
        for (s, &(n, q, pp)) in by_s.iter().enumerate() {
            if n > 0 {
                group_rows.push(int_row(&[g as i64, s as i64, n, q, pp]));
            }
        }
    }
    let join_rows = join
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| *n > 0)
        .map(|(r, &(n, pp))| int_row(&[r as i64, n, pp]))
        .collect();
    top.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let top_rows = top.iter().take(10).map(|&(pp, k)| int_row(&[k, pp])).collect();
    [group_rows, join_rows, top_rows]
}

// ---------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------

/// Rows in `L` at the start of each round.
pub const INGEST_ROWS: i64 = 100_000;
/// Rows per INSERT statement.
pub const INGEST_BATCH: i64 = 100;
/// INSERT statements per writer per round (fixed work).
pub const INGEST_STMTS_PER_WRITER: i64 = 48;
/// Payload letters per `L` row.
pub const INGEST_PAYLOAD: usize = 200;

/// Row `k` of `L(K, G, P)`.
pub fn ingest_row(seed: u64, k: i64) -> (i64, String) {
    let mut rng = Rng::new(seed, 0x1A6E_0000 ^ k as u64);
    (rng.below(16) as i64, rng.word(INGEST_PAYLOAD))
}

/// Statement `i` of writer `w` (of `writers`): the keys it appends and
/// its text. Keys are disjoint across writers and statements.
pub fn ingest_stmt(seed: u64, writer: i64, writers: i64, i: i64) -> (Vec<i64>, String) {
    let first = INGEST_ROWS + (i * writers + writer) * INGEST_BATCH;
    let keys: Vec<i64> = (first..first + INGEST_BATCH).collect();
    let mut sql = String::from("INSERT INTO L VALUES ");
    for (j, k) in keys.iter().enumerate() {
        let (g, payload) = ingest_row(seed, *k);
        if j > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&format!("({k}, {g}, '{payload}')"));
    }
    (keys, sql)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every statement text one seed feeds the program (a fixed prefix
    /// of each endless stream), plus the expected answers.
    fn everything(seed: u64) -> (Vec<String>, Vec<String>) {
        let mut texts = oltp_small_texts(seed);
        let mut answers = Vec::new();
        for round in 0..3 {
            for client in 0..2 {
                for stmt in OltpStream::new(seed, round, client, 2).take(300) {
                    match stmt {
                        OltpStmt::Point { sql, value } => {
                            texts.push(sql);
                            answers.push(value.to_string());
                        }
                        OltpStmt::Small { text } => texts.push(format!("small {text}")),
                        OltpStmt::Insert { sql, .. } => texts.push(sql),
                    }
                }
            }
        }
        let params = analytic_params(seed);
        texts.extend(analytic_texts(params).into_iter().map(|(_, sql)| sql));
        let (f, d) = (fact(seed, 5_000, 1_000), dim(seed, 1_000));
        for rows in analytic_expected(&f, &d, params) {
            answers.extend(rows.iter().map(|r| format!("{:?}", r.values())));
        }
        for w in 0..2 {
            for i in 0..3 {
                texts.push(ingest_stmt(seed, w, 2, i).1);
            }
        }
        (texts, answers)
    }

    #[test]
    fn same_seed_gives_the_same_stream_and_answers() {
        assert_eq!(everything(7), everything(7));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let (a, _) = everything(7);
        let (b, _) = everything(8);
        assert_ne!(a, b);
        // Not just one text: the point-read streams differ throughout.
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > a.len() / 2, "{differing} of {}", a.len());
    }

    #[test]
    fn oltp_inserts_use_fresh_disjoint_keys() {
        let mut keys = Vec::new();
        for client in 0..2 {
            for stmt in OltpStream::new(1, 0, client, 2).take(2_000) {
                if let OltpStmt::Insert { key, .. } = stmt {
                    assert!(key >= OLTP_ROWS);
                    keys.push(key);
                }
            }
        }
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }
}
