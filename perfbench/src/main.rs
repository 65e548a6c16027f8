//! `perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_wire|analytic|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the stack only through public APIs (the
//! `sqlsem-server` wire protocol, `Connection`/`SharedDatabase`,
//! `PreparedStatement`), checks every answer, and prints one JSON line
//! last on stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer split with `--trace 1`. A wrong answer makes the run exit
//! with code 1. Reports (JSON, markdown, raw samples, spans) go to
//! `.perfbench/reports/`; durable databases live under `.perfbench/tmp/`
//! and are removed at the end. See `perfbench/README.md`.

mod analytic;
mod gen;
mod heap;
mod ingest;
mod oltp;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Span;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Rounds per run: each round sets the workload up from scratch, so
/// `setup_s` is the median of several set-ups.
pub const ROUNDS: u64 = 5;

/// Client threads the load comes from (the sandbox has 2 cores).
pub const CLIENTS: usize = 2;

/// What a run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for durable databases, inside the checkout.
    pub tmp: PathBuf,
}

impl Ctx {
    /// Rounds 1.. are traced in a traced run; round 0 stays untraced
    /// and is the reference the tracing overhead is measured against.
    pub fn traced_round(&self, round: u64) -> bool {
        self.trace && round > 0
    }
}

/// One timed statement.
#[derive(Clone, Debug)]
pub struct Sample {
    pub round: u64,
    pub client: usize,
    pub stmt: u64,
    pub class: &'static str,
    /// FNV-1a of the statement text (repeated-text accounting).
    pub text: u64,
    pub start_ms: f64,
    pub latency_ms: f64,
    /// The answer check passed.
    pub ok: bool,
    pub traced: bool,
}

/// Everything a workload hands back to the report.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Timed seconds per round (closed-loop wall time).
    pub round_s: Vec<f64>,
    /// Rows acknowledged (INSERTs) per round.
    pub round_rows: Vec<u64>,
    /// Peak live heap bytes during each round's timed phase, in MB.
    pub round_heap_mb: Vec<f64>,
    /// Wrong answers, with what was expected.
    pub wrong: Vec<String>,
    pub spans: Vec<Span>,
    pub probe_spans: Vec<Span>,
    /// Per-layer counts and ratios measured by the workload itself.
    pub counts: BTreeMap<&'static str, f64>,
    /// The same from the probe, for layers the workload bypasses.
    pub probe_counts: BTreeMap<&'static str, f64>,
    /// Workload facts for the report (stream digest, sizes, …).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records the round's peak live heap (since the timed phase began
    /// with [`heap::reset_peak`]) and the process's resident and peak
    /// resident memory.
    pub fn round_memory(&mut self, round: u64) {
        self.round_heap_mb.push(heap::peak_mb());
        let (rss, hwm) = (report::status_mb("VmRSS:"), report::status_mb("VmHWM:"));
        self.fact(&format!("round {round} VmRSS / VmHWM (MB)"), format!("{rss:.1} / {hwm:.1}"));
    }

    /// Runs the shared probe into `probe_spans`/`probe_counts`.
    pub fn probe(&mut self, ctx: &Ctx, t0: std::time::Instant) -> Result<(), String> {
        let dir = ctx.tmp.join("probe");
        let mut tr = trace::Tracer::new(t0, 9);
        self.probe_counts = trace::probe_layers(&mut tr, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        self.probe_spans = tr.spans;
        Ok(())
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["oltp_wire", "analytic", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let tmp =
        PathBuf::from(".perfbench").join("tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx { workload, seed, seconds, trace, tmp })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload oltp_wire|analytic|ingest --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match ctx.workload.as_str() {
        "oltp_wire" => oltp::run(&ctx),
        "analytic" => analytic::run(&ctx),
        _ => ingest::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            // Set-up or I/O failure: no result line.
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::from(2);
        }
    };
    let line = report::finish(&ctx, &outcome);
    println!("{line}");
    if outcome.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        for w in outcome.wrong.iter().take(5) {
            eprintln!("perfbench: wrong answer: {w}");
        }
        ExitCode::from(1)
    }
}
