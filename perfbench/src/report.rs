//! Turns an [`Outcome`] into the result line, and writes the report:
//! JSON plus a markdown table, with the raw per-statement samples and
//! the spans alongside, so two runs can be diffed row by row.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::stats::{mean, median, quantile, Json};
use crate::trace::Span;
use crate::{Ctx, Outcome, Sample};

/// Per-layer timings: (metric, span name). The value is the mean self
/// time per call, in ms.
pub const LAYER_TIMES: [(&str, &str); 15] = [
    ("server.rtt_ms", "server.rtt"),
    ("parser.parse_ms", "parser.parse"),
    ("parser.annotate_ms", "parser.annotate"),
    ("engine.compile_ms", "engine.compile"),
    ("engine.optimize_ms", "engine.optimize"),
    ("engine.exec_vec_ms", "engine.exec_vec"),
    ("engine.exec_row_ms", "engine.exec_row"),
    ("session.render_ms", "session.render"),
    ("session.commit_ms", "session.commit"),
    ("core.apply_ms", "core.apply"),
    ("core.publish_ms", "core.publish"),
    ("storage.wal_append_ms", "storage.wal_append"),
    ("storage.fsync_ms", "storage.fsync"),
    ("storage.checkpoint_ms", "storage.checkpoint"),
    ("storage.recovery_ms", "storage.recovery"),
];

/// Per-layer counts and ratios: (metric, unit).
pub const LAYER_COUNTS: [(&str, &str); 5] = [
    ("engine.rows_per_result", "rows/row"),
    ("session.commit_batch_size", "stmts/batch"),
    ("storage.wal_bytes_per_row", "B/row"),
    ("storage.checkpoints", "count"),
    ("storage.disk_bytes_per_user_byte", "B/B"),
];

/// A memory line of `/proc/self/status` (`VmHWM:`, `VmRSS:`), in MB.
pub fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every Rust source file under `dirs`, in path order: the
/// code identity when the checkout carries no git metadata.
fn source_digest(dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h = crate::gen::FNV_OFFSET;
    for f in &files {
        h = crate::gen::fnv1a(f.to_string_lossy().as_bytes(), h);
        h = crate::gen::fnv1a(&std::fs::read(f).unwrap_or_default(), h);
    }
    format!("{h:016x} ({} files)", files.len())
}

fn machine() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only this directory's own repository counts, not an enclosing one.
    let git = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ("git_revision", git),
        ("source_digest", source_digest(&["crates", "perfbench/src"])),
        (
            "flush_policy",
            "one fdatasync per commit batch (Storage::commit), checkpoint past 1 MiB of WAL; \
             latencies are this sandbox's disk and page cache, not a device's"
                .into(),
        ),
    ]
}

/// One class's latency summary.
struct ClassRow {
    class: String,
    n: usize,
    failed: usize,
    p50: f64,
    p90: f64,
    mean: f64,
}

fn class_rows(samples: &[&Sample]) -> Vec<ClassRow> {
    let mut by: BTreeMap<&str, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by.entry(s.class).or_default().push(s);
    }
    by.into_iter()
        .map(|(class, v)| {
            let lat: Vec<f64> = v.iter().map(|s| s.latency_ms).collect();
            ClassRow {
                class: class.to_string(),
                n: v.len(),
                failed: v.iter().filter(|s| !s.ok).count(),
                p50: median(&lat),
                p90: quantile(&lat, 0.9),
                mean: mean(&lat),
            }
        })
        .collect()
}

fn lat_of(samples: &[&Sample], keep: impl Fn(&str) -> bool) -> Vec<f64> {
    samples.iter().filter(|s| keep(s.class)).map(|s| s.latency_ms).collect()
}

/// Per-workload views of the untraced samples: the pooled p90, then
/// read/write, prepared/unprepared, rows acknowledged, failures.
fn views(
    ctx: &Ctx,
    o: &Outcome,
    untraced: &[&Sample],
    ops_per_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut v: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |name: &str, x: f64, unit: &'static str| v.push((name.to_string(), x, unit));
    push("p90_ms", quantile(&lat_of(untraced, |_| true), 0.9), "ms");
    match ctx.workload.as_str() {
        "oltp_wire" => {
            let reads = lat_of(untraced, |c| c != "insert");
            let writes = lat_of(untraced, |c| c == "insert");
            push("read_p50_ms", median(&reads), "ms");
            push("read_p90_ms", quantile(&reads, 0.9), "ms");
            push("write_p50_ms", median(&writes), "ms");
            push("write_p90_ms", quantile(&writes, 0.9), "ms");
        }
        "analytic" => {
            let unprep = lat_of(untraced, |c| c.ends_with(".unprepared"));
            let prep = lat_of(untraced, |c| c.ends_with(".prepared"));
            push("unprepared_p50_ms", median(&unprep), "ms");
            push("prepared_p50_ms", median(&prep), "ms");
            push("queries_per_s", ops_per_s, "1/s");
        }
        _ => {
            let writes = lat_of(untraced, |_| true);
            push("write_p50_ms", median(&writes), "ms");
            push("write_p90_ms", quantile(&writes, 0.9), "ms");
            let (rows, secs) = untraced_rounds(ctx, o).fold((0u64, 0.0), |(r, s), i| {
                (r + o.round_rows.get(i).copied().unwrap_or(0), s + o.round_s[i])
            });
            push("rows_per_s", rows as f64 / secs, "1/s");
        }
    }
    let failed = untraced.iter().filter(|s| !s.ok).count();
    push("failed_ratio", failed as f64 / untraced.len().max(1) as f64, "ratio");
    v
}

fn untraced_rounds<'a>(ctx: &'a Ctx, o: &'a Outcome) -> impl Iterator<Item = usize> + 'a {
    (0..o.round_s.len()).filter(move |&r| !ctx.traced_round(r as u64))
}

/// Self time of every span: its duration minus its children's.
fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ms();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.ms() - c).collect()
}

struct Layer {
    name: String,
    value: f64,
    unit: &'static str,
    source: &'static str,
    calls: usize,
}

/// Per-layer values: the workload's own spans and counts where it
/// reaches the layer, the probe's otherwise.
fn layers(ctx: &Ctx, o: &Outcome) -> Vec<Layer> {
    let own = self_ms(&o.spans);
    let probe = self_ms(&o.probe_spans);
    let times = |span: &str, class: Option<&str>| -> (Vec<f64>, &'static str) {
        let pick = |spans: &[Span], selfs: &[f64]| -> Vec<f64> {
            spans
                .iter()
                .zip(selfs)
                .filter(|(s, _)| s.name == span && class.is_none_or(|c| s.class == c))
                .map(|(_, t)| *t)
                .collect()
        };
        let mine = pick(&o.spans, &own);
        if mine.is_empty() {
            (pick(&o.probe_spans, &probe), "probe")
        } else {
            (mine, "workload")
        }
    };
    let mut out = Vec::new();
    for (metric, span) in LAYER_TIMES {
        let (v, source) = times(span, None);
        out.push(Layer {
            name: metric.into(),
            value: mean(&v),
            unit: "ms",
            source,
            calls: v.len(),
        });
    }
    for (metric, unit) in LAYER_COUNTS {
        let (value, source) = match o.counts.get(metric) {
            Some(v) => (*v, "workload"),
            None => (o.probe_counts.get(metric).copied().unwrap_or(f64::NAN), "probe"),
        };
        out.push(Layer { name: metric.into(), value, unit, source, calls: 0 });
    }
    // Queue wait, derived: a commit's latency minus the serial parts it
    // waits for (its text layers, its batch's applies and WAL appends,
    // one fsync, the amortized checkpoints, one publish). Not clamped: a
    // negative value means the replayed parts ran slower than the live
    // commit did.
    let (commits, source) = times("session.commit", None);
    let class = if source == "probe" { "probe" } else { "insert" };
    let m = |span: &str| {
        let (v, _) = times(span, Some(class));
        if v.is_empty() {
            0.0
        } else {
            mean(&v)
        }
    };
    let batch = out.iter().find(|l| l.name == "session.commit_batch_size").map_or(1.0, |l| l.value);
    let checkpoint_total: f64 = times("storage.checkpoint", Some(class)).0.iter().sum();
    let serial = m("parser.parse")
        + m("parser.annotate")
        + batch * (m("core.apply") + m("storage.wal_append"))
        + m("storage.fsync")
        + m("core.publish")
        + checkpoint_total / commits.len().max(1) as f64;
    out.push(Layer {
        name: "session.queue_wait_ms".into(),
        value: mean(&commits) - serial,
        unit: "ms",
        source: if source == "probe" { "probe (derived)" } else { "workload (derived)" },
        calls: commits.len(),
    });
    // Tracing overhead: untraced round 0 against the traced rounds.
    let rate = |traced: bool| {
        let rounds: Vec<usize> =
            (0..o.round_s.len()).filter(|&r| ctx.traced_round(r as u64) == traced).collect();
        let n = o.samples.iter().filter(|s| rounds.contains(&(s.round as usize))).count();
        n as f64 / rounds.iter().map(|&r| o.round_s[r]).sum::<f64>()
    };
    out.push(Layer {
        name: "trace.overhead_pct".into(),
        value: (rate(false) / rate(true) - 1.0) * 100.0,
        unit: "%",
        source: "workload",
        calls: 0,
    });
    out
}

/// Writes the report files and returns the result line.
pub fn finish(ctx: &Ctx, o: &Outcome) -> String {
    let untraced: Vec<&Sample> = o.samples.iter().filter(|s| !s.traced).collect();
    let secs: f64 = untraced_rounds(ctx, o).map(|r| o.round_s[r]).sum();
    let lat: Vec<f64> = untraced.iter().map(|s| s.latency_ms).collect();
    let ops_per_s = untraced.len() as f64 / secs;
    let heap: Vec<f64> =
        untraced_rounds(ctx, o).filter_map(|r| o.round_heap_mb.get(r).copied()).collect();
    // The mean, not a high percentile, is the gated tail-sensitive
    // figure: `ingest`'s write latency is bimodal (about a tenth of the
    // writes wait on a checkpoint), so its p90 jumps between the two
    // modes with machine speed. The p90 stays in the report's views.
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("p50_ms", median(&lat), "ms"),
        ("mean_ms", mean(&lat), "ms"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("peak_heap_mb", median(&heap), "MB"),
    ];
    let layer_rows = if ctx.trace { layers(ctx, o) } else { Vec::new() };
    let failed = o.samples.iter().filter(|s| !s.ok).count();
    let metric_json = |name: &str, value: f64, unit: &str| {
        (name.to_string(), Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]))
    };
    let metrics: Vec<(String, Json)> = if ctx.trace {
        layer_rows.iter().map(|l| metric_json(&l.name, l.value, l.unit)).collect()
    } else {
        e2e.iter().map(|(n, v, u)| metric_json(n, *v, u)).collect()
    };
    let line = Json::obj(vec![
        ("correct", Json::Bool(o.wrong.is_empty())),
        ("attempted", Json::Int(o.samples.len() as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Obj(metrics.clone())),
    ])
    .to_string();

    let views = views(ctx, o, &untraced, ops_per_s);
    let classes = class_rows(&o.samples.iter().filter(|s| !s.traced).collect::<Vec<_>>());
    let traced_classes = class_rows(&o.samples.iter().filter(|s| s.traced).collect::<Vec<_>>());
    let repeated = {
        let distinct: std::collections::HashSet<u64> = o.samples.iter().map(|s| s.text).collect();
        1.0 - distinct.len() as f64 / o.samples.len().max(1) as f64
    };
    let machine = machine();
    let stem = format!("{}-seed{}-trace{}", ctx.workload, ctx.seed, u8::from(ctx.trace));
    let dir = PathBuf::from(".perfbench").join("reports");
    if std::fs::create_dir_all(&dir).is_err() {
        return line;
    }

    // JSON report.
    let num = |x: f64| Json::Num(x);
    let report = Json::obj(vec![
        (
            "run",
            Json::obj(vec![
                ("workload", Json::str(&ctx.workload)),
                ("seed", Json::Int(ctx.seed as i64)),
                ("seconds", num(ctx.seconds)),
                ("trace", Json::Bool(ctx.trace)),
                ("rounds", Json::Int(o.round_s.len() as i64)),
                ("raw_samples", Json::str(format!("{stem}.samples.tsv"))),
            ]),
        ),
        (
            "machine",
            Json::Obj(machine.iter().map(|(k, v)| (k.to_string(), Json::str(v))).collect()),
        ),
        (
            "result",
            Json::obj(vec![
                ("correct", Json::Bool(o.wrong.is_empty())),
                ("attempted", Json::Int(o.samples.len() as i64)),
                ("failed", Json::Int(failed as i64)),
                ("wrong", Json::Arr(o.wrong.iter().take(20).map(Json::str).collect())),
            ]),
        ),
        ("end_to_end", Json::Obj(e2e.iter().map(|(n, v, u)| metric_json(n, *v, u)).collect())),
        ("views", Json::Obj(views.iter().map(|(n, v, u)| metric_json(n, *v, u)).collect())),
        ("repeated_text_share", num(repeated)),
        (
            "classes",
            Json::Arr(
                classes
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("class", Json::str(&c.class)),
                            ("n", Json::Int(c.n as i64)),
                            ("failed", Json::Int(c.failed as i64)),
                            ("p50_ms", num(c.p50)),
                            ("p90_ms", num(c.p90)),
                            ("mean_ms", num(c.mean)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "layers",
            Json::Arr(
                layer_rows
                    .iter()
                    .map(|l| {
                        Json::obj(vec![
                            ("metric", Json::str(&l.name)),
                            ("value", num(l.value)),
                            ("unit", Json::str(l.unit)),
                            ("source", Json::str(l.source)),
                            ("calls", Json::Int(l.calls as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("setup_s", Json::Arr(o.setup_s.iter().map(|x| num(*x)).collect())),
        ("round_s", Json::Arr(o.round_s.iter().map(|x| num(*x)).collect())),
        ("round_heap_mb", Json::Arr(o.round_heap_mb.iter().map(|x| num(*x)).collect())),
        ("facts", Json::Obj(o.facts.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect())),
    ]);
    let _ = std::fs::write(dir.join(format!("{stem}.json")), report.to_string() + "\n");

    // Markdown report.
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# perfbench — {} (seed {}, trace {})\n",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    let _ = writeln!(
        md,
        "Raw data: `{stem}.samples.tsv`{}\n",
        if ctx.trace { format!(", `{stem}.spans.tsv`") } else { String::new() }
    );
    let _ = writeln!(md, "## Machine\n\n| key | value |\n|---|---|");
    for (k, v) in &machine {
        let _ = writeln!(md, "| {k} | {v} |");
    }
    let _ = writeln!(md, "\n## Result\n\n- correct: {}\n- attempted: {}\n- failed: {failed}\n- repeated statement texts: {:.4}", o.wrong.is_empty(), o.samples.len(), repeated);
    for (k, v) in &o.facts {
        let _ = writeln!(md, "- {k}: {v}");
    }
    let _ = writeln!(
        md,
        "\n## End-to-end (untraced rounds)\n\n| metric | value | unit |\n|---|---:|---|"
    );
    for (n, v, u) in e2e
        .iter()
        .map(|(n, v, u)| (n.to_string(), *v, *u))
        .chain(views.iter().map(|(n, v, u)| (n.clone(), *v, *u)))
    {
        let _ = writeln!(md, "| {n} | {v:.4} | {u} |");
    }
    let class_table = |md: &mut String, title: &str, rows: &[ClassRow]| {
        let _ = writeln!(md, "\n## {title}\n\n| class | n | failed | p50_ms | p90_ms | mean_ms |\n|---|---:|---:|---:|---:|---:|");
        for c in rows {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} |",
                c.class, c.n, c.failed, c.p50, c.p90, c.mean
            );
        }
    };
    class_table(&mut md, "Statement classes (untraced)", &classes);
    if ctx.trace {
        class_table(&mut md, "Statement classes (traced rounds)", &traced_classes);
        let _ = writeln!(
            md,
            "\n## Per layer\n\n| metric | value | unit | source | calls |\n|---|---:|---|---|---:|"
        );
        for l in &layer_rows {
            let _ = writeln!(
                md,
                "| {} | {:.4} | {} | {} | {} |",
                l.name, l.value, l.unit, l.source, l.calls
            );
        }
        // Per-class split of every span name.
        let selfs = self_ms(&o.spans);
        let mut by: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for (s, t) in o.spans.iter().zip(&selfs) {
            by.entry((s.name, s.class)).or_default().push(*t);
        }
        let _ = writeln!(md, "\n## Spans by class (self time)\n\n| span | class | n | mean_ms | p50_ms | p90_ms |\n|---|---|---:|---:|---:|---:|");
        for ((name, class), v) in &by {
            let _ = writeln!(
                md,
                "| {name} | {class} | {} | {:.4} | {:.4} | {:.4} |",
                v.len(),
                mean(v),
                median(v),
                quantile(v, 0.9)
            );
        }
    }
    let _ = writeln!(md, "\n## Rounds\n\n| round | traced | setup_s | timed_s | statements |\n|---:|---|---:|---:|---:|");
    for (r, secs) in o.round_s.iter().enumerate() {
        let n = o.samples.iter().filter(|s| s.round == r as u64).count();
        let _ = writeln!(
            md,
            "| {r} | {} | {:.4} | {secs:.4} | {n} |",
            ctx.traced_round(r as u64),
            o.setup_s.get(r).copied().unwrap_or(f64::NAN)
        );
    }
    let _ = std::fs::write(dir.join(format!("{stem}.md")), md);

    // Raw samples and spans.
    let mut tsv =
        String::from("round\tclient\tstmt\tclass\ttext_fnv\tstart_ms\tlatency_ms\tok\ttraced\n");
    for s in &o.samples {
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{}\t{:016x}\t{:.4}\t{}\t{}\t{}",
            s.round, s.client, s.stmt, s.class, s.text, s.start_ms, s.latency_ms, s.ok, s.traced
        );
    }
    let _ = std::fs::write(dir.join(format!("{stem}.samples.tsv")), tsv);
    if ctx.trace {
        let mut tsv =
            String::from("source\tindex\tname\tclass\tstmt\tthread\tparent\tstart_ns\tend_ns\n");
        for (source, spans) in [("workload", &o.spans), ("probe", &o.probe_spans)] {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
                let _ = writeln!(
                    tsv,
                    "{source}\t{i}\t{}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                    s.name, s.class, s.stmt, s.thread, s.start_ns, s.end_ns
                );
            }
        }
        let _ = std::fs::write(dir.join(format!("{stem}.spans.tsv")), tsv);
    }
    line
}
