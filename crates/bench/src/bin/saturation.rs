//! The server saturation bench: an in-process `sqlsem-server` on an
//! ephemeral port, N ∈ {1, 8, 64} concurrent TCP clients, read-heavy
//! and write-heavy workloads, p50/p95 per-statement latency and
//! aggregate throughput.
//!
//! What the numbers are expected to show:
//!
//! * **read-heavy** — readers evaluate against lock-free snapshots, so
//!   aggregate throughput *scales* with client count until the machine
//!   runs out of cores (no shared lock on the read path to collapse
//!   onto);
//! * **write-heavy** — writers serialize through the commit queue, so
//!   aggregate throughput saturates, but *group commit* keeps per-op
//!   latency from growing linearly: concurrent writers share one
//!   snapshot publish (and, on a durable database, one fsync) per
//!   batch.
//!
//! With `--record` the measurements are written to
//! `BENCH_saturation.json` (the committed baseline); with
//! `--check <baseline.json>` the bench re-runs and fails if any p50 at
//! a matching client count regressed more than
//! [`baseline::CHECK_FACTOR`]× + [`baseline::CHECK_SLACK_MS`] — the
//! guard `join_scaling` shares.
//!
//! ```text
//! cargo run --release -p sqlsem-bench --bin saturation -- --record
//! cargo run --release -p sqlsem-bench --bin saturation -- --quick --check BENCH_saturation.json
//! ```

use std::sync::Barrier;
use std::time::Instant;

use sqlsem_bench::baseline::{self, percentile};
use sqlsem_bench::{arg, flag};
use sqlsem_server::{Client, Server};

struct Measurement {
    workload: &'static str,
    clients: usize,
    ops: usize,
    p50_ms: f64,
    p95_ms: f64,
    throughput: f64,
}

/// Runs one workload at one client count: every client is a real TCP
/// connection driving the line protocol, all released together by a
/// barrier; per-statement latencies are merged across clients.
fn run(server: &Server, workload: &'static str, clients: usize, ops: usize) -> Measurement {
    let barrier = Barrier::new(clients + 1);
    let (latencies, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let addr = server.local_addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to bench server");
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(ops);
                    for i in 0..ops {
                        let statement = match workload {
                            "read_heavy" => format!(
                                "SELECT COUNT(*) AS n FROM R WHERE R.A = {}",
                                (c * ops + i) % 1000
                            ),
                            _ => format!("INSERT INTO W VALUES ({c}, {i})"),
                        };
                        let start = Instant::now();
                        let reply = client.send(&statement).expect("statement round trip");
                        latencies.push(start.elapsed().as_secs_f64() * 1e3);
                        assert!(
                            !reply.contains("error"),
                            "bench statement failed under {workload}: {reply}"
                        );
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let latencies: Vec<f64> =
            handles.into_iter().flat_map(|h| h.join().expect("bench client")).collect();
        (latencies, start.elapsed().as_secs_f64())
    });
    let total_ops = clients * ops;
    Measurement {
        workload,
        clients,
        ops: total_ops,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        throughput: total_ops as f64 / elapsed,
    }
}

fn main() {
    let quick = flag("--quick");
    let record = flag("--record");
    let check_path: String = arg("--check", String::new());
    let read_ops: usize = arg("--read-ops", if quick { 50 } else { 200 });
    let write_ops: usize = arg("--write-ops", if quick { 25 } else { 100 });
    let counts: Vec<usize> = if quick { vec![1, 8] } else { vec![1, 8, 64] };

    // One in-process server for the whole run: in-memory shared
    // database, seeded through a direct (non-TCP) connection.
    let server = Server::bind("127.0.0.1:0").expect("bind bench server");
    let mut seed = server.shared().connect();
    seed.execute("CREATE TABLE R (A, B)").unwrap();
    for chunk in 0..10 {
        let rows: Vec<String> =
            (0..100).map(|i| format!("({}, {})", chunk * 100 + i, i % 7)).collect();
        seed.execute(&format!("INSERT INTO R VALUES {}", rows.join(", "))).unwrap();
    }
    // A secondary index turns the read probe into an index point
    // lookup, so the measured cost is the protocol + snapshot path
    // rather than a table scan.
    seed.execute("CREATE INDEX r_a_idx ON R (A)").unwrap();
    // The write-heavy workload appends to its own table so repeated
    // runs at growing client counts don't slow the read probes down.
    seed.execute("CREATE TABLE W (C, I)").unwrap();

    println!("server saturation: clients x ops over loopback TCP, in-memory shared database\n");
    println!(
        "{:>12} {:>8} {:>10} {:>10} {:>10} {:>14}",
        "workload", "clients", "ops", "p50_ms", "p95_ms", "ops_per_s"
    );
    let mut measurements = Vec::new();
    for &clients in &counts {
        for (workload, ops) in [("read_heavy", read_ops), ("write_heavy", write_ops)] {
            let m = run(&server, workload, clients, ops);
            println!(
                "{:>12} {:>8} {:>10} {:>10.4} {:>10.4} {:>14.0}",
                m.workload, m.clients, m.ops, m.p50_ms, m.p95_ms, m.throughput
            );
            measurements.push(m);
        }
    }
    server.shutdown();

    if record {
        let section = |name: &str| -> String {
            measurements
                .iter()
                .filter(|m| m.workload == name)
                .map(|m| {
                    format!(
                        "    {{\"clients\": {}, \"ops\": {}, \"p50_ms\": {:.4}, \
                         \"p95_ms\": {:.4}, \"ops_per_s\": {:.0}}}",
                        m.clients, m.ops, m.p50_ms, m.p95_ms, m.throughput
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        let json = format!(
            "{{\n  \"bench\": \"saturation\",\n  \"cores\": {cores},\n  \
             \"read_heavy\": [\n{}\n  ],\n  \"write_heavy\": [\n{}\n  ]\n}}\n",
            section("read_heavy"),
            section("write_heavy")
        );
        std::fs::write("BENCH_saturation.json", &json).expect("write baseline");
        println!("\nrecorded BENCH_saturation.json");
    }

    if !check_path.is_empty() {
        let sections = [("read_heavy", "p50_ms"), ("write_heavy", "p50_ms")];
        baseline::check(&check_path, "clients", &sections, |section, clients| {
            measurements
                .iter()
                .find(|m| m.workload == section && m.clients as u64 == clients)
                .map(|m| m.p50_ms)
        });
    }
}
