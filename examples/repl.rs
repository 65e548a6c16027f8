//! A tiny line-oriented SQL REPL over [`Session`]: reads `;`-terminated
//! statements from stdin, prints result tables, plans and errors.
//! Result rows print in the list order the semantics assigns — ordered
//! (`ORDER BY`) results are never re-sorted for display.
//!
//! Interactive use:
//!
//! ```text
//! cargo run --example repl
//! sql> CREATE TABLE R (A);
//! CREATE TABLE
//! sql> INSERT INTO R VALUES (1), (NULL);
//! INSERT 0 2
//! sql> SELECT COUNT(A) AS n FROM R;
//!  n
//! ---
//!  1
//! (1 row)
//! ```
//!
//! Non-interactive use (how CI smokes it):
//!
//! ```text
//! cargo run --example repl <<'SQL'
//! CREATE TABLE R (A);
//! INSERT INTO R VALUES (1), (NULL);
//! EXPLAIN SELECT DISTINCT R.A FROM R;
//! SQL
//! ```
//!
//! Meta commands: `\d` shows the schema, the indexes, and — when the
//! REPL was started with `--storage DIR` — each table's on-disk page
//! and row counts, `\backend spec|naive|optimized|vectorized|adaptive`,
//! `\batchsize N` (the vectorized backend's rows-per-batch),
//! `\threads N` (morsel workers for the vectorized executor; 0 = auto),
//! `\dialect standard|postgresql|oracle`, `\q` quits.
//!
//! With `--storage DIR` the REPL opens `DIR` as a durable
//! `SharedDatabase` (replaying its WAL if a previous run crashed) and
//! connects to it — the same commit path the server uses. Every DDL
//! and `INSERT` goes through its commit queue and is logged and
//! fsynced before it reports success, so `CREATE TABLE`/`INSERT`/
//! `CREATE INDEX` survive a kill and a reopen of the same directory.
//!
//! With `--connect ADDR` the REPL is a **network client** instead: no
//! local database — every statement (and every `\…` meta command) is
//! sent to a running `sqlsem-server` over its line protocol and the
//! response block is printed verbatim. Multiple clients pointed at the
//! same server share one database with snapshot-isolated reads.

use std::io::{self, BufRead, IsTerminal, Write};

use sqlsem::server::Client;
use sqlsem::{Backend, Dialect, Session, SharedDatabase};

/// Prints the schema, index definitions and (when the REPL was started
/// with `--storage DIR`) per-table on-disk footprints — the `\d` meta
/// command. Checkpoints first so the reported pages/rows reflect the
/// current database rather than whatever the last WAL compaction
/// happened to capture.
fn describe(session: &Session, storage: Option<&str>) {
    let durable = storage.zip(session.shared_database());
    if let Some((_, shared)) = durable {
        if let Err(e) = shared.checkpoint() {
            println!("{e}");
        }
    }
    let schema = session.schema();
    if schema.is_empty() {
        println!("(no tables — try CREATE TABLE R (A);)");
    } else {
        println!("{schema}");
    }
    let indexes = session.database().indexes();
    if !indexes.is_empty() {
        println!("Indexes:");
        for index in indexes {
            let def = index.def();
            let cols: Vec<String> = def.columns.iter().map(|c| c.to_string()).collect();
            println!("  {} ON {} ({})", def.name, def.table, cols.join(", "));
        }
    }
    if let Some((dir, shared)) = durable {
        println!("Storage ({dir}):");
        for (table, _) in schema.iter() {
            let stats = shared.table_stats(table.as_ref()).unwrap_or_default();
            println!("  {table}: {} pages, {} rows on disk", stats.pages, stats.rows);
        }
    }
}

/// `true` when the accumulated input forms a submittable statement: its
/// last non-whitespace character is a `;` that sits *outside* every
/// single-quoted string literal. Checking the raw line for a trailing
/// `;` (as this REPL once did) submits half a statement whenever a
/// string literal spans lines and the first line happens to end in `;`.
/// The scan toggles on each `'`, which also handles the `''` escape: in
/// a literal, `''` toggles out and straight back in, leaving the state
/// open — exactly the lexer's reading.
fn terminated(buffer: &str) -> bool {
    let mut in_string = false;
    let mut complete = false;
    for c in buffer.chars() {
        match c {
            '\'' => {
                in_string = !in_string;
                complete = false;
            }
            ';' if !in_string => complete = true,
            c if c.is_whitespace() => {}
            _ => complete = false,
        }
    }
    complete
}

/// Handles a `\…` meta command (`storage` is the `--storage` directory,
/// if any); returns `false` when the REPL should quit.
fn meta_command(session: &mut Session, storage: Option<&str>, line: &str) -> bool {
    let mut words = line.split_whitespace();
    match (words.next(), words.next()) {
        (Some("\\q"), _) => return false,
        (Some("\\d"), _) => describe(session, storage),
        (Some("\\backend"), Some(arg)) => match arg.parse::<Backend>() {
            Ok(backend) => {
                session.set_backend(backend);
                println!("backend: {backend}");
            }
            Err(e) => println!("{e}"),
        },
        (Some("\\batchsize"), Some(arg)) => match arg.parse::<usize>() {
            Ok(n) if n > 0 => {
                session.set_batch_size(n);
                println!("batch size: {n}");
            }
            _ => println!("unknown batch size {arg:?}: expected a positive integer"),
        },
        (Some("\\threads"), Some(arg)) => match arg.parse::<usize>() {
            Ok(n) => {
                session.set_threads(n);
                println!("threads: {}", if n == 0 { "auto".to_string() } else { n.to_string() });
            }
            Err(_) => println!("unknown thread count {arg:?}: expected an integer (0 = auto)"),
        },
        (Some("\\dialect"), Some(arg)) => {
            let dialect = match arg.to_ascii_lowercase().as_str() {
                "standard" => Some(Dialect::Standard),
                "postgresql" | "postgres" => Some(Dialect::PostgreSql),
                "oracle" => Some(Dialect::Oracle),
                _ => None,
            };
            match dialect {
                Some(d) => {
                    session.set_dialect(d);
                    println!("dialect: {d}");
                }
                None => {
                    println!("unknown dialect {arg:?}: expected standard, postgresql or oracle")
                }
            }
        }
        _ => println!(
            "meta commands: \\d (schema, indexes, on-disk stats)  \
             \\backend <spec|naive|optimized|vectorized|adaptive>  \
             \\batchsize <rows>  \\threads <n>  \
             \\dialect <standard|postgresql|oracle>  \\q (quit)"
        ),
    }
    true
}

/// Splits a `;`-terminated buffer into its individual statements (the
/// same quote-aware scan as [`terminated`]) — the server protocol is
/// one statement per line, so a `A; B` input line becomes two sends.
fn split_statements(buffer: &str) -> Vec<String> {
    let mut statements = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in buffer.chars() {
        match c {
            '\'' => {
                in_string = !in_string;
                current.push(c);
            }
            ';' if !in_string => {
                if !current.trim().is_empty() {
                    statements.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        statements.push(current.trim().to_string());
    }
    statements
}

/// The REPL's client mode: forward every statement and meta command to
/// a `sqlsem-server`, print each response block. Returns on `\q`, EOF,
/// or a dropped connection.
fn client_loop(mut client: Client, interactive: bool) {
    println!("{}", client.greeting());
    let stdin = io::stdin();
    let mut buffer = String::new();
    let prompt = |buffer: &str| {
        if interactive {
            print!("{}", if buffer.is_empty() { "sql> " } else { "  -> " });
            io::stdout().flush().ok();
        }
    };
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = line.expect("stdin is readable");
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match client.send(trimmed) {
                Ok(reply) => println!("{reply}"),
                Err(e) => {
                    eprintln!("connection lost: {e}");
                    return;
                }
            }
            if trimmed == "\\q" {
                return;
            }
            prompt(&buffer);
            continue;
        }
        if !interactive && !trimmed.is_empty() {
            println!("sql> {trimmed}");
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !terminated(&buffer) {
            prompt(&buffer);
            continue;
        }
        for statement in split_statements(&buffer) {
            match client.send(&statement) {
                Ok(reply) => println!("{reply}"),
                Err(e) => {
                    eprintln!("connection lost: {e}");
                    return;
                }
            }
        }
        buffer.clear();
        prompt(&buffer);
    }
}

fn main() {
    // `--storage DIR` opens a durable shared database; `--connect ADDR`
    // turns the REPL into a network client of a running sqlsem-server.
    let mut args = std::env::args().skip(1);
    let mut storage = None;
    let mut session = match args.next().as_deref() {
        None => Session::new(),
        Some("--connect") => {
            let addr = args.next().unwrap_or_else(|| {
                eprintln!("usage: repl [--storage DIR | --connect ADDR]");
                std::process::exit(2);
            });
            match Client::connect(&addr) {
                Ok(client) => {
                    client_loop(client, io::stdin().is_terminal());
                    return;
                }
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("--storage") => {
            let dir = args.next().unwrap_or_else(|| {
                eprintln!("usage: repl [--storage DIR | --connect ADDR]");
                std::process::exit(2);
            });
            match SharedDatabase::open(&dir) {
                Ok(shared) => {
                    println!("storage: {dir}");
                    storage = Some(dir);
                    shared.connect()
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        Some(other) => {
            eprintln!("unknown argument {other:?}; usage: repl [--storage DIR | --connect ADDR]");
            std::process::exit(2);
        }
    };
    let stdin = io::stdin();
    let interactive = stdin.is_terminal();
    if interactive {
        println!(
            "sqlsem REPL — dialect {}, logic {}, backend {}. \\q to quit.",
            session.dialect(),
            session.logic(),
            session.backend()
        );
    }

    // Statements may span lines; accumulate until a terminating `;`.
    let mut buffer = String::new();
    let prompt = |buffer: &str| {
        if interactive {
            print!("{}", if buffer.is_empty() { "sql> " } else { "  -> " });
            io::stdout().flush().ok();
        }
    };
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = line.expect("stdin is readable");
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !meta_command(&mut session, storage.as_deref(), trimmed) {
                return;
            }
            prompt(&buffer);
            continue;
        }
        if !interactive && !trimmed.is_empty() {
            println!("sql> {trimmed}");
        }
        buffer.push_str(&line);
        buffer.push('\n');
        // Keep reading until the statement is terminated — a `;` inside
        // an open string literal does not count.
        if !terminated(&buffer) {
            prompt(&buffer);
            continue;
        }
        match session.run_script(&buffer) {
            Ok(results) => {
                for result in results {
                    println!("{result}");
                }
            }
            Err(e) => println!("{e}"),
        }
        buffer.clear();
        prompt(&buffer);
    }
}
