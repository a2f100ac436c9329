//! `h2p-served`: the scenario daemon — JSONL request/response over
//! stdin/stdout (protocol in [`h2p_serve::protocol`]).
//!
//! ```text
//! cargo run -p h2p-serve --bin h2p-served              # default tuning
//! h2p-served --queue 64 --cache 32 --dispatch 4        # explicit tuning
//! h2p-served --tenant-quota 8                          # per-tenant cap
//! ```
//!
//! Every input line is answered by at least one output line; malformed
//! lines, lines that are not UTF-8, and lines longer than
//! [`MAX_REQUEST_BYTES`](h2p_serve::protocol::MAX_REQUEST_BYTES), get
//! an `{"event":"error",...}` line and the daemon keeps going. EOF
//! performs a final drain (so piped scripts never lose queued work),
//! prints a `bye` line, and exits 0. Diagnostics go to
//! stderr; stdout carries only protocol lines.
//!
//! A closed downstream (the reader of our stdout went away — the
//! EPIPE-equivalent; Rust never raises SIGPIPE, it surfaces as a
//! [`BrokenPipe`](std::io::ErrorKind::BrokenPipe) write error) is a
//! normal way for a pipeline to end: the daemon stops quietly with
//! exit 0. Any *other* stdout write failure is a real I/O error and
//! exits 1 with a diagnostic on stderr.

use h2p_serve::protocol::{
    admission_json, parse_line, read_line, response_json, stats_json, Command, InputLine,
    MAX_REQUEST_BYTES,
};
use h2p_serve::{ScenarioService, ServiceConfig};
use h2p_telemetry::Registry;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            eprintln!(
                "h2p-served: JSONL scenario daemon\n\
                 usage: h2p-served [--queue N] [--cache N] [--dispatch N] [--tenant-quota N]\n\
                 protocol: one JSON object per stdin line; see h2p_serve::protocol"
            );
            return ExitCode::SUCCESS;
        }
        if !config.apply_flag(&flag, args.next().as_deref()) {
            return usage(&flag);
        }
    }

    let registry = Registry::new();
    let service = ScenarioService::new(config).with_telemetry(&registry);
    let mut input = std::io::stdin().lock();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut served = 0u64;

    loop {
        let command = match read_line(&mut input) {
            Ok(Some(InputLine::Line(line))) if line.trim().is_empty() => continue,
            Ok(Some(InputLine::Line(line))) => parse_line(&line),
            Ok(Some(InputLine::TooLong)) => {
                Err(format!("line longer than {MAX_REQUEST_BYTES} bytes"))
            }
            Ok(Some(InputLine::NotUtf8)) => Err("line is not UTF-8".to_owned()),
            Ok(None) => break,
            Err(e) => {
                eprintln!("h2p-served: stdin read failed: {e}");
                break;
            }
        };
        let reply = match command {
            Ok(Command::Run(request)) => emit(&mut out, &admission_json(&service.submit(*request))),
            Ok(Command::Drain) => {
                let mut reply = Ok(());
                for response in service.drain() {
                    served += 1;
                    if reply.is_ok() {
                        reply = emit(&mut out, &response_json(&response));
                    }
                }
                reply
            }
            Ok(Command::Stats) => emit(&mut out, &stats_json(&service.stats())),
            Err(reason) => emit(
                &mut out,
                &serde_json::json!({"event": "error", "error": reason}),
            ),
        };
        if let Err(e) = reply {
            return stdout_gone(&e);
        }
    }

    // EOF: never strand queued work.
    for response in service.drain() {
        served += 1;
        if let Err(e) = emit(&mut out, &response_json(&response)) {
            return stdout_gone(&e);
        }
    }
    if let Err(e) = emit(
        &mut out,
        &serde_json::json!({"event": "bye", "served": served}),
    ) {
        return stdout_gone(&e);
    }
    ExitCode::SUCCESS
}

/// Writes one protocol line.
fn emit(out: &mut impl Write, value: &serde_json::Value) -> std::io::Result<()> {
    writeln!(out, "{value}")?;
    out.flush()
}

/// Maps a stdout write failure to the process exit code: a closed
/// downstream (EPIPE-equivalent) is a normal pipeline shutdown, exit
/// 0; anything else is a real fault, exit 1 with a diagnostic.
fn stdout_gone(e: &std::io::Error) -> ExitCode {
    if e.kind() == ErrorKind::BrokenPipe {
        return ExitCode::SUCCESS;
    }
    eprintln!("h2p-served: stdout write failed: {e}");
    ExitCode::FAILURE
}

fn usage(flag: &str) -> ExitCode {
    eprintln!("h2p-served: bad or incomplete flag {flag:?} (see --help)");
    ExitCode::from(2)
}
