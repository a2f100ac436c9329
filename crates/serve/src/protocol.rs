//! The `h2p-served` JSONL wire protocol: one JSON object per line in,
//! one JSON object per line out.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"run","trace":"common","seed":7,"servers":80,"steps":24,
//!  "policy":"load_balance","circulation":40,"workers":2,
//!  "faults":11,"tenant":"acme","placement":"harvest_aware"}
//! {"cmd":"drain"}
//! {"cmd":"stats"}
//! ```
//!
//! `cmd` defaults to `"run"` when a `trace` field is present, and
//! fields the protocol does not name are ignored. A `run` is answered
//! immediately with an `enqueued`/`rejected` admission line; `drain`
//! emits one `result` (or `error`) line per pending ticket; `stats`
//! emits one `stats` line. A line longer than [`MAX_REQUEST_BYTES`] is
//! answered with one `error` line, and its bytes are discarded, not
//! buffered; a line that is not UTF-8 is answered with one `error`
//! line too, and reading goes on. Reading, parsing and rendering live
//! here (not in the binary) so they are unit-testable and reusable.

use crate::request::{PolicyKind, ScenarioRequest, TraceSpec};
use crate::service::{Admission, RunOutput, ServeStats, TicketResponse};
use h2p_jobs::PlacementPolicyKind;
use h2p_workload::TraceKind;
use serde::Deserialize as _;
use serde_json::{json, Value};
use std::io::{BufRead, Read as _};
use std::num::NonZeroUsize;

/// The largest request either front door reads, in bytes: one
/// `h2p-served` input line without its line ending, or one gateway
/// `POST /run` body (`HttpLimits::default().max_body_bytes`).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One input line, as [`read_line`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputLine {
    /// A line of at most [`MAX_REQUEST_BYTES`] bytes, without its line
    /// ending.
    Line(String),
    /// A longer line. At most `MAX_REQUEST_BYTES + 1` of its bytes
    /// were held, and the rest, through the next newline, skipped
    /// without being buffered.
    TooLong,
    /// A line of at most [`MAX_REQUEST_BYTES`] bytes that is not
    /// UTF-8. It was read through its line ending, so the next read
    /// starts on the next line.
    NotUtf8,
}

/// Reads the next input line, holding at most [`MAX_REQUEST_BYTES`]
/// of it in memory. `None` at end of input.
///
/// # Errors
///
/// I/O errors from `input`.
pub fn read_line(input: &mut impl BufRead) -> std::io::Result<Option<InputLine>> {
    let mut line = Vec::new();
    let limit = MAX_REQUEST_BYTES + 1;
    let read = input
        .by_ref()
        .take(limit as u64)
        .read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if read == limit {
        input.skip_until(b'\n')?;
        return Ok(Some(InputLine::TooLong));
    }
    Ok(Some(
        String::from_utf8(line).map_or(InputLine::NotUtf8, InputLine::Line),
    ))
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Submit a scenario.
    Run(Box<ScenarioRequest>),
    /// Serve everything queued.
    Drain,
    /// Report service statistics.
    Stats,
}

/// Parses one JSONL request line.
///
/// # Errors
///
/// A human-readable reason (also the daemon's `error` line) on
/// malformed JSON, unknown commands, or out-of-domain fields.
pub fn parse_line(line: &str) -> Result<Command, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
    let cmd = match value.get("cmd").and_then(Value::as_str) {
        Some(name) => name.to_owned(),
        None if value.get("trace").is_some() => "run".to_owned(),
        None => return Err("missing \"cmd\" (and no \"trace\" to imply a run)".to_owned()),
    };
    match cmd.as_str() {
        "run" => parse_request(&value).map(|r| Command::Run(Box::new(r))),
        "drain" => Ok(Command::Drain),
        "stats" => Ok(Command::Stats),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

fn parse_request(v: &Value) -> Result<ScenarioRequest, String> {
    let kind = match v.get("trace").and_then(Value::as_str) {
        Some(name) => TraceKind::all()
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown trace {name:?} (drastic|irregular|common)"))?,
        None => return Err("missing \"trace\"".to_owned()),
    };
    let trace = TraceSpec {
        kind,
        seed: u64_field(v, "seed", 42)?,
        servers: usize_field(v, "servers", 40)?,
        steps: usize_field(v, "steps", 24)?,
    };
    let policy = match v
        .get("policy")
        .and_then(Value::as_str)
        .unwrap_or("load_balance")
    {
        "original" => PolicyKind::Original,
        "load_balance" => PolicyKind::LoadBalance,
        "consolidate" => PolicyKind::Consolidate,
        "bounded_migration" => {
            let max_step = v
                .get("max_step")
                .and_then(Value::as_f64)
                .ok_or_else(|| "bounded_migration needs a numeric \"max_step\"".to_owned())?;
            PolicyKind::BoundedMigration { max_step }
        }
        other => {
            return Err(format!(
                "unknown policy {other:?} (original|load_balance|consolidate|bounded_migration)"
            ))
        }
    };
    let fault_seed = match v.get("faults") {
        None | Some(Value::Null) => None,
        Some(val) => Some(u64::from_content(val).map_err(|e| format!("field \"faults\": {e}"))?),
    };
    let placement = match v.get("placement") {
        None | Some(Value::Null) => None,
        Some(Value::String(name)) => Some(PlacementPolicyKind::parse(name).ok_or_else(|| {
            format!("unknown placement {name:?} (round_robin|coolest_first|harvest_aware)")
        })?),
        Some(_) => return Err("field \"placement\": expected a string".to_owned()),
    };
    let workers = usize_field(v, "workers", 1)?;
    let tenant = match v.get("tenant") {
        None | Some(Value::Null) => None,
        Some(Value::String(name)) => Some(name.clone()),
        Some(_) => return Err("field \"tenant\": expected a string".to_owned()),
    };
    Ok(ScenarioRequest {
        trace,
        policy,
        fault_seed,
        placement,
        servers_per_circulation: usize_field(v, "circulation", 40)?,
        workers: NonZeroUsize::new(workers).ok_or_else(|| "\"workers\" must be >= 1".to_owned())?,
        tenant,
    })
}

fn u64_field(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(val) => u64::from_content(val).map_err(|e| format!("field {key:?}: {e}")),
    }
}

fn usize_field(v: &Value, key: &str, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(val) => usize::from_content(val).map_err(|e| format!("field {key:?}: {e}")),
    }
}

/// Renders an admission as its response line.
#[must_use]
pub fn admission_json(admission: &Admission) -> Value {
    match admission {
        Admission::Enqueued { ticket, key, depth } => json!({
            "event": "enqueued",
            "ticket": ticket.0,
            "key": key.to_string(),
            "depth": depth,
        }),
        Admission::Rejected { reason } => json!({
            "event": "rejected",
            "reason": reason.to_string(),
        }),
    }
}

/// Renders one served outcome: `head`'s fields, then the outcome's
/// nine, `policy` … `faulted`, then `tail`'s (fields of a value that
/// is not an object are left out). The daemon's `result` line and the
/// gateway's canonical body both render through it.
#[must_use]
pub fn outcome_json(head: Value, output: &RunOutput, tail: Value) -> Value {
    let result = &output.result;
    let outcome = json!({
        "policy": result.policy(),
        "servers": result.servers(),
        "steps": result.steps().len(),
        "avg_teg_w_per_server": result.average_teg_power().ok().map(|w| w.value()),
        "pre": result.pre(),
        "partial_pue": result.partial_pue().ok(),
        "partial_ere": result.partial_ere().ok(),
        "violations": result.total_violations(),
        "faulted": output.ledger.is_some(),
    });
    let fields = [head, outcome, tail]
        .into_iter()
        .flat_map(|part| match part {
            Value::Object(fields) => fields,
            _ => Vec::new(),
        });
    Value::Object(fields.collect())
}

/// Renders one drained ticket as its response line.
#[must_use]
pub fn response_json(response: &TicketResponse) -> Value {
    match &response.served {
        Ok(served) => outcome_json(
            json!({
                "event": "result",
                "ticket": response.ticket.0,
                "key": response.key.to_string(),
                "provenance": served.provenance.name(),
            }),
            &served.output,
            json!({}),
        ),
        Err(e) => json!({
            "event": "error",
            "ticket": response.ticket.0,
            "key": response.key.to_string(),
            "error": e.to_string(),
        }),
    }
}

/// Renders a statistics snapshot as its response line.
#[must_use]
pub fn stats_json(stats: &ServeStats) -> Value {
    json!({
        "event": "stats",
        "submitted": stats.submitted,
        "admitted": stats.admitted,
        "rejected_full": stats.rejected_full,
        "rejected_invalid": stats.rejected_invalid,
        "quota_rejected": stats.quota_rejected,
        "coalesced": stats.coalesced,
        "runs_executed": stats.runs_executed,
        "engine_builds": stats.engine_builds,
        "drains": stats.drains,
        "completed": stats.completed,
        "queue_depth": stats.queue_depth,
        "queue_capacity": stats.queue_capacity,
        "cache_hits": stats.cache.hits,
        "cache_misses": stats.cache.misses,
        "cache_evictions": stats.cache.evictions,
        "cache_entries": stats.cache.entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_lines_parse_with_defaults() {
        let cmd = parse_line(r#"{"trace":"common"}"#).unwrap();
        let Command::Run(req) = cmd else {
            panic!("expected run")
        };
        assert_eq!(req.trace.kind, TraceKind::Common);
        assert_eq!(req.trace.seed, 42);
        assert_eq!((req.trace.servers, req.trace.steps), (40, 24));
        assert_eq!(req.policy, PolicyKind::LoadBalance);
        assert_eq!(req.fault_seed, None);
        assert_eq!(req.servers_per_circulation, 40);
        assert_eq!(req.workers.get(), 1);
    }

    #[test]
    fn run_lines_parse_every_field() {
        let line = r#"{"cmd":"run","trace":"drastic","seed":7,"servers":80,"steps":12,
            "policy":"bounded_migration","max_step":0.2,"faults":11,
            "circulation":20,"workers":4}"#;
        let Command::Run(req) = parse_line(line).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(req.trace.kind, TraceKind::Drastic);
        assert_eq!(req.trace.seed, 7);
        assert_eq!(req.policy, PolicyKind::BoundedMigration { max_step: 0.2 });
        assert_eq!(req.fault_seed, Some(11));
        assert_eq!(req.servers_per_circulation, 20);
        assert_eq!(req.workers.get(), 4);
    }

    #[test]
    fn tenant_field_parses_and_defaults_to_unattributed() {
        let Command::Run(req) = parse_line(r#"{"trace":"common","tenant":"acme"}"#).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(req.tenant.as_deref(), Some("acme"));
        let Command::Run(req) = parse_line(r#"{"trace":"common"}"#).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(req.tenant, None);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let extra = parse_line(r#"{"trace":"common","priority":"urgent","colour":7}"#).unwrap();
        assert_eq!(extra, parse_line(r#"{"trace":"common"}"#).unwrap());
    }

    #[test]
    fn control_lines_parse() {
        assert_eq!(parse_line(r#"{"cmd":"drain"}"#).unwrap(), Command::Drain);
        assert_eq!(parse_line(r#"{"cmd":"stats"}"#).unwrap(), Command::Stats);
    }

    #[test]
    fn malformed_lines_produce_reasons_not_panics() {
        for (line, needle) in [
            ("{", "bad json"),
            (r#"{"cmd":"nope"}"#, "unknown cmd"),
            (r#"{"cmd":"run"}"#, "missing \"trace\""),
            (r#"{"trace":"lunar"}"#, "unknown trace"),
            (r#"{"trace":"common","policy":"fifo"}"#, "unknown policy"),
            (
                r#"{"trace":"common","policy":"bounded_migration"}"#,
                "max_step",
            ),
            (r#"{"trace":"common","workers":0}"#, "workers"),
            (r#"{"trace":"common","seed":1.5}"#, "seed"),
            (r#"{"trace":"common","tenant":7}"#, "tenant"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn parsed_requests_key_like_constructed_ones() {
        let Command::Run(parsed) =
            parse_line(r#"{"trace":"irregular","seed":3,"servers":60,"steps":9}"#).unwrap()
        else {
            panic!("expected run")
        };
        let constructed = ScenarioRequest::new(
            TraceSpec {
                kind: TraceKind::Irregular,
                seed: 3,
                servers: 60,
                steps: 9,
            },
            PolicyKind::LoadBalance,
        );
        assert_eq!(parsed.key(), constructed.key());
    }

    #[test]
    fn read_line_bounds_each_line_and_keeps_reading() {
        let longest = "x".repeat(MAX_REQUEST_BYTES);
        let input = format!("a\r\n{longest}\n{longest}yz\n\nlast");
        let mut input = std::io::Cursor::new(input.into_bytes());
        let mut next = || read_line(&mut input).unwrap();
        assert_eq!(next(), Some(InputLine::Line("a".to_owned())));
        assert_eq!(next(), Some(InputLine::Line(longest.clone())));
        assert_eq!(next(), Some(InputLine::TooLong));
        assert_eq!(next(), Some(InputLine::Line(String::new())));
        assert_eq!(next(), Some(InputLine::Line("last".to_owned())));
        assert_eq!(next(), None);

        let mut unterminated = std::io::Cursor::new(format!("{longest}y").into_bytes());
        assert_eq!(
            read_line(&mut unterminated).unwrap(),
            Some(InputLine::TooLong)
        );
        assert_eq!(read_line(&mut unterminated).unwrap(), None);
    }

    #[test]
    fn read_line_reports_a_non_utf8_line_and_reads_on() {
        let mut binary = std::io::Cursor::new(b"\xff\r\n{}\nok\xc3\n\xc3\xa9".to_vec());
        let mut next = || read_line(&mut binary).unwrap();
        assert_eq!(next(), Some(InputLine::NotUtf8));
        assert_eq!(next(), Some(InputLine::Line("{}".to_owned())));
        // A truncated sequence, and a valid one without a line ending.
        assert_eq!(next(), Some(InputLine::NotUtf8));
        assert_eq!(next(), Some(InputLine::Line("\u{e9}".to_owned())));
        assert_eq!(next(), None);
    }
}
