//! Process-level regression tests for the `h2p-served` daemon's I/O
//! contract: EOF triggers a final drain (queued work is never
//! stranded), a closed downstream pipe (EPIPE-equivalent) is a quiet
//! exit-0 shutdown rather than a panic, admission flags reach the
//! service, a bad flag exits 2 with the usage line, an over-long line
//! is an error event that is never buffered, and a line that is not
//! UTF-8 is an error event the session reads past. Two smoke runs pipe
//! whole sessions through the daemon: a JSONL round trip with a
//! coalesced duplicate, and streamed plain and faulted runs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};

fn daemon(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_h2p-served"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn h2p-served")
}

const RUN_LINE: &str =
    r#"{"cmd":"run","trace":"common","seed":3,"servers":20,"steps":2,"circulation":20}"#;

#[test]
fn eof_final_drain_answers_queued_work() {
    let mut child = daemon(&[]);
    {
        let stdin = child.stdin.as_mut().unwrap();
        // Two distinct runs, queued but never explicitly drained.
        writeln!(stdin, "{RUN_LINE}").unwrap();
        writeln!(
            stdin,
            r#"{{"cmd":"run","trace":"common","seed":4,"servers":20,"steps":2,"circulation":20}}"#
        )
        .unwrap();
    }
    drop(child.stdin.take()); // EOF
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "exit: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"enqueued\""))
            .count(),
        2,
        "both runs admitted: {stdout}"
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"result\""))
            .count(),
        2,
        "EOF drained both queued tickets: {stdout}"
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"event\":\"bye\"") && l.contains("\"served\":2")),
        "bye line accounts for the final drain: {stdout}"
    );
}

#[test]
fn closed_stdout_pipe_exits_zero_without_panic() {
    let mut child = daemon(&[]);
    // Read the first admission line so we know the daemon is live,
    // then close our end of its stdout — the EPIPE-equivalent.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(stdin, "{RUN_LINE}").unwrap();
    }
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains("\"event\":\"enqueued\""), "{first}");
    drop(reader);

    // Keep talking into the void until the daemon notices its stdout
    // is gone and exits (writes on our side may fail once it does —
    // that's the expected shutdown, not a test failure).
    {
        let stdin = child.stdin.as_mut().unwrap();
        for _ in 0..64 {
            if writeln!(stdin, "{{\"cmd\":\"stats\"}}").is_err() {
                break;
            }
        }
    }
    drop(child.stdin.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "broken pipe must exit 0, got {status:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        !stderr.contains("panic"),
        "no panic on closed stdout: {stderr}"
    );
    assert!(
        !stderr.contains("stdout write failed"),
        "broken pipe is a quiet shutdown, not a diagnostic: {stderr}"
    );
}

#[test]
fn tenant_quota_flag_reaches_admission() {
    let mut child = daemon(&["--tenant-quota", "1"]);
    {
        let stdin = child.stdin.as_mut().unwrap();
        for seed in [5, 6] {
            writeln!(
                stdin,
                r#"{{"cmd":"run","trace":"common","seed":{seed},"servers":20,"steps":2,"circulation":20,"tenant":"acme"}}"#
            )
            .unwrap();
        }
    }
    drop(child.stdin.take());
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "exit: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].contains("\"event\":\"enqueued\""),
        "first request fits the quota: {stdout}"
    );
    assert!(
        lines[1].contains("\"event\":\"rejected\"") && lines[1].contains("quota exceeded"),
        "second request trips the quota: {stdout}"
    );
}

#[test]
fn bad_cache_flag_exits_two_with_the_usage_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_h2p-served"))
        .args(["--cache", "-1"])
        .stdin(Stdio::null())
        .output()
        .expect("run h2p-served");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("bad or incomplete flag \"--cache\""),
        "{stderr}"
    );
    assert!(output.stdout.is_empty(), "a usage error serves nothing");
}

/// Pipes `lines` into a fresh daemon, closes its stdin and returns its
/// stdout once it exits 0.
fn session(lines: &[&str]) -> String {
    let mut child = daemon(&[]);
    {
        let stdin = child.stdin.as_mut().unwrap();
        for line in lines {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    drop(child.stdin.take());
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "exit: {:?}", output.status);
    String::from_utf8(output.stdout).unwrap()
}

#[test]
fn jsonl_round_trip_coalesces_the_duplicate_on_one_engine() {
    let run = r#"{"cmd":"run","trace":"common","seed":7,"servers":80,"steps":12,"workers":2}"#;
    let stdout = session(&[
        run,
        run,
        r#"{"cmd":"run","trace":"common","seed":7,"servers":80,"steps":12,"workers":2,"circulation":20}"#,
        r#"{"cmd":"drain"}"#,
        r#"{"cmd":"stats"}"#,
    ]);
    for needle in [
        r#""event":"result""#,
        r#""coalesced":1"#,
        r#""engine_builds":1"#,
        r#""runs_executed":2"#,
    ] {
        assert!(stdout.contains(needle), "{needle} missing: {stdout}");
    }
}

#[test]
fn streamed_plain_and_faulted_runs_are_served() {
    let stdout = session(&[
        r#"{"cmd":"run","trace":"common","seed":7,"servers":2048,"steps":64,"circulation":1}"#,
        r#"{"cmd":"run","trace":"common","seed":7,"servers":2048,"steps":64,"circulation":1,"faults":11}"#,
        r#"{"cmd":"drain"}"#,
    ]);
    for (ticket, faulted) in [(0, false), (1, true)] {
        let head = format!(r#""event":"result","ticket":{ticket},"#);
        let faulted = format!(r#""faulted":{faulted}"#);
        assert!(
            stdout.lines().any(|line| line.contains(&head)
                && line.contains(r#""servers":2048,"steps":64,"#)
                && line.contains(&faulted)),
            "no result line for ticket {ticket} with {faulted}: {stdout}"
        );
    }
}

/// A child's peak resident set (`VmHWM`) in KiB, where `/proc` exposes
/// it.
fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn an_over_long_line_is_one_error_event_and_is_never_buffered() {
    let mut child = daemon(&[]);
    let mut stdin = child.stdin.take().unwrap();
    // 64 MiB without a newline, then a line that must still be served.
    let chunk = vec![b'x'; 1 << 16];
    for _ in 0..1024 {
        stdin.write_all(&chunk).unwrap();
    }
    writeln!(stdin).unwrap();
    writeln!(stdin, "{RUN_LINE}").unwrap();
    writeln!(stdin, r#"{{"cmd":"drain"}}"#).unwrap();
    stdin.flush().unwrap();

    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let read = reader.read_line(&mut line).unwrap();
        assert!(read > 0, "stdout closed before the result: {lines:?}");
        let served = line.contains(r#""event":"result""#);
        lines.push(line);
        if served {
            break;
        }
    }
    // Read before EOF: the daemon is still live, past the long line.
    let peak_kib = peak_rss_kib(child.id());
    drop(stdin);
    assert!(child.wait().unwrap().success());

    let errors: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"error""#))
        .collect();
    assert_eq!(errors.len(), 1, "{lines:?}");
    assert!(errors[0].contains("longer than 1048576 bytes"), "{lines:?}");
    assert!(lines[1].contains(r#""event":"enqueued""#), "{lines:?}");
    match peak_kib {
        Some(kib) => assert!(kib < 16 * 1024, "VmHWM {kib} kB after a 64 MiB line"),
        None => eprintln!("note: /proc/<pid>/status unavailable, peak memory not checked"),
    }
}

#[test]
fn a_non_utf8_line_is_one_error_event_and_the_session_goes_on() {
    let mut child = daemon(&[]);
    {
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(b"\xff\n").unwrap();
        writeln!(stdin, "{RUN_LINE}").unwrap();
        writeln!(stdin, r#"{{"cmd":"drain"}}"#).unwrap();
    }
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "exit: {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).unwrap();
    let count = |needle: &str| stdout.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count(r#""event":"error""#), 1, "{stdout}");
    assert_eq!(count("not UTF-8"), 1, "{stdout}");
    assert_eq!(count(r#""event":"result""#), 1, "{stdout}");
    assert_eq!(count(r#""served":1"#), 1, "{stdout}");
    assert!(stdout.contains(r#""event":"bye""#), "{stdout}");
}
