//! Process-level regression tests for the `h2p-served` daemon's I/O
//! contract: EOF triggers a final drain (queued work is never
//! stranded), a closed downstream pipe (EPIPE-equivalent) is a quiet
//! exit-0 shutdown rather than a panic, admission flags reach the
//! service, and a bad flag exits 2 with the usage line.

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
