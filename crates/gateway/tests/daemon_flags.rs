//! Process-level tests of the `h2p-gatewayd` flag surface: a bad or
//! retired flag exits 2 with the usage line on stderr, and `--help`
//! exits 0. Every case fails or returns before the daemon binds an
//! address, so no port is taken and no process is left running.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

fn gatewayd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_h2p-gatewayd"))
        .args(args)
        .output()
        .expect("run h2p-gatewayd")
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let output = gatewayd(args);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("bad or incomplete flag \"{flag}\"")),
        "{args:?}: {stderr}"
    );
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn retired_vnodes_flag_is_a_usage_error() {
    assert_usage_error(&["--vnodes", "4"], "--vnodes");
}

#[test]
fn zero_replicas_is_a_usage_error() {
    assert_usage_error(&["--replicas", "0"], "--replicas");
}

#[test]
fn bad_service_flag_values_are_usage_errors() {
    assert_usage_error(&["--dispatch", "0"], "--dispatch");
    assert_usage_error(&["--queue", "x"], "--queue");
}

#[test]
fn help_exits_zero_with_the_usage_text() {
    let output = gatewayd(&["--help"]);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(stderr.contains("usage: h2p-gatewayd"), "{stderr}");
}
