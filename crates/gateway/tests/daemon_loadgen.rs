//! Process-level smoke test of the two gateway binaries together:
//! `h2p-gatewayd --replicas 2` on an ephemeral loopback port, driven by
//! `h2p-loadgen --verify-direct --require-ok`. It passes when the
//! served bytes of a scenario equal a direct engine run and every
//! request is answered 200. A guard kills and reaps the daemon on every
//! exit path, so no process is left running.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Kills and reaps the daemon when dropped, on success or panic alike.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn loadgen_gets_direct_run_bytes_from_two_replicas() {
    let mut daemon = Reaped(
        Command::new(env!("CARGO_BIN_EXE_h2p-gatewayd"))
            .args(["--addr", "127.0.0.1:0", "--replicas", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn h2p-gatewayd"),
    );
    // The daemon's one stdout line names the port it bound.
    let mut stdout = BufReader::new(daemon.0.stdout.take().unwrap());
    let mut listening = String::new();
    stdout.read_line(&mut listening).unwrap();
    let event: serde_json::Value = serde_json::from_str(&listening).expect(&listening);
    let addr = event
        .get("addr")
        .and_then(serde_json::Value::as_str)
        .expect(&listening);

    let output = Command::new(env!("CARGO_BIN_EXE_h2p-loadgen"))
        .args(["--addr", addr])
        .args(["--requests", "64", "--rate", "200", "--connections", "4"])
        .args(["--scenarios", "8", "--zipf", "1.0"])
        .args(["--servers", "40", "--steps", "4"])
        .args(["--verify-direct", "--require-ok"])
        .output()
        .expect("run h2p-loadgen");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(stderr.contains("served == direct"), "{stderr}");
    let report = String::from_utf8(output.stdout).unwrap();
    assert!(report.contains(r#""event":"load_report""#), "{report}");
}
