//! The gateway's front door under pressure: a connection over the
//! backlog is answered 503 while the queued one is still served, and a
//! failed `accept` (the daemon out of file descriptors) is counted and
//! retried instead of ending the daemon. Guards stop the in-process
//! gateway and kill and reap the daemon on every exit path.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use h2p_gateway::{Gateway, GatewayConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Sets `shutdown` when dropped, so a failed assertion inside a
/// `thread::scope` stops `Gateway::serve` instead of hanging the test.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Kills and reaps the daemon when dropped, on success or panic alike.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

/// Sends `GET target` on `stream` and reads one response.
fn get(mut stream: &TcpStream, target: &str, keep_alive: bool) -> (u16, String) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nhost: h2p\r\nconnection: {connection}\r\n\r\n"
    )
    .unwrap();
    read_response(stream)
}

/// Reads one response's status and its `content-length` framed body.
fn read_response(stream: &TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line: {line:?}"));
    let mut length = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let Some((name, value)) = line.trim_end().split_once(':') else {
            break;
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = value.trim().parse().unwrap();
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn a_connection_over_the_backlog_gets_a_503_and_the_queued_one_is_served() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let gw = Gateway::new(GatewayConfig {
        request_workers: NonZeroUsize::MIN,
        conn_backlog: 1,
        idle_timeout_millis: 60_000,
        ..GatewayConfig::default()
    });
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gw.serve(&listener, &shutdown));
        let stop = ShutdownOnDrop(&shutdown);

        // The one worker answers A and keeps it, waiting for A's next
        // request.
        let a = connect(&addr);
        assert_eq!(get(&a, "/healthz", true).0, 200);
        // B fills the one-connection backlog, so C is over it.
        let b = connect(&addr);
        let c = connect(&addr);
        let (status, body) = read_response(&c);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("connection backlog full"), "{body}");
        assert_eq!((&c).read(&mut [0u8; 1]).unwrap(), 0, "C is closed");
        // Closing A frees the worker for the queued B.
        drop(a);
        let (status, body) = get(&b, "/healthz", false);
        assert_eq!(status, 200, "{body}");

        drop(stop);
        server.join().unwrap().expect("serve exits cleanly");
    });
}

#[test]
fn a_failed_accept_is_counted_and_the_daemon_keeps_serving() {
    if Command::new("sh").args(["-c", "exit 0"]).status().is_err() {
        eprintln!("skipped: no `sh` to lower the daemon's descriptor limit with");
        return;
    }
    // `ulimit` lowers the limit for the daemon alone; `exec` keeps its
    // pid, so the guard kills the daemon itself.
    let mut daemon = Reaped(
        Command::new("sh")
            .args([
                "-c",
                r#"ulimit -n 32 && exec "$0" --addr 127.0.0.1:0 --replicas 1"#,
                env!("CARGO_BIN_EXE_h2p-gatewayd"),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn h2p-gatewayd"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().unwrap());
    let mut listening = String::new();
    stdout.read_line(&mut listening).unwrap();
    let event: Value = serde_json::from_str(&listening).expect(&listening);
    let addr = event
        .get("addr")
        .and_then(Value::as_str)
        .expect(&listening)
        .to_owned();

    // More idle connections than the daemon has descriptors for: once
    // it holds 32, its accepts fail while the rest wait to be accepted.
    let idle: Vec<TcpStream> = (0..40).map(|_| connect(&addr)).collect();
    std::thread::sleep(Duration::from_millis(500));
    drop(idle);

    let (status, body) = get(&connect(&addr), "/healthz", false);
    assert_eq!(status, 200, "{body}");
    let (status, body) = get(&connect(&addr), "/stats", false);
    assert_eq!(status, 200, "{body}");
    let stats: Value = serde_json::from_str(&body).expect(&body);
    let accept_errors = stats.get("accept_errors").and_then(Value::as_f64);
    assert!(accept_errors.is_some_and(|n| n > 0.0), "{body}");
    assert!(
        daemon.0.try_wait().unwrap().is_none(),
        "the daemon must still run"
    );
}
