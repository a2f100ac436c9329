//! `h2p-gatewayd`: the HTTP gateway daemon.
//!
//! ```text
//! h2p-gatewayd --addr 127.0.0.1:0 --replicas 4 --tenant-quota 32
//! ```
//!
//! Binds the address, prints one `{"event":"listening","addr":...}`
//! line to stdout (so scripts can discover an ephemeral port), then
//! serves until the process is killed. `POST /run` serves scenarios,
//! `GET /stats` aggregated statistics, `GET /healthz` liveness.

use h2p_gateway::{Gateway, GatewayConfig};
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

fn main() -> ExitCode {
    let mut config = GatewayConfig::default();
    let mut addr = "127.0.0.1:0".to_owned();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        let take_usize = || value.and_then(|v| v.parse::<usize>().ok());
        match flag {
            "--addr" => match value {
                Some(v) => {
                    addr = v.clone();
                    i += 2;
                }
                None => return usage(flag),
            },
            "--replicas" => match take_usize().and_then(NonZeroUsize::new) {
                Some(n) => {
                    config.replicas = n;
                    i += 2;
                }
                None => return usage(flag),
            },
            "--workers" => match take_usize().and_then(NonZeroUsize::new) {
                Some(n) => {
                    config.request_workers = n;
                    i += 2;
                }
                None => return usage(flag),
            },
            "--help" | "-h" => {
                eprintln!(
                    "h2p-gatewayd: sharded HTTP scenario gateway\n\
                     usage: h2p-gatewayd [--addr HOST:PORT] [--replicas N] [--workers N]\n\
                     \x20                 [--queue N] [--cache N] [--dispatch N] [--tenant-quota N]\n\
                     endpoints: POST /run, GET /stats, GET /healthz"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                if !config.service.apply_flag(other, value.map(String::as_str)) {
                    return usage(other);
                }
                i += 2;
            }
        }
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("h2p-gatewayd: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = match listener.local_addr() {
        Ok(local) => local.to_string(),
        Err(_) => addr.clone(),
    };
    println!(
        "{}",
        serde_json::json!({
            "event": "listening",
            "addr": local,
            "replicas": config.replicas.get(),
        })
    );
    // Scripted readers need the line *now*, not at buffer flush.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let gateway = Gateway::new(config);
    let shutdown = AtomicBool::new(false);
    match gateway.serve(&listener, &shutdown) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("h2p-gatewayd: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(flag: &str) -> ExitCode {
    eprintln!("h2p-gatewayd: bad or incomplete flag {flag:?} (see --help)");
    ExitCode::from(2)
}
