//! Connection-scale load smoke for the service frontend.
//!
//! Boots an in-process server, parks a swarm of idle sockets on it,
//! drives a set of concurrent request loops for a fixed wall-clock
//! window, then cross-checks the wire `METRICS` line:
//!
//! * the live-connection gauge equals the parked swarm (plus the probe)
//!   while the loops run, and returns there after they disconnect;
//! * no connection was refused (capacity is sized to fit the test);
//! * no transient accept error fired on a healthy loopback listener;
//! * every accepted connection is accounted for.
//!
//! Any violated invariant exits nonzero, so CI runs this as its
//! `load-smoke` job. A summary line reports sustained requests/second.
//!
//! Environment knobs: `BLITZ_LOAD_CLIENTS` (request loops, default 8),
//! `BLITZ_LOAD_IDLE` (idle swarm, default 500), `BLITZ_LOAD_SECS`
//! (request window, default 2).

use blitz_service::server::response_field;
use blitz_service::{Client, OptimizerService, Server, ServerOptions, ServiceConfig};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One `METRICS` probe; returns the named counter.
fn metric(addr: SocketAddr, field: &str) -> u64 {
    let mut client = Client::connect(addr).expect("metrics probe connect");
    let line = client.metrics().expect("METRICS");
    response_field(&line, field)
        .unwrap_or_else(|| panic!("no {field}= in {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {field}= in {line}"))
}

/// Poll `field` until `ok` holds or `patience` runs out.
fn await_metric(
    addr: SocketAddr,
    field: &str,
    patience: Duration,
    ok: impl Fn(u64) -> bool,
) -> u64 {
    let deadline = Instant::now() + patience;
    loop {
        let got = metric(addr, field);
        if ok(got) || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Run the smoke; returns an error message on the first violated
/// invariant.
fn smoke(clients: usize, idle_count: usize, secs: u64) -> Result<(), String> {
    let service = Arc::new(OptimizerService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    }));
    let options = ServerOptions {
        read_timeout: None,
        request_deadline: None,
        max_connections: idle_count + clients + 16,
        ..ServerOptions::default()
    };
    let server = Server::bind_with("127.0.0.1:0", service, options)
        .map_err(|e| format!("bind: {e}"))?;
    let (addr, _serving) = server.spawn().map_err(|e| format!("spawn: {e}"))?;

    // Park the idle swarm and wait for every socket to be accepted.
    let idle: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(addr).map_err(|e| format!("idle connect: {e}")))
        .collect::<Result<_, _>>()?;
    let live = await_metric(addr, "live_connections", Duration::from_secs(30), |v| {
        v >= idle_count as u64
    });
    if live < idle_count as u64 {
        return Err(format!("only {live} of {idle_count} idle sockets accepted"));
    }

    // Active traffic through the same frontend while the swarm sits.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let loops: Vec<_> = (0..clients)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                while !stop.load(Ordering::Relaxed) {
                    let resp = client
                        .request("OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05")
                        .map_err(|e| format!("request: {e}"))?;
                    if !resp.starts_with("OK ") {
                        return Err(format!("bad response: {resp}"));
                    }
                    served.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        })
        .collect();
    let window = Duration::from_secs(secs);
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    for handle in loops {
        handle.join().map_err(|_| "request loop panicked".to_string())??;
    }
    let served = served.load(Ordering::Relaxed);
    if served == 0 {
        return Err("no request completed inside the window".to_string());
    }

    // Metrics-based invariants.
    let refused = metric(addr, "connections_refused");
    if refused != 0 {
        return Err(format!("{refused} connections refused with capacity to spare"));
    }
    let transient = metric(addr, "accept_transient_errors");
    if transient != 0 {
        return Err(format!("{transient} transient accept errors on a loopback listener"));
    }
    let accepted = metric(addr, "connections_accepted");
    if accepted < (idle_count + clients) as u64 {
        return Err(format!(
            "only {accepted} accepts recorded for {idle_count} idle + {clients} clients"
        ));
    }
    // The request loops have hung up; the swarm (plus the probe) is all
    // that may remain live.
    let live = await_metric(addr, "live_connections", Duration::from_secs(10), |v| {
        v <= idle_count as u64 + 1
    });
    if live > idle_count as u64 + 1 {
        return Err(format!("{live} live connections after loops left (swarm is {idle_count})"));
    }
    drop(idle);
    let drained = await_metric(addr, "live_connections", Duration::from_secs(10), |v| v <= 1);
    if drained > 1 {
        return Err(format!("{drained} connections leaked after the swarm left"));
    }

    println!(
        "load-smoke: {served} requests in {window:?} ({rate:.0}/s) \
         over {clients} clients with {idle_count} idle connections parked",
        rate = served as f64 / window.as_secs_f64(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let clients = env_usize("BLITZ_LOAD_CLIENTS", 8).max(1);
    let idle = env_usize("BLITZ_LOAD_IDLE", 500);
    let secs = env_usize("BLITZ_LOAD_SECS", 2).max(1) as u64;
    match smoke(clients, idle, secs) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("load-smoke FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}
