//! Line-protocol TCP frontend for [`OptimizerService`].
//!
//! One request per line, one response line per request, UTF-8, `\n`
//! terminated. Verbs:
//!
//! ```text
//! OPTIMIZE cards=10,20,30 preds=0:1:0.1;1:2:0.2 [model=k0|sm|dnl|smdnl]
//!          [deadline_ms=N]
//! METRICS
//! PING
//! QUIT
//! ```
//!
//! Responses start with `OK ` or `ERR `. An `OPTIMIZE` response carries
//! space-separated `key=value` fields with `plan=` last (the plan
//! expression contains spaces):
//!
//! ```text
//! OK cost=2.410000e5 card=2.400000e4 passes=1 source=exact \
//!    source_detail=conv cache=miss micros=412 plan=((R0 x R1) x R2)
//! ```
//!
//! Every exact answer comes from one DP configuration, the service's
//! ([`crate::ServiceConfig`]): the wire picks no driver and no threshold
//! schedule. `source_detail=` names the driver that ran (`conv` on κ₀,
//! `conv_canonical` on the κ″ models). `passes=` counts the threshold
//! passes the DP took: every exact DP runs one pass capped just above
//! the cost of greedy GOO's plan ([`crate::certified_schedule`]), so an
//! exact answer reads `passes=1`, or `2` should that cap ever fail and
//! the uncapped fallback pass run. Greedy answers read `passes=0`.
//!
//! Queries with more than `MAX_RELS` relations are accepted too: they
//! bypass the cache and run the anytime ladder (when configured),
//! whose responses add `rung= rung_reached= gap= gap_basis=
//! greedy_cost= refine_steps= dp_blocks= ladder_micros=` before
//! `plan=`.
//!
//! One readiness-loop frontend serves the protocol (see
//! [`crate::net`]): it multiplexes every connection on one event loop,
//! answers what it can on the spot and queues only DP and ladder work
//! on the service's worker pool. Transient accept failures (fd
//! exhaustion, aborted handshakes) are counted and retried with backoff,
//! never fatal. Admission control for optimization work lives in the
//! service (bounded worker queue), not the listener.

use crate::metrics::Metrics;
use crate::{
    Begun, BigRequest, BigSpec, CacheOutcome, ModelId, OptimizerService, PlanSource, Request,
    Response,
};
use blitz_core::{JoinSpec, MAX_RELS};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

/// First pause after a transient accept error; doubles per consecutive
/// failure up to [`ACCEPT_BACKOFF_MAX`], resetting on the next success.
pub(crate) const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Ceiling for the accept-error backoff. Under sustained fd exhaustion
/// the listener retries ~10×/s instead of spinning — new sockets get
/// served the moment pressure lifts.
pub(crate) const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Classify an accept-path error: `true` means count it, back off
/// briefly, and keep accepting (resource pressure or a peer that gave
/// up mid-handshake); `false` means the listener itself is broken and
/// the frontend should surface the error.
///
/// Transient by kind: aborted/reset handshakes, signal interruptions,
/// timeouts, spurious wakeups. Transient by errno (resource pressure
/// `ErrorKind` doesn't portably name): `ENOMEM`, `ENFILE`, `EMFILE`,
/// `EPROTO`, `ENOBUFS`.
pub(crate) fn is_transient_accept_error(e: &io::Error) -> bool {
    use io::ErrorKind::*;
    if matches!(
        e.kind(),
        ConnectionAborted | ConnectionReset | Interrupted | TimedOut | WouldBlock
    ) {
        return true;
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const TRANSIENT_ERRNOS: &[i32] = &[12, 23, 24, 71, 105];
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const TRANSIENT_ERRNOS: &[i32] = &[12, 23, 24, 55, 100];
    e.raw_os_error().is_some_and(|code| TRANSIENT_ERRNOS.contains(&code))
}

/// Refuse a connection at the capacity cap: count it and send the
/// courtesy `ERR` line *nonblocking* — one write attempt into the
/// fresh socket's empty send buffer (which virtually always takes the
/// whole line), never a stall of the accept path. The socket closes on
/// drop either way.
pub(crate) fn refuse_connection(stream: TcpStream, metrics: &Metrics) {
    metrics.connections_refused.fetch_add(1, Relaxed);
    if stream.set_nonblocking(true).is_ok() {
        let _ = (&stream).write(b"ERR server at connection capacity\n");
    }
}

/// Test hook: called before every real `accept`; returning `Some(err)`
/// makes the frontend treat `err` as that accept's outcome. Lets tests
/// inject fd-pressure failures (`EMFILE`, `ECONNABORTED`, …) without
/// destabilizing the whole process with real rlimit games.
pub type AcceptFault = Arc<dyn Fn() -> Option<io::Error> + Send + Sync>;

/// Per-connection resource limits for [`Server`]. Without them a client
/// sending an endless line (no `\n`) grows a server-side buffer without
/// bound, and a client that goes silent mid-request or never reads its
/// replies holds its connection slot forever.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServerOptions {
    /// Maximum accepted request-line length in bytes (excluding the
    /// terminating `\n`). Longer lines get a protocol `ERR` and the
    /// connection is closed (the stream cannot be resynchronized
    /// mid-line).
    pub max_line_bytes: usize,
    /// Close a connection after this long with no bytes from the client;
    /// `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Close a connection whose buffered replies made no progress
    /// towards the client for this long (a client that never reads);
    /// `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Wall-clock budget for receiving one complete request line.
    /// [`read_timeout`](ServerOptions::read_timeout) only bounds the gap
    /// between bytes, so a slow-loris client trickling one byte per
    /// interval would otherwise hold its connection forever; this bounds
    /// the whole accumulation. `None` disables the deadline.
    pub request_deadline: Option<Duration>,
    /// Maximum concurrently served connections. Beyond it, new accepts
    /// are answered `ERR server at connection capacity` (best effort,
    /// nonblocking) and closed instead of occupying a serving slot. `0`
    /// disables the cap.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_line_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            request_deadline: Some(Duration::from_secs(60)),
            max_connections: 256,
        }
    }
}

/// TCP server wrapping a shared [`OptimizerService`].
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) service: Arc<OptimizerService>,
    pub(crate) options: ServerOptions,
    pub(crate) accept_fault: Option<AcceptFault>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`; port 0 picks a free port)
    /// with the default [`ServerOptions`].
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<OptimizerService>) -> io::Result<Server> {
        Server::bind_with(addr, service, ServerOptions::default())
    }

    /// [`bind`](Server::bind) with explicit per-connection limits.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<OptimizerService>,
        options: ServerOptions,
    ) -> io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)?, service, options, accept_fault: None })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Install an accept-path fault injector (see [`AcceptFault`]).
    /// Test-only plumbing: kept public so integration tests can drive
    /// the frontend through synthetic fd pressure.
    #[doc(hidden)]
    pub fn set_accept_fault(&mut self, fault: AcceptFault) {
        self.accept_fault = Some(fault);
    }

    /// Serve forever on the calling thread with the readiness-loop
    /// frontend — at most [`ServerOptions::max_connections`] connections
    /// at a time. Transient accept errors are counted in the service
    /// metrics and retried with backoff; only an unrecoverable listener
    /// error returns. The loop needs a native poller (epoll or kqueue,
    /// see [`crate::net`]): on targets without one this returns
    /// [`io::ErrorKind::Unsupported`].
    #[cfg(any(poller = "epoll", poller = "kqueue"))]
    pub fn run(self) -> io::Result<()> {
        crate::net::frontend::run(self)
    }

    /// The readiness loop needs a native poller.
    #[cfg(not(any(poller = "epoll", poller = "kqueue")))]
    pub fn run(self) -> io::Result<()> {
        drop(self);
        Err(io::Error::new(io::ErrorKind::Unsupported, "no native readiness poller on this target"))
    }

    /// Serve on a background thread; returns the bound address and the
    /// serving thread's handle.
    pub fn spawn(self) -> io::Result<(SocketAddr, std::thread::JoinHandle<io::Result<()>>)> {
        let addr = self.local_addr()?;
        let handle = std::thread::spawn(move || self.run());
        Ok((addr, handle))
    }
}

/// How [`start_line`] left a protocol line.
pub(crate) enum Started {
    /// The reply line, without the trailing newline.
    Reply(String),
    /// An `OPTIMIZE` request the service began; see [`Begun`].
    Optimize(Begun),
}

/// Run the synchronous front half of one protocol line on the calling
/// thread: parse it, and answer it or begin its optimization.
pub(crate) fn start_line(service: &OptimizerService, line: &str) -> Started {
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let reply = match verb.to_ascii_uppercase().as_str() {
        "PING" => "OK pong".to_string(),
        "METRICS" => format!("OK {}", service.snapshot().to_line()),
        "OPTIMIZE" => {
            // `parse_optimize` has already rejected every selectivity
            // `Request::validate` would.
            let begun = parse_optimize(rest).map(|wire| match wire {
                WireRequest::Small(req) => service.begin(&req),
                WireRequest::Big(req) => service.begin_big(&req),
            });
            match begun {
                Ok(begun) => return Started::Optimize(begun),
                Err(msg) => format!("ERR {msg}"),
            }
        }
        other => format!("ERR unknown verb {other:?} (expected OPTIMIZE|METRICS|PING|QUIT)"),
    };
    Started::Reply(reply)
}

/// Execute one protocol line against `service`, returning the response
/// line (without trailing newline). Blocks while an exact DP runs and
/// runs ladder work inline. Exposed for tests and in-process frontends.
pub fn handle_line(service: &OptimizerService, line: &str) -> String {
    match start_line(service, line) {
        Started::Reply(reply) => reply,
        Started::Optimize(begun) => format_response(&service.wait(begun)),
    }
}

/// A parsed `OPTIMIZE` line: queries that fit [`JoinSpec`]'s bit-set
/// representation take the cached exact path, larger ones the
/// cache-bypassing big path (anytime ladder or flagged greedy).
#[derive(Clone, Debug)]
pub enum WireRequest {
    /// At most [`MAX_RELS`] relations — [`OptimizerService::optimize`].
    Small(Request),
    /// More than [`MAX_RELS`] relations —
    /// [`OptimizerService::optimize_big`].
    Big(BigRequest),
}

/// Parse the argument list of an `OPTIMIZE` line into a [`WireRequest`].
pub fn parse_optimize(args: &str) -> Result<WireRequest, String> {
    let mut cards: Option<Vec<f64>> = None;
    let mut preds: Vec<(usize, usize, f64)> = Vec::new();
    let mut model = ModelId::Kappa0;
    let mut deadline: Option<Duration> = None;

    for token in args.split_whitespace() {
        let (key, value) =
            token.split_once('=').ok_or_else(|| format!("bad token {token:?} (expected key=value)"))?;
        match key {
            "cards" => {
                let parsed: Result<Vec<f64>, _> =
                    value.split(',').map(|c| c.trim().parse::<f64>()).collect();
                cards = Some(parsed.map_err(|_| format!("bad cards {value:?}"))?);
            }
            "preds" => {
                if value.is_empty() {
                    continue;
                }
                for p in value.split(';') {
                    let parts: Vec<&str> = p.split(':').collect();
                    let parsed = (|| -> Option<(usize, usize, f64)> {
                        if parts.len() != 3 {
                            return None;
                        }
                        Some((parts[0].parse().ok()?, parts[1].parse().ok()?, parts[2].parse().ok()?))
                    })();
                    preds.push(parsed.ok_or_else(|| {
                        format!("bad predicate {p:?} (expected i:j:selectivity)")
                    })?);
                }
            }
            "model" => {
                model = ModelId::parse(value)
                    .ok_or_else(|| format!("unknown model {value:?} (expected k0|sm|dnl|smdnl)"))?;
            }
            "deadline_ms" => {
                let ms: u64 = value.parse().map_err(|_| format!("bad deadline_ms {value:?}"))?;
                deadline = Some(Duration::from_millis(ms));
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }

    let cards = cards.ok_or_else(|| "OPTIMIZE requires cards=".to_string())?;

    // Wire-boundary validation beyond `JoinSpec::new` (which catches
    // empty/oversized inputs, nonpositive or non-finite cardinalities
    // and selectivities, self-edges and out-of-range indices): the
    // library deliberately admits selectivities above 1 and duplicate
    // predicates (whose selectivities multiply), but from an untrusted
    // client both are almost certainly mistakes that poison every
    // downstream cardinality estimate. This is the wire's one
    // selectivity check: it covers `Request::validate` and
    // `BigRequest::validate`.
    let mut seen = std::collections::HashSet::new();
    for &(i, j, sel) in &preds {
        if i == j {
            return Err(format!("self-join predicate {i}:{j} (relations must differ)"));
        }
        if !(sel > 0.0 && sel <= 1.0) {
            return Err(format!("selectivity {sel} on predicate {i}:{j} outside (0, 1]"));
        }
        if !seen.insert((i.min(j), i.max(j))) {
            return Err(format!("duplicate predicate for relation pair {i}:{j}"));
        }
    }

    if cards.len() > MAX_RELS {
        // Beyond the bit-set cap: the cached exact path can't represent
        // the query, so it goes to the big path (ladder or flagged
        // greedy).
        let spec = BigSpec::new(&cards, &preds).map_err(|e| e.to_string())?;
        return Ok(WireRequest::Big(BigRequest { spec, model, deadline }));
    }
    let spec = JoinSpec::new(&cards, &preds).map_err(|e| e.to_string())?;
    Ok(WireRequest::Small(Request { spec, model, schedule: None, deadline, driver: None }))
}

/// Render a [`Response`] as an `OK` protocol line. `source_detail=`
/// carries the provenance detail alone (`queue_full` vs `deadline` for
/// greedy fallbacks, the winning rung for ladder plans); ladder
/// responses additionally report the rung reached, the optimality gap
/// and its basis, and the budget spent, before the trailing `plan=`.
pub fn format_response(resp: &Response) -> String {
    use std::fmt::Write as _;
    // Exact responses report the resolved DP driver as their detail
    // (`exact` for split — the historical value — `conv` or
    // `conv_canonical`); every other source keeps its own detail string.
    let detail = match resp.driver {
        Some(d) if resp.source == PlanSource::Exact => d.detail(),
        _ => resp.source.detail(),
    };
    let mut line = format!(
        "OK cost={:.6e} card={:.6e} passes={} source={} source_detail={} cache={} micros={}",
        resp.cost,
        resp.card,
        resp.passes,
        resp.source.name(),
        detail,
        resp.cache.name(),
        resp.elapsed.as_micros(),
    );
    if let Some(info) = &resp.ladder {
        let _ = write!(
            line,
            " rung={} rung_reached={} gap={:.6e} gap_basis={} greedy_cost={:.6e} \
             refine_steps={} dp_blocks={} ladder_micros={}",
            info.rung.name(),
            info.rung_reached.name(),
            info.gap,
            info.gap_basis.name(),
            info.greedy_cost,
            info.refine_steps,
            info.dp_blocks,
            info.spent.as_micros(),
        );
    }
    let _ = write!(line, " plan={}", resp.plan.to_expr());
    line
}

/// Extract one `key=value` field from a response line; `plan` returns
/// the whole tail (plans contain spaces).
pub fn response_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    if key == "plan" {
        return line.split_once("plan=").map(|(_, tail)| tail);
    }
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Blocking line-protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One-line requests: don't let Nagle hold them for the ACK.
        let _ = stream.set_nodelay(true);
        Ok(Client { reader: BufReader::new(stream) })
    }

    /// Send one request line, receive one response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        {
            let stream = self.reader.get_mut();
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
            stream.flush()?;
        }
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"));
        }
        Ok(response.trim_end().to_string())
    }

    /// `PING` round-trip.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.request("PING")? == "OK pong")
    }

    /// Fetch the server's metrics line (without the `OK ` prefix).
    pub fn metrics(&mut self) -> io::Result<String> {
        let resp = self.request("METRICS")?;
        resp.strip_prefix("OK ")
            .map(str::to_string)
            .ok_or_else(|| io::Error::other(resp))
    }
}

/// Build the `OPTIMIZE` request line for an explicit problem.
pub fn format_optimize_request(
    cards: &[f64],
    preds: &[(usize, usize, f64)],
    model: ModelId,
    deadline: Option<Duration>,
) -> String {
    use std::fmt::Write as _;
    let mut line = String::from("OPTIMIZE cards=");
    for (i, c) in cards.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{c}");
    }
    if !preds.is_empty() {
        line.push_str(" preds=");
        for (i, (u, v, sel)) in preds.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            let _ = write!(line, "{u}:{v}:{sel}");
        }
    }
    let _ = write!(line, " model={}", model.name());
    if let Some(d) = deadline {
        let _ = write!(line, " deadline_ms={}", d.as_millis());
    }
    line
}

/// A server response's outcome flags, parsed back from the wire.
pub fn response_outcomes(line: &str) -> Option<(PlanSource, CacheOutcome)> {
    let source = PlanSource::parse(response_field(line, "source")?)?;
    let cache = match response_field(line, "cache")? {
        "hit" => CacheOutcome::Hit,
        "miss" => CacheOutcome::Miss,
        "shared" => CacheOutcome::Shared,
        "bypass" => CacheOutcome::Bypass,
        _ => return None,
    };
    Some((source, cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    fn service() -> Arc<OptimizerService> {
        Arc::new(OptimizerService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }))
    }

    /// Serve a fresh one-worker service with `options` on a background
    /// thread and return the bound address.
    fn serve(options: ServerOptions) -> SocketAddr {
        let server = Server::bind_with("127.0.0.1:0", service(), options).unwrap();
        let (addr, _handle) = server.spawn().unwrap();
        addr
    }

    #[test]
    fn ping_and_unknown_verbs() {
        let s = service();
        assert_eq!(handle_line(&s, "PING"), "OK pong");
        assert!(handle_line(&s, "FROBNICATE now").starts_with("ERR unknown verb"));
        assert!(handle_line(&s, "METRICS").starts_with("OK requests=0 "));
    }

    #[test]
    fn optimize_line_round_trip() {
        let s = service();
        let line = "OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05 model=k0";
        let resp = handle_line(&s, line);
        assert!(resp.starts_with("OK "), "{resp}");
        assert_eq!(response_field(&resp, "source"), Some("exact"));
        assert_eq!(response_field(&resp, "cache"), Some("miss"));
        let plan = response_field(&resp, "plan").unwrap();
        assert!(plan.contains("R0"), "{plan}");
        // Identical request: served from cache, same cost.
        let resp2 = handle_line(&s, line);
        assert_eq!(response_field(&resp2, "cache"), Some("hit"));
        assert_eq!(response_field(&resp2, "cost"), response_field(&resp, "cost"));
    }

    /// The service runs one DP driver at every size: 2–5-relation κ₀
    /// requests answer `source_detail=conv` and count in `driver_conv`,
    /// and a κ″ model says `conv_canonical`.
    #[test]
    fn small_requests_run_the_conv_driver() {
        let s = service();
        let mut lines: Vec<(String, &str)> = (2..=5)
            .map(|n| {
                let cards: Vec<f64> = (0..n).map(|i| 10.0 * (i + 1) as f64).collect();
                let preds: Vec<(usize, usize, f64)> =
                    (0..n - 1).map(|i| (i, i + 1, 0.1)).collect();
                (format_optimize_request(&cards, &preds, ModelId::Kappa0, None), "conv")
            })
            .collect();
        lines.push((
            "OPTIMIZE cards=10,20,30 preds=0:1:0.1;1:2:0.2 model=sm".to_string(),
            "conv_canonical",
        ));
        // The second round is all cache hits, which must keep the
        // provenance of the DP that filled the entry.
        for cache in ["miss", "hit"] {
            for (line, detail) in &lines {
                let resp = handle_line(&s, line);
                assert_eq!(response_field(&resp, "cache"), Some(cache), "{resp}");
                assert_eq!(response_field(&resp, "source"), Some("exact"), "{resp}");
                assert_eq!(response_field(&resp, "source_detail"), Some(*detail), "{resp}");
            }
        }
        let snap = s.snapshot();
        assert_eq!((snap.driver_conv, snap.driver_split), (5, 0));
    }

    #[test]
    fn optimize_error_paths() {
        let s = service();
        for bad in [
            "OPTIMIZE",
            "OPTIMIZE cards=abc",
            "OPTIMIZE cards=10,20 preds=0:1",
            "OPTIMIZE cards=10,20 model=quantum",
            "OPTIMIZE cards=10,20 frobs=1",
            "OPTIMIZE cards=10,20 preds=0:9:0.5",
            // The wire picks neither the DP driver nor the threshold
            // schedule: both keys are unknown, whatever their value.
            "OPTIMIZE cards=10,20 driver=conv",
            "OPTIMIZE cards=10,20 driver=quantum",
            "OPTIMIZE cards=10,20 threshold=1e9",
            "OPTIMIZE cards=10,20 threshold=-1",
            "OPTIMIZE cards=10,20 threshold=1,2,3,4",
        ] {
            let resp = handle_line(&s, bad);
            assert!(resp.starts_with("ERR "), "{bad:?} → {resp}");
        }
    }

    /// Every malformed float and degenerate edge must die at the wire
    /// boundary with `ERR`, never reach the DP table.
    #[test]
    fn optimize_rejects_poisonous_inputs() {
        let s = service();
        for bad in [
            // Cardinalities: NaN, negative, zero, infinite.
            "OPTIMIZE cards=nan,20",
            "OPTIMIZE cards=-5,20",
            "OPTIMIZE cards=0,20",
            "OPTIMIZE cards=inf,20",
            // Selectivities outside (0, 1].
            "OPTIMIZE cards=10,20 preds=0:1:0",
            "OPTIMIZE cards=10,20 preds=0:1:-1",
            "OPTIMIZE cards=10,20 preds=0:1:nan",
            "OPTIMIZE cards=10,20 preds=0:1:2.0",
            // Self-edge and duplicate edge (in either orientation).
            "OPTIMIZE cards=10,20 preds=1:1:0.5",
            "OPTIMIZE cards=10,20 preds=0:1:0.5;0:1:0.5",
            "OPTIMIZE cards=10,20 preds=0:1:0.5;1:0:0.2",
        ] {
            let resp = handle_line(&s, bad);
            assert!(resp.starts_with("ERR "), "{bad:?} → {resp}");
        }
        // The boundary is exact, not overeager: sel = 1 and sel just
        // below 1 pass.
        let ok = handle_line(&s, "OPTIMIZE cards=10,20 preds=0:1:1");
        assert!(ok.starts_with("OK "), "{ok}");
    }

    /// Pinned protocol behavior: an unterminated trailing line at EOF is
    /// a complete request. A client that writes `PING` (no newline) and
    /// half-closes still gets its pong before the server hangs up.
    #[test]
    fn partial_line_at_eof_is_served() {
        let addr = serve(ServerOptions::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (&stream).write_all(b"PING").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert_eq!(resp, "OK pong\n", "{resp:?}");
        // And the connection closes after the final response.
        resp.clear();
        assert_eq!(reader.read_line(&mut resp).unwrap(), 0, "{resp:?}");
    }

    /// A request line longer than the configured maximum draws a
    /// protocol `ERR` and a closed connection — with memory bounded by
    /// `max_line_bytes`, not by what the client sends.
    #[test]
    fn overlong_line_gets_err_and_close() {
        let options = ServerOptions { max_line_bytes: 64, ..ServerOptions::default() };
        let addr = serve(options);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&[b'x'; 500]).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(
            resp.starts_with("ERR request line exceeds 64 bytes"),
            "{resp}"
        );
        // Connection must be closed after the ERR.
        resp.clear();
        assert_eq!(
            reader.read_line(&mut resp).unwrap(),
            0,
            "expected EOF, got {resp:?}"
        );
    }

    /// The acceptance-criteria malicious client: a 10 MB line. The
    /// server must answer `ERR` (or drop the connection) without
    /// buffering the payload, and keep serving other clients.
    #[test]
    fn survives_ten_megabyte_line() {
        let addr = serve(ServerOptions::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // The server closes mid-upload, so writes may fail with
        // EPIPE/ECONNRESET once its ERR is in flight; that's the point.
        let pump = std::thread::spawn(move || {
            let chunk = vec![b'y'; 64 * 1024];
            for _ in 0..160 {
                if writer.write_all(&chunk).is_err() {
                    break;
                }
            }
            let _ = writer.write_all(b"\n");
        });
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        // Either the ERR line arrives, or the reset beats it; both prove
        // the server cut the connection instead of buffering 10 MB.
        match reader.read_line(&mut resp) {
            Ok(0) => {}
            Ok(_) => assert!(resp.starts_with("ERR request line exceeds"), "{resp}"),
            Err(_) => {}
        }
        pump.join().unwrap();
        // The server is still healthy for a fresh client.
        let mut client = Client::connect(addr).unwrap();
        assert!(client.ping().unwrap());
    }

    /// A client that connects and goes silent must not pin its
    /// connection forever: the read timeout reclaims it.
    #[test]
    fn silent_connection_times_out() {
        let options =
            ServerOptions { read_timeout: Some(Duration::from_millis(100)), ..Default::default() };
        let addr = serve(options);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = std::time::Instant::now();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        // Send nothing. Within the deadline the server must either say
        // why it's hanging up or close outright.
        let n = reader.read_line(&mut resp).unwrap();
        assert!(
            n == 0 || resp.starts_with("ERR connection idle timeout"),
            "unexpected response {resp:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "server held the connection open"
        );
    }

    /// The slow-loris client: bytes trickle in fast enough to defeat the
    /// idle timeout, but the request line never completes. The overall
    /// request deadline must reclaim the connection and say why.
    #[test]
    fn slow_loris_hits_request_deadline() {
        let options = ServerOptions {
            read_timeout: Some(Duration::from_secs(30)),
            request_deadline: Some(Duration::from_millis(300)),
            ..ServerOptions::default()
        };
        let addr = serve(options);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let pump = std::thread::spawn(move || {
            // One byte every 50 ms — each recv is fast, the line never
            // ends. Stop when the server hangs up.
            for _ in 0..100 {
                if writer.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let start = std::time::Instant::now();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) | Err(_) => {}
            Ok(_) => assert!(
                resp.starts_with("ERR request deadline exceeded"),
                "{resp}"
            ),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline did not reclaim the connection"
        );
        pump.join().unwrap();
        // The server is still healthy for a fresh client.
        let mut client = Client::connect(addr).unwrap();
        assert!(client.ping().unwrap());
    }

    /// Beyond `max_connections`, accepts are refused instead of serving
    /// connections without bound — and slots free on disconnect.
    #[test]
    fn connection_cap_refuses_excess_clients() {
        let options = ServerOptions { max_connections: 1, ..ServerOptions::default() };
        let addr = serve(options);
        let mut first = Client::connect(addr).unwrap();
        assert!(first.ping().unwrap()); // connection 1 accepted and serving
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) | Err(_) => {}
            Ok(_) => {
                assert!(
                    resp.starts_with("ERR server at connection capacity"),
                    "{resp}"
                )
            }
        }
        // The admitted client is unaffected...
        assert!(first.ping().unwrap());
        // ...and closing it eventually frees the slot.
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(mut retry) = Client::connect(addr) {
                if retry.ping().unwrap_or(false) {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "capacity never freed"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn request_formatting_parses_back() {
        let line = format_optimize_request(
            &[10.0, 20.0],
            &[(0, 1, 0.5)],
            ModelId::SortMerge,
            Some(Duration::from_millis(250)),
        );
        let req = match parse_optimize(line.strip_prefix("OPTIMIZE ").unwrap()).unwrap() {
            WireRequest::Small(req) => req,
            WireRequest::Big(req) => panic!("2-relation request parsed as big: {req:?}"),
        };
        assert_eq!(req.spec.n(), 2);
        assert_eq!(req.model, ModelId::SortMerge);
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert_eq!((req.schedule, req.driver), (None, None), "the wire sets neither");
    }

    /// The request line's exact bytes: the benchmark's pool digest hashes
    /// them, so a formatting change must show up here first.
    #[test]
    fn request_line_bytes_are_pinned() {
        let line = format_optimize_request(
            &[10.0, 2500.0, 0.5, 1e6],
            &[(0, 1, 0.5), (1, 2, 1e-3), (3, 0, 1.0)],
            ModelId::SmDnl,
            Some(Duration::from_millis(25)),
        );
        assert_eq!(
            line,
            "OPTIMIZE cards=10,2500,0.5,1000000 preds=0:1:0.5;1:2:0.001;3:0:1 model=smdnl \
             deadline_ms=25"
        );
        let bare = format_optimize_request(&[7.0], &[], ModelId::Kappa0, None);
        assert_eq!(bare, "OPTIMIZE cards=7 model=k0");
    }

    /// A request over `MAX_RELS` relations parses to the big path and
    /// round-trips through the service (greedy-flagged here — no ladder
    /// configured), instead of dying with a spec error at the boundary.
    #[test]
    fn oversized_request_takes_the_big_path() {
        let n = MAX_RELS + 9;
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let preds: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
        let line = format_optimize_request(&cards, &preds, ModelId::Kappa0, None);
        let parsed = parse_optimize(line.strip_prefix("OPTIMIZE ").unwrap()).unwrap();
        assert!(matches!(parsed, WireRequest::Big(ref req) if req.spec.n() == n), "{parsed:?}");
        let s = service();
        let resp = handle_line(&s, &line);
        assert!(resp.starts_with("OK "), "{resp}");
        assert_eq!(response_field(&resp, "source"), Some("greedy_over_limit"));
        assert_eq!(response_field(&resp, "source_detail"), Some("over_limit"));
        assert_eq!(response_field(&resp, "cache"), Some("bypass"));
        // `threshold=` and `driver=` are unknown keys on the big path too.
        let with_threshold = format!("{line} threshold=100");
        assert!(handle_line(&s, &with_threshold).starts_with("ERR unknown key"));
        let with_driver = format!("{line} driver=conv");
        assert!(handle_line(&s, &with_driver).starts_with("ERR unknown key"));
    }

    #[test]
    fn tcp_round_trip() {
        let addr = serve(ServerOptions::default());
        let mut client = Client::connect(addr).unwrap();
        assert!(client.ping().unwrap());
        let resp = client
            .request("OPTIMIZE cards=10,20,30,40 preds=0:1:0.1;1:2:0.2;2:3:0.05")
            .unwrap();
        assert!(resp.starts_with("OK "), "{resp}");
        let spec =
            JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.05)])
                .unwrap();
        let direct = blitz_core::optimize_join(&spec, &blitz_core::Kappa0).unwrap();
        assert_eq!(response_field(&resp, "cost"), Some(format!("{:.6e}", direct.cost).as_str()));
        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("requests=1"), "{metrics}");
        assert!(client.request("QUIT").is_err() || client.request("PING").is_err());
    }

    /// Every plan source survives `format_response` → `response_outcomes`.
    /// The exhaustive match (no wildcard) stops a new variant from
    /// compiling until it is listed in `PlanSource::ALL` too.
    #[test]
    fn every_plan_source_round_trips_on_the_wire() {
        use crate::{FallbackReason as F, Rung as R};
        let position = |source: PlanSource| match source {
            PlanSource::Exact => 0,
            PlanSource::Greedy(F::OverLimit) => 1,
            PlanSource::Greedy(F::QueueFull) => 2,
            PlanSource::Greedy(F::DeadlineExceeded) => 3,
            PlanSource::Greedy(F::Abandoned) => 4,
            PlanSource::Greedy(F::OverBudget) => 5,
            PlanSource::Ladder(R::Greedy) => 6,
            PlanSource::Ladder(R::Exact) => 7,
            PlanSource::Ladder(R::HybridDp) => 8,
            PlanSource::Ladder(R::Stochastic) => 9,
        };
        for (i, source) in PlanSource::ALL.into_iter().enumerate() {
            assert_eq!(position(source), i, "{source:?} out of place in PlanSource::ALL");
            let resp = Response {
                plan: blitz_core::Plan::join(blitz_core::Plan::scan(0), blitz_core::Plan::scan(1)),
                cost: 1.0,
                card: 1.0,
                passes: 0,
                source,
                driver: None,
                cache: CacheOutcome::Bypass,
                ladder: None,
                elapsed: Duration::ZERO,
            };
            let line = format_response(&resp);
            assert_eq!(response_outcomes(&line), Some((source, CacheOutcome::Bypass)), "{line}");
            assert_eq!(response_field(&line, "source_detail"), Some(source.detail()), "{line}");
        }
    }
}
