//! The load generator: the warm-up pass, the timed window, and the
//! connection invariants checked at the end of every run.
//!
//! Load comes from this process alone, one thread per [`Stream`], each
//! with its own connection (a TCP [`Client`] for the live server, a
//! direct call for the in-process replay). Every response is checked
//! against its reference as it arrives; failures of any kind — an
//! `ERR`, an I/O error, a wrong answer, a refused connection, an accept
//! error, a leaked connection — count against the requests attempted.

use crate::check::{exact_cost, verify, Expected, Verdict};
use crate::server::{self, get, Metrics};
use crate::workload::{Arrival, Instance};
use blitz_service::server::response_field;
use blitz_service::Client;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Failure messages kept verbatim; the rest are only counted.
const KEPT_FAILURES: usize = 8;

/// Requests attempted, their failures, and what the answers were.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent (plus invariant checks made).
    pub attempted: u64,
    /// Requests or checks that failed.
    pub failed: u64,
    /// Greedy answers to queries the exact path admits.
    pub degraded: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The checked cost returned for each pool entry (first answer).
    pub returned: Vec<Option<f32>>,
    /// Exact answers whose reference was not computed up front.
    pub deferred: Vec<(usize, String)>,
}

impl Tally {
    /// An empty tally for a pool of `entries`.
    pub fn new(entries: usize) -> Tally {
        Tally {
            returned: vec![None; entries],
            ..Tally::default()
        }
    }

    /// Count a failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }

    fn accept(&mut self, entry: usize, verdict: Verdict, line: &str, workload: &str) -> bool {
        match verdict {
            Verdict::Ok(checked) => {
                self.returned[entry].get_or_insert(checked.cost);
                self.degraded += u64::from(checked.degraded);
                true
            }
            Verdict::Deferred => {
                self.deferred.push((entry, line.to_string()));
                true
            }
            Verdict::Wrong(msg) => {
                self.fail(format!("{workload}: {msg}"));
                false
            }
        }
    }

    /// Record one response (or the error that replaced it) for pool
    /// entry `entry`; returns the server-reported service time in µs for
    /// an answer that passed its checks.
    pub fn record(
        &mut self,
        inst: &Instance,
        refs: &[Expected],
        max_exact: usize,
        entry: usize,
        response: &io::Result<String>,
    ) -> Option<f64> {
        self.attempted += 1;
        let line = match response {
            Ok(line) => line,
            Err(e) => {
                self.fail(format!("i/o error: {e}"));
                return None;
            }
        };
        let verdict = verify(line, &inst.pool[entry], &refs[entry], max_exact);
        if !self.accept(entry, verdict, line, inst.workload.name()) {
            return None;
        }
        response_field(line, "micros").and_then(|m| m.parse().ok())
    }

    /// Check the deferred exact answers now that the window is over.
    pub fn settle_deferred(&mut self, inst: &Instance, refs: &[Expected], max_exact: usize) {
        let mut computed: Vec<Option<f32>> = vec![None; inst.pool.len()];
        for (entry, line) in std::mem::take(&mut self.deferred) {
            let exact = *computed[entry].get_or_insert_with(|| exact_cost(&inst.pool[entry]));
            let expected = Expected {
                exact: Some(exact),
                ..refs[entry]
            };
            let verdict = verify(&line, &inst.pool[entry], &expected, max_exact);
            self.accept(entry, verdict, &line, inst.workload.name());
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.degraded += other.degraded;
        let kept = other.failures.len() as u64;
        for msg in other.failures {
            self.fail(msg);
        }
        self.failed += other.failed - kept;
        for (mine, theirs) in self.returned.iter_mut().zip(other.returned) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
        self.deferred.extend(other.deferred);
    }
}

/// One timed response.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Sample {
    /// From a primary stream.
    pub primary: bool,
    /// From the workload's heaviest class.
    pub big: bool,
    /// Reply time minus send time; open-loop requests count from when
    /// they were due, so a late send counts against latency.
    pub latency_us: f64,
    /// The server's own `micros=` for the request.
    pub service_us: f64,
    /// How late an open-loop send left (0 for closed loops).
    pub late_us: f64,
}

/// One stream's connection: sends a request line, returns the reply.
pub trait Conn {
    /// Send request `id`'s `line`; the response line.
    fn send(&mut self, id: u64, line: &str) -> io::Result<String>;
}

impl Conn for Client {
    fn send(&mut self, _id: u64, line: &str) -> io::Result<String> {
        self.request(line)
    }
}

/// A connection that calls a function in-process.
pub struct Direct<'a>(pub &'a (dyn Fn(u64, &str) -> String + Sync));

impl Conn for Direct<'_> {
    fn send(&mut self, id: u64, line: &str) -> io::Result<String> {
        Ok((self.0)(id, line))
    }
}

/// Opens one connection per stream.
pub type Connect<'a> = dyn Fn() -> io::Result<Box<dyn Conn + 'a>> + Sync + 'a;

/// Send pool `entries` (original labeling) over two connections,
/// checking every answer: the warm-up pass.
pub fn warm_up(
    connect: &Connect<'_>,
    inst: &Instance,
    refs: &[Expected],
    max_exact: usize,
    entries: &[usize],
) -> Tally {
    let (a, b) = entries.split_at(entries.len() / 2);
    let run = |part: &[usize]| {
        let mut tally = Tally::new(inst.pool.len());
        let mut conn = match connect() {
            Ok(c) => c,
            Err(e) => {
                tally.fail(format!("warm-up connect: {e}"));
                return tally;
            }
        };
        for &entry in part {
            let response = conn.send(entry as u64, &inst.pool[entry].line());
            tally.record(inst, refs, max_exact, entry, &response);
            if response.is_err() {
                break;
            }
        }
        tally
    };
    std::thread::scope(|s| {
        let first = s.spawn(|| run(a));
        let mut tally = run(b);
        tally.merge(first.join().expect("warm-up thread panicked"));
        tally
    })
}

/// Drive every stream of `inst` for `length` from `start` (or until
/// `stop` says so), one thread and one connection each. Responses that
/// arrive after the window are checked but not timed.
pub fn drive(
    connect: &Connect<'_>,
    inst: &Instance,
    refs: &[Expected],
    max_exact: usize,
    start: Instant,
    length: Duration,
    stop: &(dyn Fn() -> bool + Sync),
) -> (Vec<Sample>, Tally, Duration) {
    let end = start + length;
    let run = |index: usize| {
        let stream = inst.streams[index];
        let mut tally = Tally::new(inst.pool.len());
        let mut samples = Vec::new();
        let mut conn = match connect() {
            Ok(c) => c,
            Err(e) => {
                tally.fail(format!("connect: {e}"));
                return (samples, tally, Instant::now());
            }
        };
        let mut requests = inst.requests(index);
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let mut last = start;
        for k in 0u64.. {
            let due = match stream.arrival {
                Arrival::Closed => Instant::now(),
                Arrival::Open { rate } => start + Duration::from_secs_f64(k as f64 / rate),
            };
            if due >= end || stop() {
                break;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let request = requests.next().expect("request streams are endless");
            let sent = Instant::now();
            let response = conn.send(((index as u64 + 1) << 40) | k, &request.line);
            let done = Instant::now();
            let service = tally.record(inst, refs, max_exact, request.entry, &response);
            if let Some(service_us) = service.filter(|_| done <= end) {
                last = done;
                samples.push(Sample {
                    primary: stream.primary,
                    big: inst.pool[request.entry].big,
                    latency_us: (done - due).as_secs_f64() * 1e6,
                    service_us,
                    late_us: (sent - due).as_secs_f64() * 1e6,
                });
            }
            if response.is_err() {
                break;
            }
        }
        (samples, tally, last)
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..inst.streams.len())
            .map(|i| s.spawn(move || run(i)))
            .collect();
        let mut samples = Vec::new();
        let mut tally = Tally::new(inst.pool.len());
        let mut last = start;
        for h in handles {
            let (s, t, l) = h.join().expect("load thread panicked");
            samples.extend(s);
            tally.merge(t);
            last = last.max(l);
        }
        // A pass cut short by `stop` measures up to its last reply.
        let elapsed = if stop() { last - start } else { length };
        (samples, tally, elapsed)
    })
}

/// Connections the harness opened to one server (the accept-count
/// invariant compares against it).
#[derive(Debug, Default)]
pub struct Opened(AtomicU64);

impl Opened {
    /// Connect to `addr`, counting the connection.
    pub fn connect(&self, addr: SocketAddr) -> io::Result<Client> {
        let client = Client::connect(addr)?;
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(client)
    }

    /// Connections opened so far.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// A [`Connect`] to `addr` counting into `self`.
    pub fn to<'a>(
        &'a self,
        addr: SocketAddr,
    ) -> impl Fn() -> io::Result<Box<dyn Conn + 'a>> + Sync + 'a {
        move || Ok(Box::new(self.connect(addr)?) as Box<dyn Conn + 'a>)
    }
}

/// After the load connections close, poll `METRICS` on one probe
/// connection until the live-connection gauge is back to that probe
/// alone (or five seconds pass), and return the last reading.
pub fn settle(addr: SocketAddr, opened: &Opened) -> io::Result<Metrics> {
    let mut probe = opened.connect(addr)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = server::metrics(&mut probe)?;
        if get(&m, "live_connections") <= 1.0 || Instant::now() >= deadline {
            return Ok(m);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The frontend's invariants over one run: no refusals, no transient
/// accept errors, every opened connection accepted, and the live gauge
/// back to the probe alone. Each violation is one message.
pub fn invariants(before: &Metrics, after: &Metrics, opened: u64) -> Vec<String> {
    let delta = |k: &str| get(after, k) - get(before, k);
    let mut broken = Vec::new();
    if delta("connections_refused") != 0.0 {
        broken.push(format!(
            "{} connections refused",
            delta("connections_refused")
        ));
    }
    if delta("accept_transient_errors") != 0.0 {
        broken.push(format!(
            "{} transient accept errors",
            delta("accept_transient_errors")
        ));
    }
    if get(after, "connections_accepted") < opened as f64 {
        broken.push(format!(
            "{} connections accepted of {opened} opened",
            get(after, "connections_accepted")
        ));
    }
    if get(after, "live_connections") != 1.0 {
        broken.push(format!(
            "{} live connections after the load left (baseline 1, the probe)",
            get(after, "live_connections")
        ));
    }
    broken
}

/// Everything one timed window against a live server yields.
#[derive(Debug)]
pub struct Measured {
    /// Timed responses.
    pub samples: Vec<Sample>,
    /// Attempts, failures and answers (invariant checks included).
    pub tally: Tally,
    /// Server `METRICS` before the window and after it settled.
    pub before: Metrics,
    /// See `before`.
    pub after: Metrics,
    /// Server CPU time spent during the window, in ms.
    pub cpu_ms: f64,
    /// Server peak resident memory at the window's end, in MiB.
    pub rss_peak_mb: f64,
    /// The window's length.
    pub window: Duration,
}

/// Run one timed window against a warmed-up server at `addr` (process
/// `pid`, or this process) and check the connection invariants after it.
pub fn measure(
    addr: SocketAddr,
    pid: Option<u32>,
    opened: &Opened,
    inst: &Instance,
    refs: &[Expected],
    max_exact: usize,
    length: Duration,
) -> io::Result<Measured> {
    let before = server::metrics(&mut opened.connect(addr)?)?;
    let start = server::usage(pid);
    let began = Instant::now() + Duration::from_millis(20);
    let (samples, mut tally, window) = drive(
        &opened.to(addr),
        inst,
        refs,
        max_exact,
        began,
        length,
        &|| false,
    );
    let end = server::usage(pid);
    let after = settle(addr, opened)?;
    for msg in invariants(&before, &after, opened.count()) {
        tally.attempted += 1;
        tally.fail(msg);
    }
    Ok(Measured {
        samples,
        tally,
        before,
        after,
        cpu_ms: end.cpu_ms - start.cpu_ms,
        rss_peak_mb: end.rss_peak_mb,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, f64)]) -> Metrics {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn invariants_name_each_violation() {
        let before = m(&[
            ("connections_refused", 1.0),
            ("accept_transient_errors", 0.0),
        ]);
        let healthy = m(&[
            ("connections_refused", 1.0),
            ("accept_transient_errors", 0.0),
            ("connections_accepted", 5.0),
            ("live_connections", 1.0),
        ]);
        assert!(invariants(&before, &healthy, 5).is_empty());
        let sick = m(&[
            ("connections_refused", 2.0),
            ("accept_transient_errors", 3.0),
            ("connections_accepted", 4.0),
            ("live_connections", 2.0),
        ]);
        assert_eq!(invariants(&before, &sick, 5).len(), 4);
    }

    #[test]
    fn merged_tallies_keep_every_failure_counted() {
        let mut a = Tally::new(1);
        let mut b = Tally::new(1);
        for i in 0..10 {
            b.fail(format!("f{i}"));
        }
        b.attempted = 12;
        a.attempted = 1;
        a.fail("mine".into());
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (13, 11));
        assert_eq!(a.failures.len(), KEPT_FAILURES);
    }
}
