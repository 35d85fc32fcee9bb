//! The readiness-loop frontend: every connection multiplexed on one
//! event loop over a [`Poller`](crate::net::Poller).
//!
//! One thread owns the poller, the listener and every connection, and
//! runs the synchronous front half of each request itself
//! ([`start_line`]): parse, validate, fingerprint, cache lookup,
//! deadline admission, and the greedy fallbacks within the exact-path
//! limit. A cache hit is answered in the turn its line arrived, with no
//! thread hand-off. Only exact DPs (a miss submits one in
//! [`OptimizerService::begin`]) and over-limit work (a ladder run or
//! greedy plan, [`OptimizerService::spawn`]) run on the worker pool.
//!
//! A request a job answers is *pending*, and a connection has at most
//! one: lines pipelined behind it wait, so replies keep request order.
//! A DP's waiter subscribes to the DP's cache [`Slot`](crate::cache::Slot);
//! an over-limit job formats its own reply. Either way the job's thread
//! posts a [`Completion`] (connection token, per-connection sequence
//! number) and nudges the [`Waker`](crate::net::Waker). A deadline is a
//! loop timer; whichever of completion and timer comes first answers
//! the request, and the other finds its sequence number no longer
//! pending and is dropped — every line gets exactly one reply. For a DP
//! the timer does what a blocking waiter would: leave the slot, degrade
//! to greedy. An over-limit job still queued when its deadline passes
//! is claimed by the timer, which answers with the greedy plan on the
//! loop, and the job does nothing once it starts; a job already running
//! is left to answer, its ladder's wall clock cut to the deadline. A
//! connection that closes with a request pending leaves its slot or
//! claims its queued job.
//!
//! Transient accept failures
//! ([`is_transient_accept_error`](crate::server::is_transient_accept_error))
//! are counted and *pause* the listener for a doubling backoff (1 ms …
//! 100 ms) instead of spinning a level-triggered poller on it. At the
//! connection cap, accepts get one nonblocking `ERR server at
//! connection capacity` write and are closed.
//!
//! The timer sweep enforces `read_timeout` and `request_deadline` (the
//! slow-loris client) only while a connection waits for its client,
//! never while a request is pending or a reply flushing. A client that
//! sends without reading is throttled instead: the loop stops reading a
//! connection with unflushed replies or [`BATCH_MAX`] lines queued, so
//! it holds at most `BATCH_MAX` lines plus `max_line_bytes +
//! READ_CHUNK` unsplit bytes, and closes it once its output makes no
//! progress for `write_timeout`.
//!
//! **Partial line at EOF — pinned protocol behavior.** A client that
//! sends a request and closes its write side without a final `\n`
//! (`printf 'PING' | nc`) gets that tail served as a complete request
//! before the connection closes, rather than silently losing the most
//! common interop mistake; `partial_line_at_eof_is_served` pins this.

use crate::net::{Event, Interest, Poller, WakeHandle, Waker};
use crate::server::{
    format_response, is_transient_accept_error, refuse_connection, start_line, AcceptFault,
    Server, ServerOptions, Started, ACCEPT_BACKOFF_MAX, ACCEPT_BACKOFF_MIN,
};
use crate::sync;
use crate::{Begun, Offload, OptimizerService, Pending};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reserved poller token for the listener.
const LISTENER: usize = 0;
/// Reserved poller token for the waker.
const WAKER: usize = 1;
/// First token handed to a connection. Tokens increase monotonically
/// and are never reused, so a completion for a closed connection can
/// never be misdelivered to a newer one.
const FIRST_CONN: usize = 2;

/// Most complete lines a connection queues, and most lines one loop
/// turn handles for it. Bounds both the memory a pipelining client can
/// pin and how long one connection holds the loop.
const BATCH_MAX: usize = 64;

/// Read scratch size. Level-triggered readiness re-reports leftovers,
/// so a small buffer costs extra loop turns, not correctness.
const READ_CHUNK: usize = 4096;

/// A job's word to the loop that a connection's pending request can be
/// answered: the reply an offloaded job formatted, or `None` once an
/// exact DP's slot resolved and the loop finishes the request itself.
struct Completion {
    token: usize,
    seq: u64,
    reply: Option<String>,
}

type Completions = Arc<Mutex<Vec<Completion>>>;

/// A connection's one request that a pool job answers.
struct InFlight {
    seq: u64,
    waits: Waits,
}

/// What a pending request waits for: an exact DP through its slot, or
/// an over-limit job.
enum Waits {
    Slot(Box<Pending>),
    Job(Arc<Offload>),
}

impl Waits {
    fn deadline(&self) -> Option<Instant> {
        match self {
            Waits::Slot(pending) => pending.deadline(),
            Waits::Job(work) => work.deadline(),
        }
    }

    /// Take the right to answer now: always for a slot wait, only while
    /// the job has not started for an offload.
    fn claim(&self) -> bool {
        match self {
            Waits::Slot(_) => true,
            Waits::Job(work) => work.claim(),
        }
    }
}

/// What a connection's soonest due timer does.
enum Timer {
    /// The pending request's deadline: answer it now.
    Deadline,
    /// Output made no progress for `write_timeout`: close.
    Stalled,
    /// Tear down with a final line (`read_timeout`, `request_deadline`).
    Teardown(&'static str),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Received bytes not yet split into lines.
    read_buf: Vec<u8>,
    /// Reply bytes not yet written to the socket.
    write_buf: Vec<u8>,
    /// Complete request lines, in order, at most [`BATCH_MAX`].
    lines: VecDeque<String>,
    /// The pending request; the lines behind it wait.
    in_flight: Option<InFlight>,
    next_seq: u64,
    /// The client finished sending; the lines it sent are still served.
    eof: bool,
    /// No more requests will be read (QUIT, EOF, teardown); close once
    /// everything queued is answered and flushed.
    closing: bool,
    /// A final protocol line, sent after everything queued before it.
    farewell: Option<String>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Last byte received (`read_timeout`).
    last_byte: Instant,
    /// Last complete line or answered pending request, *not* partial-line
    /// bytes (`request_deadline`).
    wait_started: Instant,
    /// Last output progress: bytes written or lines handled
    /// (`write_timeout`).
    write_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            lines: VecDeque::new(),
            in_flight: None,
            next_seq: 0,
            eof: false,
            closing: false,
            farewell: None,
            interest: Interest::READABLE,
            last_byte: now,
            wait_started: now,
            write_progress: now,
        }
    }

    /// Whether the client-side timers apply right now: only while the
    /// server is waiting on the client, never while the server itself
    /// is the reason the connection sits open.
    fn waiting_for_client(&self) -> bool {
        self.in_flight.is_none()
            && self.lines.is_empty()
            && self.write_buf.is_empty()
            && !self.closing
            && !self.eof
    }

    /// Whether the connection waits for room in its socket: it has
    /// replies to flush, or queued lines the loop handles once earlier
    /// replies are out.
    fn wants_output_room(&self) -> bool {
        !self.write_buf.is_empty() || (self.in_flight.is_none() && !self.lines.is_empty())
    }

    /// The interest this connection's state wants registered. Reading
    /// pauses while replies are unflushed or the line queue is full:
    /// a client that does not read its replies stops being read.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing
                && !self.eof
                && self.write_buf.is_empty()
                && self.lines.len() < BATCH_MAX,
            writable: self.wants_output_room(),
        }
    }

    /// Fully closed-out: nothing left to read, answer, or write.
    fn drained(&self) -> bool {
        self.closing
            && self.lines.is_empty()
            && self.in_flight.is_none()
            && self.farewell.is_none()
            && self.write_buf.is_empty()
    }

    /// The soonest timer this connection's state arms, and what it does.
    fn next_timer(&self, options: &ServerOptions) -> Option<(Instant, Timer)> {
        let waiting = self.waiting_for_client();
        let pending = self.in_flight.as_ref().and_then(|f| f.waits.deadline());
        let stall = options.write_timeout.filter(|_| self.wants_output_room());
        let idle = options.read_timeout.filter(|_| waiting);
        let request = options.request_deadline.filter(|_| waiting);
        [
            (pending, Timer::Deadline),
            (stall.map(|t| self.write_progress + t), Timer::Stalled),
            (idle.map(|t| self.last_byte + t), Timer::Teardown("ERR connection idle timeout")),
            (
                request.map(|t| self.wait_started + t),
                Timer::Teardown("ERR request deadline exceeded"),
            ),
        ]
        .into_iter()
        .filter_map(|(at, timer)| Some((at?, timer)))
        .min_by_key(|(at, _)| *at)
    }

    fn push_reply(&mut self, reply: &str, now: Instant) {
        if self.write_buf.is_empty() {
            self.write_progress = now;
        }
        self.write_buf.extend_from_slice(reply.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Split complete lines out of `read_buf` while the line queue has
    /// room; a line over `max_line_bytes` tears the connection down.
    fn split_lines(&mut self, options: &ServerOptions, now: Instant) {
        while self.lines.len() < BATCH_MAX && !self.closing {
            let end = self.read_buf.iter().position(|&b| b == b'\n');
            if end.unwrap_or(self.read_buf.len()) > options.max_line_bytes {
                // The stream cannot be resynchronized mid-line.
                let msg = format!("ERR request line exceeds {} bytes", options.max_line_bytes);
                return self.begin_teardown(msg);
            }
            let Some(pos) = end else {
                // With EOF seen, everything the client sent is split out.
                self.closing = self.eof;
                return;
            };
            let line = String::from_utf8_lossy(&self.read_buf[..pos]).into_owned();
            self.read_buf.drain(..=pos);
            self.accept_line(line, now);
        }
    }

    /// Route one complete request line: empty lines only reset the
    /// request deadline, `QUIT` starts teardown (everything after it is
    /// ignored), everything else queues.
    fn accept_line(&mut self, line: String, now: Instant) {
        self.wait_started = now;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        if trimmed.eq_ignore_ascii_case("QUIT") {
            self.closing = true;
            self.read_buf.clear();
            return;
        }
        self.lines.push_back(trimmed.to_string());
    }

    /// Stop reading, drop the partial input, and send `farewell` once
    /// the lines already queued are answered.
    fn begin_teardown(&mut self, farewell: String) {
        self.read_buf.clear();
        self.farewell = Some(farewell);
        self.closing = true;
    }

    /// Pull what the socket has, splitting complete lines into the line
    /// queue until it is full. Returns `false` when the connection died
    /// mid-read.
    fn read_ready(&mut self, options: &ServerOptions, now: Instant) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        while !self.closing && !self.eof && self.lines.len() < BATCH_MAX {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    // EOF: an unterminated trailing line is a complete
                    // request (see the module docs).
                    if self.read_buf.last().is_some_and(|&b| b != b'\n') {
                        self.read_buf.push(b'\n');
                    }
                    self.eof = true;
                }
                Ok(n) => {
                    self.last_byte = now;
                    self.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
            self.split_lines(options, now);
        }
        true
    }

    /// Write as much buffered output as the socket takes right now.
    fn flush(&mut self, now: Instant) -> io::Result<()> {
        while !self.write_buf.is_empty() {
            match (&self.stream).write(&self.write_buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_buf.drain(..n);
                    self.write_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// What every connection's request handling shares.
struct Shared {
    service: Arc<OptimizerService>,
    options: ServerOptions,
    completions: Completions,
    wake: WakeHandle,
}

impl Shared {
    /// Handle `conn`'s queued lines on the loop until one is pending, the
    /// queue is empty, or [`BATCH_MAX`] lines were handled, and refill
    /// the queue from the read buffer. Only runs once earlier replies
    /// have flushed, so a slow reader throttles its own request stream.
    fn dispatch(&self, conn: &mut Conn, token: usize, now: Instant) {
        if !conn.write_buf.is_empty() {
            return;
        }
        let mut handled = 0u64;
        while conn.in_flight.is_none() && handled < BATCH_MAX as u64 {
            let Some(line) = conn.lines.pop_front() else { break };
            handled += 1;
            match start_line(&self.service, &line) {
                Started::Reply(reply) => conn.push_reply(&reply, now),
                Started::Optimize(begun) => self.begin(conn, token, begun, now),
            }
            conn.split_lines(&self.options, now);
        }
        if handled > 0 {
            conn.write_progress = now;
            let metrics = self.service.metrics();
            metrics.frontend_batches.fetch_add(1, Relaxed);
            metrics.frontend_batch_lines.fetch_add(handled, Relaxed);
        }
        if conn.lines.is_empty() && conn.in_flight.is_none() {
            if let Some(farewell) = conn.farewell.take() {
                conn.push_reply(&farewell, now);
            }
        }
    }

    /// Answer a begun request now, or make it `conn`'s pending request.
    fn begin(&self, conn: &mut Conn, token: usize, begun: Begun, now: Instant) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let (completions, wake) = (Arc::clone(&self.completions), self.wake.clone());
        let done = move |reply| {
            sync::lock(&completions).push(Completion { token, seq, reply });
            wake.wake();
        };
        let answered = match begun {
            Begun::Done(resp) => Some(resp),
            Begun::Pending(pending) => {
                if !pending.slot().subscribe(Box::new(move || done(None))) {
                    return conn.push_reply(&format_response(&self.service.finish(pending)), now);
                }
                conn.in_flight = Some(InFlight { seq, waits: Waits::Slot(Box::new(pending)) });
                None
            }
            Begun::Offload(work) => {
                let refused =
                    self.service.spawn(&work, move |resp| done(Some(format_response(&resp))));
                if refused.is_none() {
                    conn.in_flight = Some(InFlight { seq, waits: Waits::Job(work) });
                }
                refused
            }
        };
        if let Some(resp) = answered {
            conn.push_reply(&format_response(&resp), now);
        }
    }

    /// Answer `conn`'s pending request: with the reply its job
    /// formatted, or (slot resolved, or deadline passed) by finishing
    /// its slot wait or running its unstarted offload on the loop, which
    /// past the deadline is the greedy plan.
    fn answer(&self, conn: &mut Conn, flight: InFlight, reply: Option<String>, now: Instant) {
        let reply = reply.unwrap_or_else(|| match flight.waits {
            Waits::Slot(pending) => format_response(&self.service.finish(*pending)),
            Waits::Job(work) => format_response(&work.run()),
        });
        conn.push_reply(&reply, now);
        conn.wait_started = now;
    }
}

/// The event loop's own state.
struct EventLoop {
    shared: Shared,
    poller: Poller,
    listener: TcpListener,
    accept_fault: Option<AcceptFault>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    accept_backoff: Duration,
    /// While set, the listener is deregistered until this instant.
    accept_paused_until: Option<Instant>,
}

/// Serve `server` on the calling thread with the readiness loop.
/// Returns only on an unrecoverable listener or poller error.
pub(crate) fn run(server: Server) -> io::Result<()> {
    let Server { listener, service, options, accept_fault } = server;
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let mut waker = Waker::new(&mut poller, WAKER)?;
    let completions = Arc::new(Mutex::new(Vec::new()));
    let mut ev = EventLoop {
        shared: Shared { service, options, completions, wake: waker.handle() },
        poller,
        listener,
        accept_fault,
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        accept_backoff: ACCEPT_BACKOFF_MIN,
        accept_paused_until: None,
    };
    let mut events: Vec<Event> = Vec::new();
    loop {
        let timeout = ev.next_timeout();
        events.clear();
        ev.poller.wait(&mut events, timeout)?;
        let now = Instant::now();

        // Resume a paused listener whose backoff has elapsed.
        if ev.accept_paused_until.is_some_and(|t| now >= t) {
            ev.accept_paused_until = None;
            ev.poller.add(ev.listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        }
        for event in &events {
            match event.token {
                LISTENER if ev.accept_paused_until.is_none() => ev.accept_ready()?,
                LISTENER => {}
                WAKER => waker.drain(),
                token => ev.conn_ready(token, *event, now),
            }
        }
        // Apply finished jobs every turn (the waker byte guarantees we
        // woke for them).
        let done: Vec<Completion> = std::mem::take(&mut *sync::lock(&ev.shared.completions));
        for Completion { token, seq, reply } in done {
            let Some(conn) = ev.conns.get_mut(&token) else { continue }; // closed meanwhile
            // A request its deadline timer already answered drops out
            // here.
            let Some(flight) = conn.in_flight.take_if(|f| f.seq == seq) else { continue };
            ev.shared.answer(conn, flight, reply, now);
            ev.settle(token, now);
        }
        ev.sweep_timers(now);
    }
}

impl EventLoop {
    /// The wait timeout: the soonest timer across the accept pause and
    /// every connection; `None` blocks until an event.
    fn next_timeout(&self) -> Option<Duration> {
        let options = &self.shared.options;
        let timers = self.conns.values().filter_map(|c| c.next_timer(options).map(|(at, _)| at));
        let soonest = timers.chain(self.accept_paused_until).min()?;
        Some(soonest.saturating_duration_since(Instant::now()))
    }

    /// Drain the listener: accept until `WouldBlock`, refusing at the
    /// cap and classifying errors. Transient errors pause the listener
    /// for the current backoff; only unrecoverable ones propagate.
    fn accept_ready(&mut self) -> io::Result<()> {
        let metrics = Arc::clone(self.shared.service.metrics());
        loop {
            let accepted = match self.accept_fault.as_ref().and_then(|f| f()) {
                Some(err) => Err(err),
                None => self.listener.accept().map(|(stream, _)| stream),
            };
            let stream = match accepted {
                Ok(stream) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    stream
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if is_transient_accept_error(&e) => {
                    metrics.accept_transient_errors.fetch_add(1, Relaxed);
                    // Pause instead of sleeping: a level-triggered poller
                    // would otherwise report the undrained listener every
                    // turn and spin the loop through the pressure.
                    self.poller.remove(self.listener.as_raw_fd())?;
                    self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            let cap = self.shared.options.max_connections;
            if cap > 0 && self.conns.len() >= cap {
                refuse_connection(stream, &metrics);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Tiny request/response lines: without TCP_NODELAY, Nagle plus
            // the peer's delayed ACK adds ~40 ms to every round trip.
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.add(stream.as_raw_fd(), token, Interest::READABLE).is_err() {
                continue;
            }
            self.conns.insert(token, Conn::new(stream, Instant::now()));
            metrics.connections_accepted.fetch_add(1, Relaxed);
            metrics.live_connections.fetch_add(1, Relaxed);
        }
    }

    /// Serve one readiness report for a connection.
    fn conn_ready(&mut self, token: usize, event: Event, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        // With no interest registered, epoll still reports a hangup or
        // socket error (as readable + writable): nothing can be read from
        // or written to the socket any more. kqueue reports nothing for
        // an fd with no filter registered.
        let broken = conn.interest == Interest::NONE && event.readable && event.writable;
        let mut alive = !broken;
        if alive && event.readable && conn.interest.readable {
            alive = conn.read_ready(&self.shared.options, now);
        }
        if alive && event.writable {
            alive = conn.flush(now).is_ok();
        }
        if alive {
            self.settle(token, now);
        } else {
            self.close(token);
        }
    }

    /// Flush, handle queued lines once earlier replies are out, update
    /// poller interest, and close the connection when it is fully
    /// drained. The single post-I/O settling point for a connection.
    fn settle(&mut self, token: usize, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut alive = conn.flush(now).is_ok();
        if alive && conn.write_buf.is_empty() {
            self.shared.dispatch(conn, token, now);
            alive = conn.flush(now).is_ok();
        }
        if !alive || conn.drained() {
            self.close(token);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            conn.interest = desired;
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, desired);
        }
    }

    /// Fire due timers: answer a pending request past its deadline,
    /// close a connection whose output stalled past `write_timeout`, and
    /// tear down one whose client-side timer fired (only while it waits
    /// for its client, so a request being optimized or a reply
    /// mid-flush never times out server-side).
    fn sweep_timers(&mut self, now: Instant) {
        let options = self.shared.options;
        let due: Vec<(usize, Timer)> = self
            .conns
            .iter()
            .filter_map(|(&token, c)| Some((token, c.next_timer(&options)?)))
            .filter(|(_, (at, _))| now >= *at)
            .map(|(token, (_, timer))| (token, timer))
            .collect();
        for (token, timer) in due {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            match timer {
                // A job that started first has a wall clock ending at the
                // deadline and no timer any more; its reply answers.
                Timer::Deadline => {
                    if let Some(flight) = conn.in_flight.take_if(|f| f.waits.claim()) {
                        self.shared.answer(conn, flight, None, now);
                    }
                }
                Timer::Stalled => {
                    self.close(token);
                    continue;
                }
                Timer::Teardown(farewell) => conn.begin_teardown(farewell.to_string()),
            }
            self.settle(token, now);
        }
    }

    /// Deregister and drop one connection, maintaining the live gauge.
    /// A request still pending leaves its slot as the connection drops,
    /// or claims its over-limit job so the job does nothing.
    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            if let Some(InFlight { waits: Waits::Job(work), .. }) = &conn.in_flight {
                work.claim();
            }
            // Remove before close: kernel interest tables key on the open
            // file description.
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.shared.service.metrics().live_connections.fetch_sub(1, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: the client end, and the server end
    /// wrapped as a nonblocking [`Conn`].
    fn conn_pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, Conn::new(server, Instant::now()))
    }

    /// However much a client pipelines without reading, the loop holds
    /// at most `BATCH_MAX` lines and `max_line_bytes + READ_CHUNK`
    /// unsplit bytes of it, and stops reading until the queue drains.
    #[test]
    fn a_flooding_client_queues_at_most_batch_max_lines() {
        let (mut client, mut conn) = conn_pair();
        let options = ServerOptions::default();
        // The writer hands the client back so it stays open (no EOF).
        let flood = std::thread::spawn(move || {
            client.write_all(&b"PING\n".repeat(20_000)).map(|()| client)
        });
        let (deadline, mut handled) = (Instant::now() + Duration::from_secs(5), 0);
        while handled < 20_000 && Instant::now() < deadline {
            assert!(conn.read_ready(&options, Instant::now()) && !conn.closing);
            assert!(conn.lines.len() <= BATCH_MAX, "{} lines queued", conn.lines.len());
            assert!(conn.read_buf.len() <= options.max_line_bytes + READ_CHUNK);
            assert!(conn.lines.len() < BATCH_MAX || !conn.desired_interest().readable);
            // What one loop turn would handle, then the refill.
            handled += std::mem::take(&mut conn.lines).len();
            conn.split_lines(&options, Instant::now());
        }
        assert_eq!(handled, 20_000, "every line is handled in the end");
        flood.join().unwrap().unwrap();
    }
}
