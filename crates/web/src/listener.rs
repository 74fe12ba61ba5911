//! The TCP front end: a readiness-driven, multiplexing HTTP/1.1 server —
//! a small fixed set of event-loop threads instead of a thread per
//! connection.
//!
//! [`HttpListener::bind`] runs [`ListenerConfig::loops`] event loops (the
//! crate-private `event_loop` module) over any [`Handler`]. Loop 0 owns
//! the nonblocking accept socket; admitted connections are round-robin
//! assigned across loops. Each loop is the only code touching its
//! sockets: it reads and writes them and drives, per connection, a
//! sans-IO state machine (the crate-private `conn` module) that turns
//! received bytes into requests and answers into ordered output. The
//! resumable [`wire::RequestParser`](crate::wire::RequestParser)
//! accumulates bytes across readiness events.
//!
//! The loop that parses a request answers it, calling the handler itself
//! under `catch_unwind`: a request crosses no thread, and the loops are
//! the only threads the listener starts — `loops` of them, however many
//! connections are open. A handler panic answers the same 500 +
//! `x-navsep-retry-after` a [`ServerPool`](crate::ServerPool) sends,
//! counted in [`ListenerStats::handler_panics`], and the connection
//! serves on. The handler therefore has to return promptly: while it
//! runs, every connection on its loop waits. The site handler
//! ([`ShardedSiteHandler`](crate::ShardedSiteHandler)) does one shard
//! read and no I/O.
//!
//! Answers go out in request order (HTTP/1.1 pipelining), vectored and
//! partial-write aware. No thread ever blocks on a socket.
//!
//! ## Admission contract
//!
//! The listener bounds its footprint at accept time: past
//! [`ListenerConfig::max_connections`] open sockets, new arrivals are
//! *shed* — best-effort 503 (`x-navsep-shed: connections-full`), then
//! close — never queued. Established connections idle longer than
//! [`ListenerConfig::keep_alive_timeout`] are reaped at their deadline,
//! kept in each loop's min-heap; connections with requests in flight are
//! never idle-reaped.
//! [`HttpListener::stats`] exposes the resulting counters.
//!
//! ## Drain contract
//!
//! [`HttpListener::shutdown`] is graceful: the accept socket closes, idle
//! keep-alive connections drop immediately, and busy connections flush
//! the answers already made (under a grace deadline for stalled peers) —
//! every request parsed off the wire is answered before the listener is
//! gone. Nothing is in flight between loop passes, so there is nothing
//! else to wait for.
//!
//! Malformed bytes never kill the process: parse failures answer 400 (when
//! there is anything to answer) and close that one connection.

use crate::event_loop::{EventLoop, Mailbox};
use crate::server::{Handler, PoolConfig};
use crate::wire::WireLimits;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Sizing knobs for an [`HttpListener`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenerConfig {
    /// The listener reads only [`PoolConfig::retry_after`], advertised on
    /// the 500 a handler panic answers with, so that it matches a pool's.
    /// It starts no pool; the other fields are not read.
    pub pool: PoolConfig,
    /// Parser bounds applied to every connection.
    pub limits: WireLimits,
    /// Event-loop threads multiplexing the connections. They run the
    /// handler too, so this is also how many requests are answered at
    /// once.
    pub loops: usize,
    /// Hard cap on open connections; arrivals past it are shed at accept
    /// time (503 + close), never queued.
    pub max_connections: usize,
    /// Idle keep-alive connections are closed after this long without
    /// activity. Connections with requests in flight are never reaped.
    pub keep_alive_timeout: Duration,
    /// Most pipelined requests admitted per connection before reading
    /// pauses (resumes as responses flush) — bounds per-connection memory.
    pub max_pipeline: usize,
}

impl ListenerConfig {
    /// A config answering on `loops` event-loop threads (at least 1), with
    /// default bounds: 10 240 connections, 5 s keep-alive idle timeout,
    /// 32-deep pipelining, 50 ms retry-after on a panic 500.
    pub fn new(loops: usize) -> Self {
        ListenerConfig {
            pool: PoolConfig::new(loops),
            limits: WireLimits::default(),
            loops: loops.max(1),
            max_connections: 10_240,
            keep_alive_timeout: Duration::from_secs(5),
            max_pipeline: 32,
        }
    }

    /// Sets the number of event-loop threads (at least 1).
    pub fn loops(mut self, loops: usize) -> Self {
        self.loops = loops.max(1);
        self
    }

    /// Sets the hard open-connection cap.
    pub fn max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Sets the idle keep-alive timeout.
    pub fn keep_alive_timeout(mut self, keep_alive_timeout: Duration) -> Self {
        self.keep_alive_timeout = keep_alive_timeout;
        self
    }

    /// Sets the per-connection pipelining depth.
    pub fn max_pipeline(mut self, max_pipeline: usize) -> Self {
        self.max_pipeline = max_pipeline.max(1);
        self
    }
}

/// A point-in-time snapshot of the listener's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ListenerStats {
    /// Connections admitted since bind (excludes sheds).
    pub accepted: u64,
    /// Connections turned away at accept time by the
    /// [`max_connections`](ListenerConfig::max_connections) cap.
    pub shed_at_accept: u64,
    /// Connections open right now.
    pub open_now: u64,
    /// High-water mark of simultaneously open connections.
    pub peak_open: u64,
    /// Requests answered over the wire (including 400s and sheds).
    pub requests_served: u64,
    /// Malformed requests answered with a 400 (or dropped mid-line).
    pub bad_requests: u64,
    /// Handler panics, each answered with a 500.
    pub handler_panics: u64,
}

/// The handler, its panic answer, and the counters every event loop
/// shares.
pub(crate) struct ListenerShared {
    pub(crate) handler: Arc<dyn Handler>,
    /// Advertised on the 500 a handler panic answers with.
    pub(crate) retry_after_ms: u64,
    pub(crate) stop: AtomicBool,
    pub(crate) limits: WireLimits,
    pub(crate) keep_alive_timeout: Duration,
    pub(crate) max_pipeline: usize,
    pub(crate) max_connections: usize,
    pub(crate) next_conn_id: AtomicU64,
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) shed_at_accept: AtomicU64,
    pub(crate) open_now: AtomicU64,
    pub(crate) peak_open: AtomicU64,
    pub(crate) requests_served: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) handler_panics: AtomicU64,
}

/// A running HTTP front end bound to a local TCP address.
pub struct HttpListener {
    addr: SocketAddr,
    shared: Arc<ListenerShared>,
    mailboxes: Vec<Arc<Mailbox>>,
    loops: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpListener")
            .field("addr", &self.addr)
            .field("loops", &self.mailboxes.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl HttpListener {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `handler` on [`ListenerConfig::loops`] event-loop threads,
    /// which call it themselves.
    pub fn bind<H: Handler + 'static>(
        addr: &str,
        handler: Arc<H>,
        config: ListenerConfig,
    ) -> io::Result<HttpListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ListenerShared {
            handler,
            retry_after_ms: config.pool.retry_after.as_millis() as u64,
            stop: AtomicBool::new(false),
            limits: config.limits,
            keep_alive_timeout: config.keep_alive_timeout,
            max_pipeline: config.max_pipeline.max(1),
            max_connections: config.max_connections.max(1),
            next_conn_id: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            shed_at_accept: AtomicU64::new(0),
            open_now: AtomicU64::new(0),
            peak_open: AtomicU64::new(0),
            requests_served: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
        });
        let loop_count = config.loops.max(1);
        let mut mailboxes = Vec::with_capacity(loop_count);
        for _ in 0..loop_count {
            mailboxes.push(Arc::new(Mailbox::new()?));
        }
        let mut loops = Vec::with_capacity(loop_count);
        let mut accept_socket = Some(listener);
        for index in 0..loop_count {
            let event_loop = EventLoop::new(
                index,
                accept_socket.take(),
                Arc::clone(&mailboxes[index]),
                mailboxes.clone(),
                Arc::clone(&shared),
            )?;
            loops.push(
                thread::Builder::new()
                    .name(format!("navsep-loop-{index}"))
                    .spawn(move || event_loop.run())
                    .expect("spawn event-loop thread"),
            );
        }
        Ok(HttpListener {
            addr,
            shared,
            mailboxes,
            loops,
        })
    }

    /// The bound address (with the actual port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the listener's counters.
    pub fn stats(&self) -> ListenerStats {
        ListenerStats {
            accepted: self.shared.connections_accepted.load(Ordering::SeqCst),
            shed_at_accept: self.shared.shed_at_accept.load(Ordering::SeqCst),
            open_now: self.shared.open_now.load(Ordering::SeqCst),
            peak_open: self.shared.peak_open.load(Ordering::SeqCst),
            requests_served: self.shared.requests_served.load(Ordering::SeqCst),
            bad_requests: self.shared.bad_requests.load(Ordering::SeqCst),
            handler_panics: self.shared.handler_panics.load(Ordering::SeqCst),
        }
    }

    /// Requests shed with a 503 for want of capacity to answer them:
    /// always 0, since the loops answer every request they parse and
    /// nothing queues. Connections turned away at the cap are counted in
    /// [`ListenerStats::shed_at_accept`] instead.
    pub fn requests_shed(&self) -> u64 {
        0
    }

    /// Gracefully stops: no new connections, in-flight requests answered,
    /// all loop threads joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for mailbox in &self.mailboxes {
            let _ = mailbox.poller.notify();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpListener {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Request, Response};
    use crate::server::panic_response;
    use crate::site::Site;
    use crate::testing::serve;
    use crate::wire::{read_response, serialize_response};
    use crate::ShardedSiteHandler;
    use navsep_xml::Document;
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;

    fn site() -> Site {
        let mut s = Site::new();
        s.put_document("a.xml", Document::parse("<a>hello</a>").unwrap());
        s.put_css("style.css", "a { x: y }");
        s
    }

    fn listener() -> HttpListener {
        HttpListener::bind(
            "127.0.0.1:0",
            Arc::new(serve(&site())),
            ListenerConfig::new(2),
        )
        .expect("bind ephemeral port")
    }

    fn roundtrip(listener: &HttpListener, raw: &[u8], head: bool) -> crate::wire::WireResponse {
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        stream.write_all(raw).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        read_response(&mut reader, head).unwrap()
    }

    /// Spin-waits (bounded) until `probe` returns true.
    fn wait_until(probe: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if probe() {
                return true;
            }
            thread::sleep(Duration::from_millis(5));
        }
        probe()
    }

    #[test]
    fn serves_a_get_over_tcp() {
        let listener = listener();
        let response = roundtrip(&listener, b"GET /a.xml HTTP/1.1\r\n\r\n", false);
        assert_eq!(response.status, 200);
        assert!(String::from_utf8_lossy(&response.body).contains("<a>hello</a>"));
        assert_eq!(listener.stats().requests_served, 1);
        listener.shutdown();
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let listener = listener();
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        for _ in 0..3 {
            stream.write_all(b"GET /a.xml HTTP/1.1\r\n\r\n").unwrap();
        }
        stream
            .write_all(b"GET /style.css HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        for _ in 0..3 {
            let response = read_response(&mut reader, false).unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.header_value("connection"), Some("keep-alive"));
        }
        let last = read_response(&mut reader, false).unwrap();
        assert_eq!(last.status, 200);
        assert_eq!(last.header_value("connection"), Some("close"));
        assert_eq!(listener.stats().accepted, 1);
        assert_eq!(listener.stats().requests_served, 4);
        listener.shutdown();
    }

    #[test]
    fn malformed_bytes_answer_400_and_close() {
        let listener = listener();
        let response = roundtrip(&listener, b"total garbage\r\n\r\n", false);
        assert_eq!(response.status, 400);
        assert_eq!(response.header_value("connection"), Some("close"));
        assert_eq!(listener.stats().bad_requests, 1);
        // The listener survives: a well-formed request still works.
        let ok = roundtrip(&listener, b"GET /a.xml HTTP/1.1\r\n\r\n", false);
        assert_eq!(ok.status, 200);
        listener.shutdown();
    }

    #[test]
    fn unknown_methods_answer_405_over_tcp() {
        let listener = listener();
        let response = roundtrip(&listener, b"BREW /a.xml HTTP/1.1\r\n\r\n", false);
        assert_eq!(response.status, 405);
        assert_eq!(response.header_value("allow"), Some("GET, HEAD"));
        listener.shutdown();
    }

    #[test]
    fn head_advertises_length_without_body() {
        let handler = Arc::new(serve(&site()));
        let listener =
            HttpListener::bind("127.0.0.1:0", Arc::clone(&handler), ListenerConfig::new(2))
                .unwrap();
        let get_len = handler.handle(&Request::get("a.xml")).body().len();
        let response = roundtrip(&listener, b"HEAD /a.xml HTTP/1.1\r\n\r\n", true);
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header_value("content-length"),
            Some(get_len.to_string().as_str()),
            "the would-be GET length"
        );
        assert!(response.body.is_empty());
        listener.shutdown();
    }

    #[test]
    fn wire_bytes_match_the_in_process_handler() {
        let handler = Arc::new(serve(&site()));
        let listener =
            HttpListener::bind("127.0.0.1:0", Arc::clone(&handler), ListenerConfig::new(2))
                .unwrap();
        for (raw, request) in [
            (
                &b"GET /a.xml HTTP/1.1\r\nconnection: close\r\n\r\n"[..],
                Request::get("/a.xml"),
            ),
            (
                b"GET /ghost.xml HTTP/1.1\r\nconnection: close\r\n\r\n",
                Request::get("/ghost.xml"),
            ),
        ] {
            let expected: Response = handler.handle(&request);
            let got = roundtrip(&listener, raw, false);
            assert_eq!(got.status, expected.status().code());
            assert_eq!(got.body, expected.body().as_ref());
        }
        listener.shutdown();
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let listener = listener();
        // An idle keep-alive connection must not wedge the drain.
        let idle = TcpStream::connect(listener.local_addr()).unwrap();
        let served = roundtrip(&listener, b"GET /a.xml HTTP/1.1\r\n\r\n", false);
        assert_eq!(served.status, 200);
        listener.shutdown();
        drop(idle);
    }

    #[test]
    fn pipelined_requests_answer_in_order_on_one_connection() {
        let listener = listener();
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        // One TCP segment, three requests: responses must come back in
        // request order on the same connection.
        stream
            .write_all(
                b"GET /a.xml HTTP/1.1\r\n\r\n\
                  GET /ghost.xml HTTP/1.1\r\n\r\n\
                  GET /style.css HTTP/1.1\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let first = read_response(&mut reader, false).unwrap();
        assert_eq!(first.status, 200);
        assert!(String::from_utf8_lossy(&first.body).contains("<a>hello</a>"));
        let second = read_response(&mut reader, false).unwrap();
        assert_eq!(second.status, 404);
        let third = read_response(&mut reader, false).unwrap();
        assert_eq!(third.status, 200);
        assert_eq!(third.header_value("connection"), Some("close"));
        assert_eq!(listener.stats().accepted, 1);
        assert_eq!(listener.stats().requests_served, 3);
        listener.shutdown();
    }

    #[test]
    fn idle_keep_alive_connections_are_reaped_but_busy_ones_are_not() {
        let listener = HttpListener::bind(
            "127.0.0.1:0",
            Arc::new(serve(&site())),
            ListenerConfig::new(2).keep_alive_timeout(Duration::from_millis(150)),
        )
        .unwrap();
        // Busy-enough: a connection that keeps making requests outlives
        // many idle timeouts.
        let mut busy = TcpStream::connect(listener.local_addr()).unwrap();
        let mut busy_reader = BufReader::new(busy.try_clone().unwrap());
        // Idle: connects, sends one request, then goes quiet.
        let mut idle = TcpStream::connect(listener.local_addr()).unwrap();
        idle.write_all(b"GET /a.xml HTTP/1.1\r\n\r\n").unwrap();
        let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
        assert_eq!(read_response(&mut idle_reader, false).unwrap().status, 200);
        let reap_deadline = Instant::now() + Duration::from_secs(3);
        let mut reaped = false;
        while Instant::now() < reap_deadline {
            // The busy connection stays active across the idle window.
            busy.write_all(b"GET /a.xml HTTP/1.1\r\n\r\n").unwrap();
            assert_eq!(
                read_response(&mut busy_reader, false).unwrap().status,
                200,
                "busy connection must survive the idle reaper"
            );
            // A reaped idle socket reads EOF.
            idle.set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut probe = [0u8; 1];
            match idle_reader.get_mut().read(&mut probe) {
                Ok(0) => {
                    reaped = true;
                    break;
                }
                Ok(_) => panic!("idle connection received unsolicited bytes"),
                Err(_) => {}
            }
        }
        assert!(reaped, "idle keep-alive connection was never closed");
        // And the busy connection still works after the idle one died.
        busy.write_all(b"GET /a.xml HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut busy_reader, false).unwrap().status, 200);
        listener.shutdown();
    }

    #[test]
    fn accept_cap_sheds_instead_of_queueing() {
        let listener = HttpListener::bind(
            "127.0.0.1:0",
            Arc::new(serve(&site())),
            ListenerConfig::new(2).max_connections(2),
        )
        .unwrap();
        let mut held = Vec::new();
        for _ in 0..2 {
            let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
            // Prove the connection is admitted, not just in the backlog.
            stream.write_all(b"GET /a.xml HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            assert_eq!(read_response(&mut reader, false).unwrap().status, 200);
            held.push((stream, reader));
        }
        assert!(wait_until(|| listener.stats().open_now == 2));
        // The third connection is over the cap: shed with a 503, never
        // queued behind the held sockets.
        let over = TcpStream::connect(listener.local_addr()).unwrap();
        let mut over_reader = BufReader::new(over);
        let shed = read_response(&mut over_reader, false).unwrap();
        assert_eq!(shed.status, 503);
        assert_eq!(shed.header_value("x-navsep-shed"), Some("connections-full"));
        let stats = listener.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.shed_at_accept, 1);
        assert_eq!(stats.peak_open, 2);
        // Releasing a held connection frees capacity for a newcomer.
        drop(held.pop());
        assert!(wait_until(|| listener.stats().open_now < 2));
        let replacement = roundtrip(&listener, b"GET /a.xml HTTP/1.1\r\n\r\n", false);
        assert_eq!(replacement.status, 200);
        listener.shutdown();
    }

    /// The site handler, except that `/boom` panics.
    struct Panicky(ShardedSiteHandler);

    impl Handler for Panicky {
        fn handle(&self, request: &Request) -> Response {
            if request.path() == "/boom" {
                panic!("handler panic at /boom");
            }
            self.0.handle(request)
        }
    }

    #[test]
    fn a_handler_panic_answers_the_pools_500_and_the_connection_lives_on() {
        // The bytes the pool sends for a panicking handler (keep-alive,
        // the default 50 ms retry-after).
        let expected = serialize_response(&panic_response(50), false, true);
        let listener = HttpListener::bind(
            "127.0.0.1:0",
            Arc::new(Panicky(serve(&site()))),
            ListenerConfig::new(2),
        )
        .unwrap();
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        stream.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        let mut answer = vec![0; expected.len()];
        stream.read_exact(&mut answer).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&answer),
            String::from_utf8_lossy(&expected)
        );
        // The same connection serves the next request.
        stream
            .write_all(b"GET /a.xml HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let next = read_response(&mut BufReader::new(stream), false).unwrap();
        assert_eq!(next.status, 200);
        assert!(String::from_utf8_lossy(&next.body).contains("<a>hello</a>"));
        let stats = listener.stats();
        assert_eq!(stats.handler_panics, 1);
        assert_eq!(stats.requests_served, 2, "each answer counts once");
        listener.shutdown();
    }

    #[test]
    fn answers_refill_a_full_pipeline_from_buffered_requests() {
        // One segment of eight requests against a one-deep pipeline: each
        // answer frees the only slot, and the requests still in the
        // parser raise no readiness event of their own.
        let listener = HttpListener::bind(
            "127.0.0.1:0",
            Arc::new(serve(&site())),
            ListenerConfig::new(2).max_pipeline(1),
        )
        .unwrap();
        let paths = ["/a.xml", "/ghost.xml", "/style.css", "/a.xml"];
        let mut raw = Vec::new();
        for i in 0..8 {
            let close = if i == 7 { "connection: close\r\n" } else { "" };
            raw.extend_from_slice(
                format!("GET {} HTTP/1.1\r\n{close}\r\n", paths[i % 4]).as_bytes(),
            );
        }
        let mut stream = TcpStream::connect(listener.local_addr()).unwrap();
        stream.write_all(&raw).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..8 {
            let response = read_response(&mut reader, false)
                .unwrap_or_else(|e| panic!("response {i} never came: {e:?}"));
            let expected = if paths[i % 4] == "/ghost.xml" {
                404
            } else {
                200
            };
            assert_eq!(response.status, expected, "response {i} out of order");
        }
        assert_eq!(listener.stats().requests_served, 8);
        listener.shutdown();
    }

    /// The site handler, except that a request carrying `x-test-hold`
    /// waits until the test opens the gate.
    struct Gated {
        inner: ShardedSiteHandler,
        entered: AtomicUsize,
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl Handler for Gated {
        fn handle(&self, request: &Request) -> Response {
            if request.header_value("x-test-hold").is_some() {
                self.entered.fetch_add(1, Ordering::SeqCst);
                let mut open = self.open.lock().unwrap();
                while !*open {
                    open = self.opened.wait(open).unwrap();
                }
            }
            self.inner.handle(request)
        }
    }

    #[test]
    fn a_held_answer_stalls_only_its_own_loop() {
        let gated = Arc::new(Gated {
            inner: serve(&site()),
            entered: AtomicUsize::new(0),
            open: Mutex::new(false),
            opened: Condvar::new(),
        });
        let listener =
            HttpListener::bind("127.0.0.1:0", Arc::clone(&gated), ListenerConfig::new(2)).unwrap();
        let get = b"GET /a.xml HTTP/1.1\r\n\r\n";
        // Connections are dealt round-robin: the first to loop 0 (which
        // also accepts), the second to loop 1.
        let mut first = TcpStream::connect(listener.local_addr()).unwrap();
        first.write_all(get).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        assert_eq!(read_response(&mut first_reader, false).unwrap().status, 200);
        let mut held = TcpStream::connect(listener.local_addr()).unwrap();
        held.write_all(b"GET /a.xml HTTP/1.1\r\nx-test-hold: 1\r\n\r\n")
            .unwrap();
        assert!(wait_until(|| gated.entered.load(Ordering::SeqCst) == 1));
        // Loop 0 keeps accepting and answering while loop 1 is held.
        first.write_all(get).unwrap();
        assert_eq!(read_response(&mut first_reader, false).unwrap().status, 200);
        let third = roundtrip(&listener, b"GET /style.css HTTP/1.1\r\n\r\n", false);
        assert_eq!(third.status, 200);
        held.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut probe = [0u8; 1];
        assert!(
            held.read(&mut probe).is_err(),
            "the held request is still unanswered"
        );
        *gated.open.lock().unwrap() = true;
        gated.opened.notify_all();
        held.set_read_timeout(None).unwrap();
        let answer = read_response(&mut BufReader::new(held), false).unwrap();
        assert_eq!(answer.status, 200);
        assert_eq!(listener.stats().requests_served, 4);
        listener.shutdown();
    }
}
