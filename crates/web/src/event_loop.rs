//! Readiness-driven connection multiplexing: a small fixed set of loop
//! threads, each owning a [`polling::Poller`], a slab of nonblocking
//! sockets with their [`Conn`] state machines, and a min-heap of idle and
//! drain deadlines.
//!
//! This module is the only code that reads or writes a connection socket:
//! one read helper and one vectored-write helper handle every
//! [`io::ErrorKind`] case once, feed what they transfer to the sans-IO
//! [`Conn`], and act on its outputs (requests to answer, ready output,
//! interest, close, deadline verdicts).
//!
//! Loop 0 additionally owns the accept socket: new connections are
//! admitted against the hard [`max_connections`](crate::ListenerConfig)
//! cap (over-cap peers get a best-effort 503 and an immediate close — the
//! listener sheds, it never queues connections) and round-robin assigned
//! across loops via each loop's [`Mailbox`].
//!
//! The loop that parses a request answers it, inside
//! [`EventLoop::settle`]: it calls the handler under `catch_unwind` (a
//! panic answers the pool's 500) and installs the answer at once. No
//! request crosses a thread and no thread ever parks waiting for a
//! response, so the thread count stays `loops` no matter how many sockets
//! are open.

use crate::conn::{Conn, Verdict};
use crate::http::Response;
use crate::listener::ListenerShared;
use crate::server::{panic_response, SHED_HEADER};
use crate::wire::serialize_response;
use polling::{Event, Interest, Poller};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poller key reserved for the accept socket (loop 0 only).
/// `polling::NOTIFY_KEY` (`usize::MAX`) is reserved by the poller itself.
const ACCEPT_KEY: usize = usize::MAX - 1;

/// Cross-thread inbox for one event loop: connections loop 0 accepted
/// and assigned to it. Pushing wakes the loop.
pub(crate) struct Mailbox {
    queue: Mutex<Vec<TcpStream>>,
    pub(crate) poller: Poller,
}

impl Mailbox {
    pub(crate) fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            queue: Mutex::new(Vec::new()),
            poller: Poller::new()?,
        })
    }

    /// Enqueues `stream` and wakes the owning loop.
    pub(crate) fn push(&self, stream: TcpStream) {
        self.queue.lock().expect("mailbox lock").push(stream);
        let _ = self.poller.notify();
    }

    fn drain(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.queue.lock().expect("mailbox lock"))
    }
}

/// Idle and drain deadlines, soonest first: `(when, slot, conn_id)`.
/// Entries are cancelled lazily: a due entry is revalidated against the
/// connection now at `slot` ([`Conn::on_deadline`]), so activity that
/// moves a deadline is a field write, not a heap update.
type Deadlines = BinaryHeap<Reverse<(Instant, usize, u64)>>;

/// Time until the soonest deadline, or `None` when none is pending (the
/// wait then blocks until a notify).
fn next_timeout(deadlines: &Deadlines, now: Instant) -> Option<Duration> {
    deadlines
        .peek()
        .map(|Reverse((at, _, _))| at.saturating_duration_since(now))
}

/// Pops the soonest entry if it is due at `now`.
fn pop_due(deadlines: &mut Deadlines, now: Instant) -> Option<(usize, u64)> {
    match deadlines.peek() {
        Some(Reverse((at, _, _))) if *at <= now => deadlines
            .pop()
            .map(|Reverse((_, slot, conn_id))| (slot, conn_id)),
        _ => None,
    }
}

/// Reads until the socket runs dry, feeding each chunk to `conn`; a 0-byte
/// read is the peer's EOF. `Err` is a transport failure: nothing to
/// answer, nothing left to flush to a broken peer.
fn read_ready(stream: &mut TcpStream, conn: &mut Conn, now: Instant) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                conn.on_eof();
                return Ok(());
            }
            Ok(n) => {
                conn.on_bytes(&buf[..n], now);
                // A short read emptied the socket: skip the read that
                // would only report `WouldBlock`.
                if n < buf.len() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// Writes `conn`'s ready output until it is gone or the socket is full:
/// consecutive ready responses go out in one vectored write, and a short
/// write resumes where it stopped. `Err` is a transport failure.
fn write_ready(stream: &mut TcpStream, conn: &mut Conn, now: Instant) -> io::Result<()> {
    loop {
        let ready = conn.ready_output();
        if ready.is_empty() {
            return Ok(());
        }
        let written = match stream.write_vectored(&ready) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        };
        conn.on_written(written, now);
    }
}

/// Everything one loop thread owns.
pub(crate) struct EventLoop {
    index: usize,
    mailbox: Arc<Mailbox>,
    /// Every loop's mailbox (round-robin accept assignment; loop 0 only).
    peers: Vec<Arc<Mailbox>>,
    shared: Arc<ListenerShared>,
    /// The accept socket (loop 0 only), nonblocking, registered under
    /// [`ACCEPT_KEY`].
    listener: Option<TcpListener>,
    conns: Vec<Option<(TcpStream, Conn)>>,
    free: Vec<usize>,
    live: usize,
    deadlines: Deadlines,
    draining: bool,
    next_rr: usize,
}

impl EventLoop {
    pub(crate) fn new(
        index: usize,
        listener: Option<TcpListener>,
        mailbox: Arc<Mailbox>,
        peers: Vec<Arc<Mailbox>>,
        shared: Arc<ListenerShared>,
    ) -> io::Result<EventLoop> {
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            mailbox
                .poller
                .add(listener.as_raw_fd(), ACCEPT_KEY, Interest::READABLE)?;
        }
        Ok(EventLoop {
            index,
            mailbox,
            peers,
            shared,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            deadlines: Deadlines::new(),
            draining: false,
            next_rr: 0,
        })
    }

    /// The loop body: wait for readiness/notify/deadlines, then service
    /// the mailbox, socket events, and due deadlines. Exits when draining
    /// and the last connection is gone.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<(usize, u64)> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.live == 0 {
                break;
            }
            let timeout = next_timeout(&self.deadlines, Instant::now());
            events.clear();
            if self.mailbox.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is unrecoverable; drop every connection
                // rather than spin.
                break;
            }
            for stream in self.mailbox.drain() {
                self.adopt(stream);
            }
            for &event in &events {
                if event.key == ACCEPT_KEY {
                    self.accept_burst();
                } else {
                    self.on_socket_event(event);
                }
            }
            // Collect first: an entry re-armed below may already be due
            // again, and belongs to the next pass.
            let now = Instant::now();
            while let Some(entry) = pop_due(&mut self.deadlines, now) {
                due.push(entry);
            }
            for (slot, conn_id) in due.drain(..) {
                self.on_deadline(slot, conn_id, now);
            }
        }
        self.teardown();
    }

    /// Accepts until the socket runs dry, admitting against the hard cap.
    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let max = self.shared.max_connections;
            let admitted =
                self.shared
                    .open_now
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |open| {
                        if (open as usize) < max {
                            Some(open + 1)
                        } else {
                            None
                        }
                    });
            match admitted {
                Ok(open_before) => {
                    self.shared
                        .connections_accepted
                        .fetch_add(1, Ordering::SeqCst);
                    self.shared
                        .peak_open
                        .fetch_max(open_before + 1, Ordering::SeqCst);
                    let target = self.next_rr % self.peers.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    if target == self.index {
                        self.adopt(stream);
                    } else {
                        self.peers[target].push(stream);
                    }
                }
                Err(_) => {
                    // At the cap: shed at accept time. Best-effort 503 —
                    // the buffer is empty so the write almost always
                    // lands — then close. Never queue the connection.
                    self.shared.shed_at_accept.fetch_add(1, Ordering::SeqCst);
                    let shed = Response::unavailable("connections-full")
                        .with_header(SHED_HEADER, "connections-full");
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.write(&serialize_response(&shed, false, false));
                }
            }
        }
    }

    /// Installs an admitted connection into the slab and the poller.
    fn adopt(&mut self, stream: TcpStream) {
        if self.draining {
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let id = self.shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self
            .mailbox
            .poller
            .add(stream.as_raw_fd(), slot, Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let conn = Conn::new(
            id,
            self.shared.limits,
            self.shared.max_pipeline,
            self.shared.keep_alive_timeout,
            Instant::now(),
        );
        self.deadlines.push(Reverse((conn.deadline(), slot, id)));
        self.conns[slot] = Some((stream, conn));
        self.live += 1;
    }

    /// The connection at `slot`, if it is still `conn_id`'s.
    fn conn_mut(&mut self, slot: usize, conn_id: u64) -> Option<&mut Conn> {
        match self.conns.get_mut(slot) {
            Some(Some((_, conn))) if conn.id == conn_id => Some(conn),
            _ => None,
        }
    }

    /// A readiness event on a connection socket.
    fn on_socket_event(&mut self, event: Event) {
        let slot = event.key;
        let Some(Some((stream, conn))) = self.conns.get_mut(slot) else {
            return;
        };
        if event.readable
            && conn.interest().readable
            && read_ready(stream, conn, Instant::now()).is_err()
        {
            self.close(slot);
            return;
        }
        self.settle(slot);
    }

    /// Flushes ready output and answers every request the connection can
    /// admit, repeating until neither makes progress, then either closes
    /// the connection or re-arms the poller with its interest. An answer
    /// is installed at once; once flushed it frees a pipeline slot for
    /// requests the parser already holds, which no readiness event would
    /// report — hence the repeat.
    fn settle(&mut self, slot: usize) {
        let Some(Some((stream, conn))) = self.conns.get_mut(slot) else {
            return;
        };
        let now = Instant::now();
        let shared = &*self.shared;
        let failed = loop {
            if write_ready(stream, conn, now).is_err() {
                break true;
            }
            let batch = conn.take_requests();
            if batch.bad_request {
                // Its queued 400 is the one output extraction makes; the
                // next pass writes it.
                shared.bad_requests.fetch_add(1, Ordering::SeqCst);
                shared.requests_served.fetch_add(1, Ordering::SeqCst);
            } else if batch.requests.is_empty() {
                break false;
            }
            for (seq, request) in batch.requests {
                let request = request.to_request();
                let response = catch_unwind(AssertUnwindSafe(|| shared.handler.handle(&request)))
                    .unwrap_or_else(|_| {
                        shared.handler_panics.fetch_add(1, Ordering::SeqCst);
                        panic_response(shared.retry_after_ms)
                    });
                shared.requests_served.fetch_add(1, Ordering::SeqCst);
                conn.on_reply(seq, &response);
            }
        };
        if failed || conn.wants_close() {
            self.close(slot);
        } else {
            let _ = self
                .mailbox
                .poller
                .modify(stream.as_raw_fd(), slot, conn.interest());
        }
    }

    /// A deadline came due for `(slot, conn_id)`: let the connection
    /// decide whether it closes or when to check again.
    fn on_deadline(&mut self, slot: usize, conn_id: u64, now: Instant) {
        let Some(conn) = self.conn_mut(slot, conn_id) else {
            return;
        };
        match conn.on_deadline(now) {
            Verdict::Close => self.close(slot),
            Verdict::Rearm(at) => self.deadlines.push(Reverse((at, slot, conn_id))),
        }
    }

    /// Stops accepting and marks every connection for drain: idle ones
    /// close now, busy ones flush their pipeline under a grace deadline.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.mailbox.poller.delete(listener.as_raw_fd());
        }
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(Some((_, conn))) = self.conns.get_mut(slot) else {
                continue;
            };
            conn.begin_drain(now);
            self.deadlines
                .push(Reverse((conn.deadline(), slot, conn.id)));
            self.settle(slot);
        }
    }

    /// Deregisters and drops the connection, freeing its slot.
    fn close(&mut self, slot: usize) {
        if let Some((stream, _)) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.mailbox.poller.delete(stream.as_raw_fd());
            self.free.push(slot);
            self.live -= 1;
            self.shared.open_now.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn teardown(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.mailbox.poller.delete(listener.as_raw_fd());
        }
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_fire_exactly_and_in_order() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut deadlines = Deadlines::new();
        assert_eq!(next_timeout(&deadlines, t0), None);
        deadlines.push(Reverse((t0 + ms(300), 1, 10)));
        deadlines.push(Reverse((t0 + ms(100), 2, 20)));
        // Two minutes out (perfbench's keep-alive): no clamp, no early
        // re-fire.
        deadlines.push(Reverse((t0 + Duration::from_secs(120), 3, 30)));
        assert_eq!(next_timeout(&deadlines, t0), Some(ms(100)));
        assert_eq!(pop_due(&mut deadlines, t0 + ms(99)), None);
        assert_eq!(pop_due(&mut deadlines, t0 + ms(100)), Some((2, 20)));
        assert_eq!(pop_due(&mut deadlines, t0 + ms(100)), None);
        assert_eq!(next_timeout(&deadlines, t0 + ms(100)), Some(ms(200)));
        assert_eq!(pop_due(&mut deadlines, t0 + ms(300)), Some((1, 10)));
        assert_eq!(
            next_timeout(&deadlines, t0 + ms(300)),
            Some(Duration::from_secs(120) - ms(300))
        );
        assert_eq!(pop_due(&mut deadlines, t0 + Duration::from_secs(119)), None);
        // A late wakeup pops what is due, and the wait after an overdue
        // entry is zero, not negative.
        assert_eq!(
            next_timeout(&deadlines, t0 + Duration::from_secs(121)),
            Some(Duration::ZERO)
        );
        assert_eq!(
            pop_due(&mut deadlines, t0 + Duration::from_secs(121)),
            Some((3, 30))
        );
        assert_eq!(next_timeout(&deadlines, t0), None);
    }

    #[test]
    fn a_rearmed_entry_is_checked_again_at_the_conn_deadline() {
        let t0 = Instant::now();
        let keep_alive = Duration::from_secs(5);
        let mut conn = Conn::new(9, Default::default(), 4, keep_alive, t0);
        let mut deadlines = Deadlines::new();
        deadlines.push(Reverse((conn.deadline(), 0, conn.id)));
        // Activity after scheduling bumps the conn, not the heap.
        let t1 = t0 + Duration::from_secs(2);
        conn.on_bytes(b"GET /a.xml HT", t1);
        let first = t0 + keep_alive;
        assert_eq!(next_timeout(&deadlines, t0), Some(keep_alive));
        assert_eq!(pop_due(&mut deadlines, first), Some((0, 9)));
        let Verdict::Rearm(at) = conn.on_deadline(first) else {
            panic!("a bumped deadline re-arms");
        };
        assert_eq!(at, t1 + keep_alive);
        deadlines.push(Reverse((at, 0, conn.id)));
        assert_eq!(
            next_timeout(&deadlines, first),
            Some(t1 + keep_alive - first)
        );
        assert_eq!(pop_due(&mut deadlines, at), Some((0, 9)));
    }
}
