//! Per-connection state machine for the event-loop listener, free of I/O.
//!
//! A [`Conn`] holds everything in flight on one connection except the
//! socket: the resumable [`RequestParser`] (partial reads resume across
//! readiness events), an ordered pipeline of response slots (HTTP/1.1
//! pipelining: responses go out in request order whatever order the
//! answers arrive in), the write position inside the front slot, and the
//! connection's deadline. The event loop answers each request in the pass
//! that extracts it; the law below also feeds answers in random order,
//! some passes late, and the output order holds either way.
//!
//! Its inputs are plain values: bytes received ([`Conn::on_bytes`]), the
//! peer's EOF ([`Conn::on_eof`]), an answer ([`Conn::on_reply`]), a
//! count of bytes the socket accepted ([`Conn::on_written`]), drain
//! ([`Conn::begin_drain`]), and the current time, passed in. Its outputs
//! are the requests to answer ([`Conn::take_requests`]), the contiguous
//! ready output prefix ([`Conn::ready_output`]), its readiness interest,
//! the close decision ([`Conn::wants_close`]) and the deadline verdict
//! ([`Conn::on_deadline`]). The socket reads and writes live in
//! [`event_loop`](crate::event_loop), which drives this machine; the unit
//! tests below drive it under seeded schedules with no socket at all.

use crate::http::{Method, Response};
use crate::wire::{serialize_response, RequestParser, WireError, WireLimits, WireRequest};
use std::collections::VecDeque;
use std::io::IoSlice;
use std::time::{Duration, Instant};

/// How long a draining connection may go without progress before it is
/// force-closed: bounds how long a stalled peer can hold a drain open.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What a deadline check decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Idle past its keep-alive deadline, or out of drain grace: close.
    Close,
    /// Not due (activity moved the deadline) or busy: check again then.
    Rearm(Instant),
}

/// One pipelined exchange: the response slot for the `seq`-th request
/// parsed off this connection. Slots may complete in any order but
/// transmit strictly in order.
struct PipelineSlot {
    seq: u64,
    /// HEAD requests serialize without body bytes.
    head: bool,
    /// Whether the serialized response advertises keep-alive.
    keep_alive: bool,
    /// The serialized response, once the request is answered.
    bytes: Option<Vec<u8>>,
}

/// A connection owned by one event loop.
pub(crate) struct Conn {
    /// Unique per listener; guards against slot reuse (a stale deadline
    /// entry for a previous occupant of this slot must not close the new
    /// connection).
    pub(crate) id: u64,
    parser: RequestParser,
    slots: VecDeque<PipelineSlot>,
    next_seq: u64,
    /// Bytes of the front slot already written (short writes resume here).
    front_written: usize,
    /// Most outstanding requests before reading pauses.
    max_pipeline: usize,
    keep_alive_timeout: Duration,
    /// No more requests will be read: EOF, `connection: close`, a parse
    /// error, or drain. The connection closes once its slots are flushed.
    read_closed: bool,
    /// The peer half-closed. Settled lazily so a pipeline-full pause can
    /// admit buffered requests first.
    eof: bool,
    draining: bool,
    /// When this connection, if idle (or draining), should be closed.
    deadline: Instant,
}

/// What [`Conn::take_requests`] extracted.
pub(crate) struct ParsedBatch {
    /// `(seq, request)` pairs, in arrival order.
    pub(crate) requests: Vec<(u64, WireRequest)>,
    /// A parse error (or a truncation at EOF) ended the request stream.
    /// Counts toward `bad_requests` and, as it is answered with a queued
    /// 400, toward `requests_served`.
    pub(crate) bad_request: bool,
}

impl Conn {
    pub(crate) fn new(
        id: u64,
        limits: WireLimits,
        max_pipeline: usize,
        keep_alive_timeout: Duration,
        now: Instant,
    ) -> Conn {
        Conn {
            id,
            parser: RequestParser::new(limits),
            slots: VecDeque::new(),
            next_seq: 0,
            front_written: 0,
            max_pipeline,
            keep_alive_timeout,
            read_closed: false,
            eof: false,
            draining: false,
            deadline: now + keep_alive_timeout,
        }
    }

    /// When the connection next needs a [`Conn::on_deadline`] check.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Reading is paused: the pipeline holds `max_pipeline` outstanding
    /// requests (bounded memory per connection; resumes as responses
    /// flush).
    fn read_paused(&self) -> bool {
        self.slots.len() >= self.max_pipeline
    }

    /// The readiness interest this connection currently needs: readable
    /// while accepting requests (and not pipeline-paused), writable while
    /// the front response has bytes left to write.
    pub(crate) fn interest(&self) -> polling::Interest {
        polling::Interest {
            readable: !self.read_closed && !self.read_paused(),
            writable: self.slots.front().is_some_and(|slot| slot.bytes.is_some()),
        }
    }

    /// Whether the connection should close now: no more requests will be
    /// read and every owed response is written.
    pub(crate) fn wants_close(&self) -> bool {
        self.read_closed && self.slots.is_empty()
    }

    /// Feeds bytes read off the socket to the parser.
    pub(crate) fn on_bytes(&mut self, bytes: &[u8], now: Instant) {
        self.parser.push(bytes);
        self.bump_deadline(now);
    }

    /// Activity at `now`: the connection is not stalled, so its deadline
    /// moves out by the keep-alive timeout (the drain grace once draining).
    fn bump_deadline(&mut self, now: Instant) {
        self.deadline = now
            + if self.draining {
                DRAIN_GRACE
            } else {
                self.keep_alive_timeout
            };
    }

    /// The peer half-closed its side.
    pub(crate) fn on_eof(&mut self) {
        self.eof = true;
    }

    /// Extracts every complete request the parser holds, up to
    /// `max_pipeline` outstanding, reserving a pipeline slot per request.
    /// A parse error enqueues its 400 (when the error merits one) as the
    /// final response. A seen EOF settles once extraction can make no
    /// further progress: a truncated request answers 400, and either way
    /// reading ends. Call after every input; buffered parser data
    /// generates no further readiness events.
    pub(crate) fn take_requests(&mut self) -> ParsedBatch {
        let mut batch = ParsedBatch {
            requests: Vec::new(),
            bad_request: false,
        };
        while !self.read_closed && !self.read_paused() {
            match self.parser.next_request() {
                Ok(None) => break,
                Ok(Some(request)) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    let keep_alive = request.wants_keep_alive();
                    self.slots.push_back(PipelineSlot {
                        seq,
                        head: request.method() == Method::Head,
                        keep_alive,
                        bytes: None,
                    });
                    // `connection: close`: this is the final exchange;
                    // bytes after it are ignored.
                    self.read_closed = !keep_alive;
                    batch.requests.push((seq, request));
                }
                Err(error) => {
                    self.fail(&error, &mut batch);
                    return batch;
                }
            }
        }
        // A paused pipeline defers EOF: the buffered requests it holds
        // are not truncated, they just have not been admitted yet.
        if self.eof && !self.read_closed && !self.read_paused() {
            if !self.parser.is_idle() {
                // EOF mid-request: answer 400 "truncated request" before
                // closing (the peer may have only shut its write half).
                self.fail(&WireError::Truncated, &mut batch);
            }
            self.read_closed = true;
        }
        batch
    }

    /// Ends the request stream on `error`. Its 400 takes a slot like any
    /// response, so it transmits after the answers pipelined before it.
    fn fail(&mut self, error: &WireError, batch: &mut ParsedBatch) {
        self.read_closed = true;
        batch.bad_request = true;
        if let Some(response) = error.response() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.slots.push_back(PipelineSlot {
                seq,
                head: false,
                keep_alive: false,
                bytes: Some(serialize_response(&response, false, false)),
            });
        }
    }

    /// Installs the answer for request `seq` and serializes it with
    /// the keep-alive/HEAD framing decided at parse time. Unknown `seq`s
    /// (a slot already abandoned) are ignored.
    pub(crate) fn on_reply(&mut self, seq: u64, response: &Response) {
        if let Some(slot) = self.slots.iter_mut().find(|slot| slot.seq == seq) {
            if slot.bytes.is_none() {
                slot.bytes = Some(serialize_response(response, slot.head, slot.keep_alive));
            }
        }
    }

    /// The contiguous ready prefix of the pipeline, resuming inside the
    /// front slot after a short write. Empty while the front slot still
    /// awaits its answer: responses never overtake request order.
    pub(crate) fn ready_output(&self) -> Vec<IoSlice<'_>> {
        let mut ready = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(bytes) = &slot.bytes else { break };
            let skip = if i == 0 { self.front_written } else { 0 };
            ready.push(IoSlice::new(&bytes[skip..]));
        }
        ready
    }

    /// Advances the write position by `written` bytes of
    /// [`Conn::ready_output`], releasing every slot that completed (a
    /// vectored write can finish several at once).
    pub(crate) fn on_written(&mut self, mut written: usize, now: Instant) {
        self.bump_deadline(now);
        while let Some(PipelineSlot {
            bytes: Some(bytes), ..
        }) = self.slots.front()
        {
            let remaining = bytes.len() - self.front_written;
            if written < remaining {
                self.front_written += written;
                return;
            }
            written -= remaining;
            self.front_written = 0;
            self.slots.pop_front();
        }
    }

    /// Marks the connection for drain: no new requests; close once the
    /// in-flight pipeline is flushed, or once the peer stalls for
    /// [`DRAIN_GRACE`].
    pub(crate) fn begin_drain(&mut self, now: Instant) {
        self.read_closed = true;
        self.draining = true;
        self.bump_deadline(now);
    }

    /// Decides what a deadline check at `now` means. Activity since the
    /// check was scheduled moved the deadline: re-arm there. Past the
    /// deadline, an idle or draining connection closes; a busy one
    /// (requests in flight or mid-parse) is never idle-reaped, so its
    /// deadline extends.
    pub(crate) fn on_deadline(&mut self, now: Instant) -> Verdict {
        if now < self.deadline {
            return Verdict::Rearm(self.deadline);
        }
        if self.draining || (self.slots.is_empty() && self.parser.is_idle()) {
            return Verdict::Close;
        }
        self.deadline = now + self.keep_alive_timeout;
        Verdict::Rearm(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::testing::serve;
    use crate::{Handler, ShardedSiteHandler};
    use navsep_xml::Document;
    use proptest::prelude::*;
    use proptest::TestRng;

    const KEEP_ALIVE: Duration = Duration::from_secs(5);

    /// The requests a schedule strings together. The last three end the
    /// request stream: an HTTP/1.0 request without keep-alive, an
    /// explicit `connection: close`, and bytes that do not parse.
    const SHAPES: [&[u8]; 8] = [
        b"GET /a.xml HTTP/1.1\r\n\r\n",
        b"HEAD /a.xml HTTP/1.1\r\n\r\n",
        b"GET /ghost.xml HTTP/1.1\r\n\r\n",
        b"BREW /a.xml HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc",
        b"GET /style.css HTTP/1.0\r\nconnection: keep-alive\r\n\r\n",
        b"GET /style.css HTTP/1.0\r\n\r\n",
        b"GET /a.xml HTTP/1.1\r\nconnection: close\r\n\r\n",
        b"total garbage\r\n\r\n",
    ];

    fn handler() -> ShardedSiteHandler {
        let mut site = Site::new();
        site.put_document("a.xml", Document::parse("<a>hello</a>").unwrap());
        site.put_css("style.css", "a { x: y }");
        serve(&site)
    }

    fn conn(max_pipeline: usize, now: Instant) -> Conn {
        Conn::new(7, WireLimits::default(), max_pipeline, KEEP_ALIVE, now)
    }

    /// The requests a connection owes answers for, parsing `input` whole
    /// and stopping where the connection stops reading, plus the error
    /// (a truncation at EOF included) that ends the stream, if any.
    fn oracle(input: &[u8]) -> (Vec<WireRequest>, Option<WireError>) {
        let mut parser = RequestParser::default();
        parser.push(input);
        let mut requests = Vec::new();
        loop {
            match parser.next_request() {
                Ok(Some(request)) => {
                    let last = !request.wants_keep_alive();
                    requests.push(request);
                    if last {
                        return (requests, None);
                    }
                }
                Ok(None) => {
                    return (
                        requests,
                        (!parser.is_idle()).then_some(WireError::Truncated),
                    );
                }
                Err(error) => return (requests, Some(error)),
            }
        }
    }

    /// What one simulated connection did.
    struct Run {
        submitted: Vec<WireRequest>,
        written: Vec<u8>,
        bad_requests: u32,
        drained: bool,
        conn: Conn,
        unanswered: usize,
        /// Most slots held at once: reading pauses at `max_pipeline`.
        peak_slots: usize,
    }

    /// Drives a connection the way the event loop does, with the socket
    /// replaced by a seeded schedule: `input[..eof_at]` arrives in random
    /// segments, one or more per read pass, and is followed by EOF; the
    /// outstanding requests are answered in random order; each flush
    /// accepts a random number of bytes (0 is a full socket); and drain
    /// begins at step `drain_at`. Every action is followed by request
    /// extraction, as after every event the loop settles.
    fn simulate(
        input: &[u8],
        eof_at: usize,
        max_pipeline: usize,
        drain_at: usize,
        seed: u64,
    ) -> Run {
        let handler = handler();
        let mut rng = TestRng::new(seed);
        let start = Instant::now();
        let mut conn = conn(max_pipeline, start);
        let (mut fed, mut eof_sent) = (0, false);
        let mut pending: Vec<(u64, WireRequest)> = Vec::new();
        let mut submitted = Vec::new();
        let mut written = Vec::new();
        let (mut bad_requests, mut drained) = (0, false);
        let mut peak_slots = 0;
        for step in 0..10_000 {
            if conn.wants_close() {
                break;
            }
            let now = start + Duration::from_millis(step as u64);
            let can_read = conn.interest().readable && !eof_sent;
            let can_write = !conn.ready_output().is_empty();
            let can_drain = step >= drain_at && !drained;
            let enabled = [can_read, !pending.is_empty(), can_write, can_drain];
            let choices: Vec<usize> = (0..4).filter(|&i| enabled[i]).collect();
            let Some(&action) = choices.get(rng.below(choices.len().max(1) as u64) as usize) else {
                break;
            };
            match action {
                0 => {
                    // One read pass: one or more segments, then EOF if
                    // the peer's bytes are all in.
                    loop {
                        if fed == eof_at {
                            conn.on_eof();
                            eof_sent = true;
                            break;
                        }
                        let len = 1 + rng.below((eof_at - fed).min(40) as u64) as usize;
                        conn.on_bytes(&input[fed..fed + len], now);
                        fed += len;
                        if rng.chance(1, 2) {
                            break;
                        }
                    }
                }
                1 => {
                    let (seq, request) = pending.remove(rng.below(pending.len() as u64) as usize);
                    conn.on_reply(seq, &handler.handle(&request.to_request()));
                }
                2 => {
                    let mut capacity = rng.below(64) as usize;
                    let mut accepted = 0;
                    for slice in conn.ready_output() {
                        let take = capacity.min(slice.len());
                        written.extend_from_slice(&slice[..take]);
                        accepted += take;
                        capacity -= take;
                    }
                    if accepted > 0 {
                        conn.on_written(accepted, now);
                    }
                }
                _ => {
                    conn.begin_drain(now);
                    drained = true;
                }
            }
            let batch = conn.take_requests();
            bad_requests += u32::from(batch.bad_request);
            for (seq, request) in batch.requests {
                submitted.push(request.clone());
                pending.push((seq, request));
            }
            peak_slots = peak_slots.max(conn.slots.len());
        }
        Run {
            submitted,
            written,
            bad_requests,
            drained,
            conn,
            unanswered: pending.len(),
            peak_slots,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Under every schedule the connection closes with every slot
        /// released and every parsed request answered, and the bytes it
        /// wrote are the in-order serialized handler answers to the
        /// requests it parsed, then a 400 if a malformed or truncated
        /// stream ended it (counted once).
        #[test]
        fn any_schedule_writes_the_in_order_answers(
            shapes in proptest::collection::vec(0usize..SHAPES.len(), 0..10),
            knobs in (1usize..4, 0usize..1400, 0usize..60),
            seed in 0u64..u64::MAX,
        ) {
            let (max_pipeline, eof_permille, drain_at) = knobs;
            let input: Vec<u8> = shapes.iter().flat_map(|&i| SHAPES[i].to_vec()).collect();
            let eof_at = (input.len() * eof_permille / 1000).min(input.len());
            let run = simulate(&input, eof_at, max_pipeline, drain_at, seed);
            prop_assert!(run.conn.wants_close(), "the connection never closed");
            prop_assert!(run.conn.slots.is_empty());
            prop_assert_eq!(run.unanswered, 0);
            prop_assert!(run.bad_requests <= 1);
            prop_assert!(run.peak_slots <= max_pipeline);

            let (owed, error) = oracle(&input[..eof_at]);
            prop_assert!(run.submitted.len() <= owed.len());
            prop_assert_eq!(&run.submitted[..], &owed[..run.submitted.len()]);
            if !run.drained || run.bad_requests == 1 {
                prop_assert_eq!(run.submitted.len(), owed.len());
                prop_assert_eq!(run.bad_requests == 1, error.is_some());
            }
            let handler = handler();
            let mut expected = Vec::new();
            for request in &run.submitted {
                let response = handler.handle(&request.to_request());
                let head = request.method() == Method::Head;
                expected.extend(serialize_response(&response, head, request.wants_keep_alive()));
            }
            if run.bad_requests == 1 {
                let answer = error.and_then(|e| e.response()).expect("parse errors answer 400");
                expected.extend(serialize_response(&answer, false, false));
            }
            prop_assert_eq!(run.written, expected);
        }
    }

    /// Writes everything the connection has ready, in one call.
    fn write_all(conn: &mut Conn, now: Instant) -> usize {
        let len: usize = conn.ready_output().iter().map(|slice| slice.len()).sum();
        conn.on_written(len, now);
        len
    }

    #[test]
    fn an_idle_connection_closes_exactly_at_its_deadline() {
        let t0 = Instant::now();
        let mut conn = conn(4, t0);
        let due = t0 + KEEP_ALIVE;
        assert_eq!(
            conn.on_deadline(due - Duration::from_millis(1)),
            Verdict::Rearm(due)
        );
        assert_eq!(conn.on_deadline(due), Verdict::Close);
    }

    #[test]
    fn activity_moves_the_deadline_and_the_old_check_rearms_there() {
        let t0 = Instant::now();
        let handler = handler();
        let mut conn = conn(4, t0);
        let t1 = t0 + Duration::from_secs(1);
        conn.on_bytes(b"GET /a.xml HTTP/1.1\r\n\r\n", t1);
        let batch = conn.take_requests();
        let (seq, request) = &batch.requests[0];
        conn.on_reply(*seq, &handler.handle(&request.to_request()));
        let t2 = t0 + Duration::from_secs(2);
        assert!(write_all(&mut conn, t2) > 0);
        assert_eq!(
            conn.on_deadline(t0 + KEEP_ALIVE),
            Verdict::Rearm(t2 + KEEP_ALIVE)
        );
        assert_eq!(conn.on_deadline(t2 + KEEP_ALIVE), Verdict::Close);
    }

    #[test]
    fn a_busy_connection_is_extended_not_reaped() {
        let t0 = Instant::now();
        // A request awaiting its answer.
        let mut waiting = conn(4, t0);
        waiting.on_bytes(b"GET /a.xml HTTP/1.1\r\n\r\n", t0);
        assert_eq!(waiting.take_requests().requests.len(), 1);
        // A request half received.
        let mut parsing = conn(4, t0);
        parsing.on_bytes(b"GET /a.xml HT", t0);
        assert!(parsing.take_requests().requests.is_empty());
        for conn in [&mut waiting, &mut parsing] {
            let late = t0 + KEEP_ALIVE + Duration::from_millis(3);
            assert_eq!(conn.on_deadline(late), Verdict::Rearm(late + KEEP_ALIVE));
            assert!(!conn.wants_close());
        }
    }

    #[test]
    fn a_draining_connection_closes_at_grace_even_when_busy() {
        let t0 = Instant::now();
        let handler = handler();
        let mut conn = conn(4, t0);
        conn.on_bytes(
            b"GET /a.xml HTTP/1.1\r\n\r\nGET /a.xml HTTP/1.1\r\n\r\n",
            t0,
        );
        let batch = conn.take_requests();
        assert_eq!(batch.requests.len(), 2);
        let t1 = t0 + Duration::from_secs(1);
        conn.begin_drain(t1);
        assert_eq!(conn.deadline(), t1 + DRAIN_GRACE);
        // Progress during drain extends by the grace, not the keep-alive.
        let (seq, request) = &batch.requests[0];
        conn.on_reply(*seq, &handler.handle(&request.to_request()));
        let t2 = t1 + Duration::from_secs(1);
        write_all(&mut conn, t2);
        let grace = t2 + DRAIN_GRACE;
        assert_eq!(
            conn.on_deadline(grace - Duration::from_millis(1)),
            Verdict::Rearm(grace)
        );
        assert!(!conn.wants_close(), "one answer is still owed");
        assert_eq!(conn.on_deadline(grace), Verdict::Close);
    }
}
