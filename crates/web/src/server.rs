//! Serving a site: the handler trait and a concurrent worker pool.
//!
//! The pool exists to make the substrate honest as a *web* tier: requests
//! are served concurrently from worker threads through one shared
//! [`Handler`], the way a 2002-era document server would. Workers take
//! requests off one bounded job queue and answer each through its reply
//! callback. The site handler is
//! [`ShardedSiteHandler`](crate::ShardedSiteHandler), whose store swaps in
//! publishes (re-weaves) as epochs while reads continue. The TCP front
//! end ([`HttpListener`](crate::HttpListener)) starts no pool: it calls
//! the handler on its event loops.
//!
//! ## Overload and failure contract
//!
//! [`ServerPool`] is hardened for overload and worker failure:
//!
//! * [`ServerPool::submit`] is the one way in, and it never blocks: the
//!   request queue is **bounded** ([`PoolConfig::queue_capacity`]), and a
//!   request past the bound is **shed** with a 503 carrying
//!   [`RETRY_AFTER_HEADER`] (and [`SHED_HEADER`] naming the reason);
//! * an optional **per-request deadline** ([`PoolConfig::deadline`]) sheds
//!   requests that waited in the queue longer than the deadline, again as
//!   503 + retry-after;
//! * a worker whose handler **panics** answers that request with a 500,
//!   starts its own replacement and exits — the pool keeps serving after
//!   any number of absorbed panics; a panicking reply callback costs its
//!   worker the same way;
//! * [`ServerPool::shutdown`] is **graceful**: in-flight requests complete,
//!   queued-but-unstarted ones are shed with a 503, and every accepted
//!   request is answered before shutdown returns.

use crate::http::{Request, Response};
use crate::sync::lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Header on every 503: how long the client should wait before retrying,
/// in milliseconds (custom header, hence not the RFC seconds granularity).
pub const RETRY_AFTER_HEADER: &str = "x-navsep-retry-after";

/// Header on every 503 naming why the request was shed: `queue-full`,
/// `deadline`, `draining`, or `reply-dropped` (a reply channel closed
/// without an answer — degraded to a shed instead of a client panic).
pub const SHED_HEADER: &str = "x-navsep-shed";

/// Anything that can answer requests.
pub trait Handler: Send + Sync {
    /// Produces the response for `request`.
    ///
    /// An [`HttpListener`](crate::HttpListener) calls this on its
    /// event-loop threads, so a handler served over the wire should
    /// return promptly: while it runs, every connection its loop
    /// multiplexes waits.
    fn handle(&self, request: &Request) -> Response;
}

impl<H: Handler + ?Sized> Handler for Arc<H> {
    fn handle(&self, request: &Request) -> Response {
        (**self).handle(request)
    }
}

/// The answer to a request whose handler panicked: a 500 carrying
/// [`RETRY_AFTER_HEADER`]. The pool and the listener send the same
/// bytes.
pub(crate) fn panic_response(retry_after_ms: u64) -> Response {
    Response::server_error("request handler panicked")
        .with_header(RETRY_AFTER_HEADER, retry_after_ms.to_string())
}

/// Sizing and robustness knobs for a [`ServerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker thread count (must be nonzero).
    pub workers: usize,
    /// Bound on queued-but-unstarted requests; [`ServerPool::submit`]
    /// sheds beyond it.
    pub queue_capacity: usize,
    /// If set, a request that waited in the queue longer than this is shed
    /// with a 503 instead of being handled.
    pub deadline: Option<Duration>,
    /// Advertised in [`RETRY_AFTER_HEADER`] on every shed response.
    pub retry_after: Duration,
}

impl PoolConfig {
    /// Defaults for `workers` threads: a `workers * 64` queue, no
    /// deadline, 50ms advertised retry.
    pub fn new(workers: usize) -> Self {
        PoolConfig {
            workers,
            queue_capacity: workers.max(1) * 64,
            deadline: None,
            retry_after: Duration::from_millis(50),
        }
    }

    /// Sets the queue bound (builder style).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-request queue deadline (builder style).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the advertised retry-after (builder style).
    pub fn retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }
}

/// A queued request and where its answer goes. The reply runs exactly
/// once: on a worker, or on the submitting thread for a shed.
struct Job {
    request: Request,
    enqueued: Instant,
    reply: Box<dyn FnOnce(Response) + Send>,
}

/// The pool's bounded multi-consumer job queue.
///
/// One mutex guards the jobs and the closed flag. A worker checks both
/// and parks on `ready` in one critical section (`Condvar::wait` releases
/// the mutex only once the worker is parked), so a push or a close, which
/// must take the mutex, cannot fall between the check and the park. A
/// push wakes one parked worker; `close` wakes all of them, and each then
/// finds a job or the closed flag, so none is left waiting.
struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Queues `job`, or hands it back with the shed reason: `draining`
    /// once the queue is closed, `queue-full` at capacity.
    fn try_push(&self, job: Job) -> Result<(), (Job, &'static str)> {
        let mut state = lock(&self.state);
        let (jobs, closed) = &mut *state;
        if *closed {
            return Err((job, "draining"));
        }
        if jobs.len() >= self.capacity {
            return Err((job, "queue-full"));
        }
        jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// The oldest job, waiting for one while the queue is open; `None`
    /// once it is closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The oldest job, without waiting.
    fn try_pop(&self) -> Option<Job> {
        lock(&self.state).0.pop_front()
    }

    /// Refuses further pushes and wakes every parked worker. Jobs already
    /// queued still pop.
    fn close(&self) {
        lock(&self.state).1 = true;
        self.ready.notify_all();
    }
}

struct PoolShared {
    handler: Arc<dyn Handler>,
    jobs: JobQueue,
    /// Every worker not yet joined, replacements included.
    threads: Mutex<Vec<JoinHandle<()>>>,
    draining: AtomicBool,
    deadline: Option<Duration>,
    retry_after_ms: u64,
    panics_absorbed: AtomicU64,
    requests_shed: AtomicU64,
    requests_timed_out: AtomicU64,
    workers_spawned: AtomicU64,
}

impl PoolShared {
    fn shed_response(&self, reason: &str) -> Response {
        Response::unavailable(reason)
            .with_header(RETRY_AFTER_HEADER, self.retry_after_ms.to_string())
            .with_header(SHED_HEADER, reason)
    }

    /// Answers `job` on a pool thread: shed while draining or past the
    /// deadline, handled otherwise. Returns `false`, with the panic
    /// counted, if the handler or the reply callback panicked; after a
    /// handler panic the reply still runs, with a 500.
    fn serve(&self, job: Job) -> bool {
        let mut clean = true;
        let response = if self.draining.load(Ordering::SeqCst) {
            self.requests_shed.fetch_add(1, Ordering::SeqCst);
            self.shed_response("draining")
        } else if self.deadline.is_some_and(|d| job.enqueued.elapsed() > d) {
            self.requests_timed_out.fetch_add(1, Ordering::SeqCst);
            self.shed_response("deadline")
        } else {
            match catch_unwind(AssertUnwindSafe(|| self.handler.handle(&job.request))) {
                Ok(response) => response,
                Err(_) => {
                    // The request that took the worker down still gets an
                    // explicit answer, counted before it is sent.
                    clean = false;
                    self.panics_absorbed.fetch_add(1, Ordering::SeqCst);
                    panic_response(self.retry_after_ms)
                }
            }
        };
        let replied = catch_unwind(AssertUnwindSafe(|| (job.reply)(response))).is_ok();
        if clean && !replied {
            self.panics_absorbed.fetch_add(1, Ordering::SeqCst);
        }
        clean && replied
    }
}

/// Starts a worker and registers it for the shutdown join.
fn spawn_worker(shared: &Arc<PoolShared>) {
    let id = shared.workers_spawned.fetch_add(1, Ordering::SeqCst);
    let worker = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("navsep-worker-{id}"))
        .spawn(move || {
            while let Some(job) = worker.jobs.pop() {
                if !worker.serve(job) {
                    // A fresh thread is the only state we can vouch for
                    // after a panic: start one, unless draining, and exit.
                    if !worker.draining.load(Ordering::SeqCst) {
                        spawn_worker(&worker);
                    }
                    return;
                }
            }
        })
        .expect("failed to spawn worker thread");
    lock(&shared.threads).push(handle);
}

/// A fixed-size worker pool dispatching requests to a shared [`Handler`],
/// with bounded queueing, load shedding, deadlines, panic respawn, and
/// graceful shutdown (see the [module docs](self) for the contract).
///
/// # Examples
///
/// ```
/// use navsep_web::{Request, ServerPool, ShardedSiteHandler, ShardedSiteStore, Site};
/// use navsep_xml::Document;
/// use std::sync::Arc;
///
/// let mut site = Site::new();
/// site.put_document("a.xml", Document::parse("<a/>")?);
/// let store = Arc::new(ShardedSiteStore::from_site(1, &site));
/// let pool = ServerPool::start(Arc::new(ShardedSiteHandler::new(store)), 4);
/// let response = pool.request(Request::get("a.xml")).recv().unwrap();
/// assert!(response.status().is_success());
/// pool.shutdown();
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
pub struct ServerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl std::fmt::Debug for ServerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ServerPool {
    /// Starts `workers` threads serving through `handler`, with
    /// [`PoolConfig::new`] defaults.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn start<H: Handler + 'static>(handler: Arc<H>, workers: usize) -> Self {
        Self::start_with(handler, PoolConfig::new(workers))
    }

    /// Starts a pool with explicit sizing/robustness knobs.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero.
    pub fn start_with<H: Handler + 'static>(handler: Arc<H>, config: PoolConfig) -> Self {
        assert!(
            config.workers > 0,
            "a server pool needs at least one worker"
        );
        let shared = Arc::new(PoolShared {
            handler: handler as Arc<dyn Handler>,
            jobs: JobQueue::new(config.queue_capacity.max(1)),
            threads: Mutex::default(),
            draining: AtomicBool::new(false),
            deadline: config.deadline,
            retry_after_ms: config.retry_after.as_millis() as u64,
            panics_absorbed: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            requests_timed_out: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
        });

        for _ in 0..config.workers {
            spawn_worker(&shared);
        }
        ServerPool {
            shared,
            workers: config.workers,
        }
    }

    /// Submits a request whose answer arrives via `on_reply`. This is the
    /// pool's one way in; [`request`](ServerPool::request) and
    /// [`request_sync`](ServerPool::request_sync) wrap it.
    ///
    /// Never blocks: a full queue or a draining pool invokes `on_reply`
    /// immediately (on the calling thread) with the 503 +
    /// [`RETRY_AFTER_HEADER`] shed response; otherwise `on_reply` runs
    /// later on a pool thread. Exactly one invocation either way — the
    /// callback is how an event-loop connection learns it can progress,
    /// so it is never dropped unrun.
    pub fn submit(&self, request: Request, on_reply: impl FnOnce(Response) + Send + 'static) {
        let job = Job {
            request,
            enqueued: Instant::now(),
            reply: Box::new(on_reply),
        };
        if let Err((job, reason)) = self.shared.jobs.try_push(job) {
            self.shared.requests_shed.fetch_add(1, Ordering::SeqCst);
            (job.reply)(self.shared.shed_response(reason));
        }
    }

    /// [`submit`](ServerPool::submit) with the answer on the returned
    /// channel, which yields exactly one response.
    pub fn request(&self, request: Request) -> Receiver<Response> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(request, move |response| {
            let _ = tx.send(response);
        });
        rx
    }

    /// [`request`](ServerPool::request), then wait for the answer.
    ///
    /// The pool contract is that every accepted request is answered, but a
    /// client must not be able to *panic* on a contract violation — if the
    /// reply channel is ever dropped without a send (a pool bug, or a
    /// future refactor missing a path), the caller gets an explicit 503
    /// shed response ([`SHED_HEADER`]` : reply-dropped`) instead.
    pub fn request_sync(&self, request: Request) -> Response {
        self.await_reply(self.request(request))
    }

    /// Resolves a reply channel into a response, degrading a dropped
    /// channel to a 503 instead of panicking.
    fn await_reply(&self, reply: Receiver<Response>) -> Response {
        reply
            .recv()
            .unwrap_or_else(|_| self.shared.shed_response("reply-dropped"))
    }

    /// Number of worker threads the pool was configured with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Panics absorbed in a handler or a reply callback (each cost one
    /// worker, since respawned).
    pub fn panics_absorbed(&self) -> u64 {
        self.shared.panics_absorbed.load(Ordering::SeqCst)
    }

    /// Requests shed with a 503 (queue-full or draining; excludes
    /// deadline timeouts).
    pub fn requests_shed(&self) -> u64 {
        self.shared.requests_shed.load(Ordering::SeqCst)
    }

    /// Requests shed because they out-waited the configured deadline.
    pub fn requests_timed_out(&self) -> u64 {
        self.shared.requests_timed_out.load(Ordering::SeqCst)
    }

    /// Total worker threads ever spawned (initial + respawns).
    pub fn workers_spawned(&self) -> u64 {
        self.shared.workers_spawned.load(Ordering::SeqCst)
    }

    /// Gracefully stops the pool: in-flight requests complete, queued ones
    /// are shed with a 503, and all threads are joined before returning.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        // Close the queue so workers exit once it is drained.
        shared.jobs.close();
        // A worker lost to a panic registers its replacement before it
        // exits, so the list is empty only once every worker is joined.
        // The lock is not held across a join.
        loop {
            let next = lock(&shared.threads).pop();
            let Some(worker) = next else { break };
            let _ = worker.join();
        }
        // If every worker panicked away during the drain, queued jobs may
        // remain; answer them so no client ever hangs.
        while let Some(job) = shared.jobs.try_pop() {
            shared.serve(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::testing::serve;
    use navsep_xml::Document;

    fn site() -> Site {
        let mut s = Site::new();
        s.put_document("a.xml", Document::parse("<a>hello</a>").unwrap());
        s.put_css("style.css", "a { x: y }");
        s
    }

    #[test]
    fn dropped_reply_channel_degrades_to_shed_not_panic() {
        let pool = ServerPool::start(Arc::new(serve(&site())), 1);
        // Simulate the contract violation directly: a reply channel whose
        // sender is gone without ever sending.
        let (tx, rx) = mpsc::sync_channel::<Response>(1);
        drop(tx);
        let response = pool.await_reply(rx);
        assert_eq!(response.status().code(), 503);
        assert_eq!(response.header_value(SHED_HEADER), Some("reply-dropped"));
        assert!(response.header_value(RETRY_AFTER_HEADER).is_some());
        pool.shutdown();
    }

    #[test]
    fn submit_delivers_through_the_callback() {
        let pool = ServerPool::start(Arc::new(serve(&site())), 2);
        let (tx, rx) = mpsc::sync_channel(1);
        pool.submit(Request::get("a.xml"), move |response| {
            tx.send(response).unwrap();
        });
        let response = rx.recv().unwrap();
        assert!(response.status().is_success());
        pool.shutdown();
    }

    #[test]
    fn submit_while_draining_sheds_through_the_callback() {
        let pool = ServerPool::start(Arc::new(serve(&site())), 1);
        pool.shared.draining.store(true, Ordering::SeqCst);
        let (tx, rx) = mpsc::sync_channel(1);
        pool.submit(Request::get("a.xml"), move |response| {
            tx.send(response).unwrap();
        });
        let response = rx.recv().expect("callback always runs");
        assert_eq!(response.status().code(), 503);
        assert_eq!(response.header_value(SHED_HEADER), Some("draining"));
        pool.shutdown();
    }

    #[test]
    fn publish_swaps_content() {
        let h = serve(&site());
        let mut new_site = Site::new();
        new_site.put_document("a.xml", Document::parse("<a>rewoven</a>").unwrap());
        h.store().publish_incremental(&new_site);
        let r = h.handle(&Request::get("a.xml"));
        assert!(r.body_text().contains("rewoven"));
    }

    #[test]
    fn pool_serves_concurrently() {
        let pool = ServerPool::start(Arc::new(serve(&site())), 4);
        assert_eq!(pool.workers(), 4);
        let receivers: Vec<_> = (0..64)
            .map(|i| {
                let path = if i % 2 == 0 { "a.xml" } else { "style.css" };
                pool.request(Request::get(path))
            })
            .collect();
        for rx in receivers {
            assert!(rx.recv().unwrap().status().is_success());
        }
        pool.shutdown();
    }

    #[test]
    fn pool_request_sync() {
        let pool = ServerPool::start(Arc::new(serve(&site())), 2);
        let r = pool.request_sync(Request::get("style.css"));
        assert_eq!(r.content_type(), Some("text/css"));
        // Drop without explicit shutdown must not hang.
    }

    fn job(path: &str) -> Job {
        Job {
            request: Request::get(path),
            enqueued: Instant::now(),
            reply: Box::new(|_| {}),
        }
    }

    fn path_of(job: Option<Job>) -> Option<String> {
        job.map(|job| job.request.path().to_string())
    }

    fn refusal(pushed: Result<(), (Job, &'static str)>) -> &'static str {
        pushed.expect_err("the push is refused").1
    }

    #[test]
    fn job_queue_sheds_queue_full_at_capacity_and_draining_once_closed() {
        let queue = JobQueue::new(1);
        assert!(queue.try_push(job("/a")).is_ok());
        assert_eq!(refusal(queue.try_push(job("/b"))), "queue-full");
        queue.close();
        assert_eq!(refusal(queue.try_push(job("/c"))), "draining");
    }

    #[test]
    fn job_queue_pops_in_fifo_order_and_drains_after_close() {
        let queue = JobQueue::new(8);
        for i in 0..8 {
            assert!(queue.try_push(job(&format!("/{i}"))).is_ok());
        }
        assert_eq!(path_of(queue.try_pop()).as_deref(), Some("/0"));
        queue.close();
        for i in 1..8 {
            assert_eq!(path_of(queue.pop()), Some(format!("/{i}")));
        }
        assert!(queue.pop().is_none(), "closed and empty ends the pop loop");
    }

    #[test]
    fn job_queue_close_wakes_every_parked_worker() {
        const PARKED: usize = 8;
        let queue = Arc::new(JobQueue::new(4));
        let (done_tx, done_rx) = mpsc::channel();
        let workers: Vec<_> = (0..PARKED)
            .map(|_| {
                let (queue, done_tx) = (Arc::clone(&queue), done_tx.clone());
                std::thread::spawn(move || done_tx.send(queue.pop().is_none()).unwrap())
            })
            .collect();
        // The sleep only lets the workers park, so that a close waking
        // fewer than all of them shows; a worker that has not parked yet
        // sees the closed flag and passes anyway.
        std::thread::sleep(Duration::from_millis(50));
        queue.close();
        for woken in 0..PARKED {
            let ended = done_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("only {woken} of {PARKED} parked workers woke"));
            assert!(ended, "a closed, empty queue pops None");
        }
        for worker in workers {
            worker.join().unwrap();
        }
    }

    #[test]
    fn publish_under_load_is_safe() {
        let handler = Arc::new(serve(&site()));
        let pool = ServerPool::start(Arc::clone(&handler), 4);
        for i in 0..32 {
            if i % 8 == 0 {
                let mut s = site();
                s.put_text("version.txt", format!("v{i}"));
                handler.store().publish_incremental(&s);
            }
            let r = pool.request_sync(Request::get("a.xml"));
            assert!(r.status().is_success());
        }
        pool.shutdown();
        assert!(handler.requests_served() >= 32);
    }
}
