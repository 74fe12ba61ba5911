//! ServerPool robustness contract: graceful shutdown, overload shedding,
//! queue deadlines, panic respawn, and counter conservation.
//!
//! Every test here must terminate on its own — a hang is itself the
//! failure being guarded against (the shutdown path joins real threads and
//! drains a real queue; nothing is mocked).

use navsep_web::{
    Handler, PoolConfig, Request, Response, ServerPool, RETRY_AFTER_HEADER, SHED_HEADER,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Answers after `delay`, counting completions; panics on `/boom`.
struct SlowHandler {
    delay: Duration,
    completed: AtomicU64,
}

impl SlowHandler {
    fn new(delay: Duration) -> Self {
        SlowHandler {
            delay,
            completed: AtomicU64::new(0),
        }
    }
}

impl Handler for SlowHandler {
    fn handle(&self, request: &Request) -> Response {
        if request.path() == "/boom" {
            panic!("test handler panic");
        }
        std::thread::sleep(self.delay);
        self.completed.fetch_add(1, Ordering::SeqCst);
        Response::ok(
            "text/plain",
            format!("done:{}", request.path()).into_bytes().into(),
        )
    }
}

/// Silences the on-purpose `/boom` panics while leaving real ones loud.
fn quiet_test_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("test handler panic") && !message.contains("test callback panic") {
                previous(info);
            }
        }));
    });
}

#[test]
fn shutdown_completes_the_in_flight_request() {
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(80)));
    let pool = ServerPool::start(Arc::clone(&handler), 1);
    let reply = pool.request(Request::get("/a"));
    // Let the single worker pick the job up before we start draining.
    std::thread::sleep(Duration::from_millis(20));
    pool.shutdown();
    let response = reply.recv().expect("in-flight reply must arrive");
    assert!(response.status().is_success(), "in-flight work completes");
    assert_eq!(handler.completed.load(Ordering::SeqCst), 1);
}

#[test]
fn shutdown_sheds_queued_but_unstarted_requests() {
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(80)));
    let pool = ServerPool::start_with(Arc::clone(&handler), PoolConfig::new(1).queue_capacity(16));
    let in_flight = pool.request(Request::get("/first"));
    std::thread::sleep(Duration::from_millis(20));
    let queued: Vec<_> = (0..4)
        .map(|i| pool.request(Request::get(format!("/queued{i}"))))
        .collect();
    pool.shutdown();
    assert!(in_flight.recv().unwrap().status().is_success());
    for reply in queued {
        let response = reply
            .recv()
            .expect("queued requests are answered, not dropped");
        assert_eq!(response.status().code(), 503);
        assert_eq!(response.header_value(SHED_HEADER), Some("draining"));
        assert!(response.header_value(RETRY_AFTER_HEADER).is_some());
    }
    assert_eq!(
        handler.completed.load(Ordering::SeqCst),
        1,
        "only the in-flight request ran"
    );
}

#[test]
fn shutdown_never_hangs_even_with_a_deep_queue() {
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(50)));
    let pool = ServerPool::start_with(handler, PoolConfig::new(2).queue_capacity(64));
    let replies: Vec<_> = (0..32)
        .map(|i| pool.request(Request::get(format!("/q{i}"))))
        .collect();
    let start = Instant::now();
    pool.shutdown();
    // Worst case: the two in-flight requests finish, everything else is
    // shed. Far under a second; minutes would mean a join deadlock.
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        start.elapsed()
    );
    for reply in replies {
        let response = reply.recv().expect("every accepted request is answered");
        assert!(
            response.status().is_success() || response.status().code() == 503,
            "got {}",
            response.status().code()
        );
    }
}

#[test]
fn overload_sheds_with_queue_full_and_retry_after() {
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(60)));
    let pool = ServerPool::start_with(
        Arc::clone(&handler),
        PoolConfig::new(1)
            .queue_capacity(1)
            .retry_after(Duration::from_millis(7)),
    );
    // Fire a burst without waiting on any reply: one request goes
    // in-flight, one fits the 1-deep queue, the rest must shed instantly.
    let replies: Vec<_> = (0..8)
        .map(|i| pool.request(Request::get(format!("/r{i}"))))
        .collect();
    let responses: Vec<_> = replies
        .into_iter()
        .enumerate()
        .map(|(i, reply)| reply.recv().unwrap_or_else(|_| panic!("reply {i} dropped")))
        .collect();
    assert!(
        responses.iter().any(|r| r.status().is_success()),
        "some of the burst is served"
    );
    let shed = responses
        .iter()
        .find(|r| r.status().code() == 503)
        .expect("a 1-deep queue over a slow worker must shed");
    assert_eq!(shed.header_value(SHED_HEADER), Some("queue-full"));
    assert_eq!(shed.header_value(RETRY_AFTER_HEADER), Some("7"));
    assert!(pool.requests_shed() >= 1);
    pool.shutdown();
}

#[test]
fn queue_deadline_expires_stale_requests_with_503() {
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(60)));
    let pool = ServerPool::start_with(
        Arc::clone(&handler),
        PoolConfig::new(1)
            .queue_capacity(8)
            .deadline(Duration::from_millis(20)),
    );
    let first = pool.request(Request::get("/fresh"));
    std::thread::sleep(Duration::from_millis(10));
    // These wait >60ms behind /fresh — past their 20ms deadline.
    let stale: Vec<_> = (0..3)
        .map(|i| pool.request(Request::get(format!("/stale{i}"))))
        .collect();
    assert!(first.recv().unwrap().status().is_success());
    for reply in stale {
        let response = reply.recv().unwrap();
        assert_eq!(response.status().code(), 503);
        assert_eq!(response.header_value(SHED_HEADER), Some("deadline"));
        assert!(response.header_value(RETRY_AFTER_HEADER).is_some());
    }
    assert!(pool.requests_timed_out() >= 3);
    pool.shutdown();
}

#[test]
fn handler_panic_answers_500_and_respawns_the_worker() {
    quiet_test_panics();
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(1)));
    let pool = ServerPool::start(Arc::clone(&handler), 1);
    let response = pool.request_sync(Request::get("/boom"));
    assert_eq!(response.status().code(), 500);
    assert!(response.body_text().contains("panicked"));
    assert!(response.header_value(RETRY_AFTER_HEADER).is_some());
    assert_eq!(pool.panics_absorbed(), 1);
    // The replacement starts asynchronously; wait for it,
    // then prove the pool still serves.
    let start = Instant::now();
    while pool.workers_spawned() < 2 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "replacement worker never spawned"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = pool.request_sync(Request::get("/ok"));
    assert!(response.status().is_success());
    pool.shutdown();
}

#[test]
fn pool_survives_a_burst_of_panics() {
    quiet_test_panics();
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(1)));
    let pool = ServerPool::start(Arc::clone(&handler), 2);
    for _ in 0..6 {
        let response = pool.request_sync(Request::get("/boom"));
        assert_eq!(response.status().code(), 500);
    }
    assert_eq!(pool.panics_absorbed(), 6);
    let response = pool.request_sync(Request::get("/after"));
    assert!(response.status().is_success(), "pool outlived 6 panics");
    assert!(pool.workers_spawned() >= 8, "2 initial + 6 replacements");
    pool.shutdown();
}

#[test]
fn panicking_reply_callback_costs_a_worker_that_is_respawned() {
    quiet_test_panics();
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(1)));
    let pool = ServerPool::start(Arc::clone(&handler), 1);
    pool.submit(Request::get("/a"), |_| panic!("test callback panic"));
    // Only a replacement worker can answer: the pool's one worker ran the
    // panicking callback.
    let response = pool
        .request(Request::get("/b"))
        .recv_timeout(Duration::from_secs(2))
        .expect("the pool keeps serving after a reply callback panics");
    assert!(response.status().is_success());
    assert_eq!(pool.panics_absorbed(), 1);
    assert_eq!(pool.workers_spawned(), 2);
    assert_eq!(handler.completed.load(Ordering::SeqCst), 2);
    pool.shutdown();
}

#[test]
fn every_submission_is_answered_once_and_counted_once() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    const TOTAL: usize = THREADS * PER_THREAD;
    let handler = Arc::new(SlowHandler::new(Duration::from_millis(2)));
    let pool = ServerPool::start_with(
        Arc::clone(&handler),
        PoolConfig::new(1)
            .queue_capacity(1)
            .deadline(Duration::from_millis(1)),
    );
    let (tx, answers) = mpsc::channel();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (pool, tx) = (&pool, tx.clone());
            scope.spawn(move || {
                for i in t * PER_THREAD..(t + 1) * PER_THREAD {
                    let tx = tx.clone();
                    pool.submit(Request::get(format!("/c{i}")), move |response| {
                        tx.send((i, response)).unwrap();
                    });
                }
            });
        }
    });
    drop(tx);
    let mut calls = vec![0u32; TOTAL];
    let mut served = 0;
    for _ in 0..TOTAL {
        let (i, response) = answers
            .recv_timeout(Duration::from_secs(10))
            .expect("every callback runs");
        calls[i] += 1;
        if response.status().is_success() {
            served += 1;
        } else {
            assert_eq!(response.status().code(), 503, "request {i}");
            assert!(response.header_value(SHED_HEADER).is_some(), "request {i}");
            assert!(
                response.header_value(RETRY_AFTER_HEADER).is_some(),
                "request {i}"
            );
        }
    }
    // The counters move before each reply runs, so they are final now.
    let (shed, timed_out) = (pool.requests_shed(), pool.requests_timed_out());
    pool.shutdown();
    assert!(answers.recv().is_err(), "no callback runs twice");
    assert!(calls.iter().all(|&n| n == 1), "every callback runs once");
    assert_eq!(handler.completed.load(Ordering::SeqCst), served);
    assert_eq!(
        served + shed + timed_out,
        TOTAL as u64,
        "handled {served}, shed {shed}, timed out {timed_out}"
    );
    assert!(shed > 0, "a 1-deep queue under 4 threads sheds");
}
