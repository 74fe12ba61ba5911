//! Overload behavior of the hardened [`ServerPool`]: shed rate and served
//! latency under a client load the pool cannot absorb, versus the same
//! pool under capacity.
//!
//! The robustness contract (ISSUE 8) is that overload is *explicit*: the
//! bounded queue sheds with 503 + `x-navsep-retry-after` instead of
//! letting latency grow without bound. The numbers recorded here — shed
//! rate and p50/p99 of the requests that were served — substantiate that
//! the served requests stay fast precisely because the excess was shed.
//!
//! It also times the pool's own per-request floor: one `request_sync`
//! round trip through an instant handler (queue push, worker wake,
//! handler, reply channel), as median and interquartile range.
//!
//! Results land in the `server_overload` section of `BENCH_weave.json`,
//! with the core count.
//!
//! Run: `cargo bench -p navsep-bench --bench server_overload`
//! (`NAVSEP_BENCH_FAST=1` for fewer requests).

use navsep_bench::{fast_mode, quartiles, record_bench_section, Setup};
use navsep_core::weave_separated;
use navsep_hypermodel::AccessStructureKind;
use navsep_web::{
    Handler, PoolConfig, Request, Response, ServerPool, ShardedSiteHandler, ShardedSiteStore,
};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The store handler with a fixed per-request work floor, standing in for
/// handlers that do real work (weave-on-miss, templating) — overload is
/// only meaningful when requests cost something.
struct WorkingHandler {
    inner: ShardedSiteHandler,
    work: Duration,
}

impl Handler for WorkingHandler {
    fn handle(&self, request: &Request) -> Response {
        std::thread::sleep(self.work);
        self.inner.handle(request)
    }
}

fn served_paths() -> (Arc<ShardedSiteStore>, Vec<String>) {
    let setup = Setup::paper(AccessStructureKind::Index);
    let site = weave_separated(&setup.separated()).expect("pipeline").site;
    let store = Arc::new(ShardedSiteStore::from_site(8, &site));
    let paths = site.paths().map(str::to_string).collect();
    (store, paths)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

struct LoadResult {
    requests: usize,
    shed: usize,
    p50: Duration,
    p99: Duration,
}

impl LoadResult {
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.requests as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \
             \"served_p50_us\": {}, \"served_p99_us\": {}}}",
            self.requests,
            self.shed,
            self.shed_rate(),
            self.p50.as_micros(),
            self.p99.as_micros(),
        )
    }
}

/// `clients` threads each fire `per_client` non-blocking requests in
/// pipelined bursts of `burst` (all sent before any reply is awaited —
/// `burst = 1` is a closed loop, larger bursts model clients that do not
/// wait); returns shed count and the latency distribution of the
/// **served** responses (shed responses return ~instantly by design).
fn drive(
    pool: &ServerPool,
    paths: &[String],
    clients: usize,
    per_client: usize,
    burst: usize,
) -> LoadResult {
    let outcomes: Vec<(bool, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(per_client);
                    for chunk in 0..per_client.div_ceil(burst) {
                        let sent: Vec<_> = (0..burst.min(per_client - chunk * burst))
                            .map(|i| {
                                let path = &paths[(c + chunk * burst + i) % paths.len()];
                                (Instant::now(), pool.request(Request::get(path.clone())))
                            })
                            .collect();
                        for (start, reply) in sent {
                            let response = reply.recv().expect("pool always answers");
                            out.push((response.status().is_success(), start.elapsed()));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let requests = outcomes.len();
    let shed = outcomes.iter().filter(|(ok, _)| !ok).count();
    let mut served: Vec<Duration> = outcomes
        .iter()
        .filter(|(ok, _)| *ok)
        .map(|(_, d)| *d)
        .collect();
    served.sort_unstable();
    LoadResult {
        requests,
        shed,
        p50: percentile(&served, 50.0),
        p99: percentile(&served, 99.0),
    }
}

/// `(q1, median, q3)` in µs of single `request_sync` round trips through
/// a 2-worker pool over the store handler, which answers at once: the
/// per-request floor of the pool machinery itself.
fn measure_roundtrip(samples: usize) -> (f64, f64, f64) {
    let (store, paths) = served_paths();
    let pool = ServerPool::start(Arc::new(ShardedSiteHandler::new(store)), 2);
    let warmup = samples / 10;
    let mut times_us = Vec::with_capacity(samples);
    for i in 0..warmup + samples {
        let request = Request::get(paths[i % paths.len()].clone());
        let start = Instant::now();
        let response = pool.request_sync(request);
        let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
        assert!(response.status().is_success());
        if i >= warmup {
            times_us.push(elapsed_us);
        }
    }
    pool.shutdown();
    quartiles(&mut times_us)
}

fn measure_overload() -> (LoadResult, LoadResult, Duration) {
    let per_client = if fast_mode() { 40 } else { 160 };
    let work = Duration::from_micros(300);

    // Under capacity: more workers than clients, a deep queue — nothing
    // sheds, latency ≈ work + dispatch.
    let (store, paths) = served_paths();
    let pool = ServerPool::start_with(
        Arc::new(WorkingHandler {
            inner: ShardedSiteHandler::new(Arc::clone(&store)),
            work,
        }),
        PoolConfig::new(4).queue_capacity(256),
    );
    let under = drive(&pool, &paths, 2, per_client, 1);
    pool.shutdown();
    assert_eq!(under.shed, 0, "under-capacity run must not shed");

    // Overload: twice the clients onto half the workers over a 4-deep
    // queue. The excess must shed (bounded queue), and the requests that
    // ARE served must stay near the under-capacity latency — that is the
    // whole point of shedding.
    let pool = ServerPool::start_with(
        Arc::new(WorkingHandler {
            inner: ShardedSiteHandler::new(store),
            work,
        }),
        PoolConfig::new(2)
            .queue_capacity(4)
            .retry_after(Duration::from_millis(5)),
    );
    let over = drive(&pool, &paths, 4, per_client, 16);
    let shed_recorded = pool.requests_shed();
    pool.shutdown();
    assert!(over.shed > 0, "overload run must shed");
    assert_eq!(over.shed as u64, shed_recorded, "pool stats agree");

    (under, over, work)
}

fn main() {
    let samples = if fast_mode() { 2_000 } else { 20_000 };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let (q1, median, q3) = measure_roundtrip(samples);
    println!(
        "server_pool ({cores} cores): request_roundtrip median {median:.1} us \
         (IQR {q1:.1}-{q3:.1}) over {samples} requests"
    );
    // One-shot scenarios, not loops: each is stateful, and minutes long
    // if iterated.
    let (under, over, work) = measure_overload();
    println!(
        "server_overload: under-capacity p50 {:?} p99 {:?} shed {}/{} | \
         overload p50 {:?} p99 {:?} shed {}/{} ({:.1}%)",
        under.p50,
        under.p99,
        under.shed,
        under.requests,
        over.p50,
        over.p99,
        over.shed,
        over.requests,
        over.shed_rate() * 100.0,
    );
    record_bench_section(
        "server_overload",
        &format!(
            "{{\"cores\": {cores}, \"request_roundtrip\": {{\"samples\": {samples}, \
             \"median_us\": {median:.2}, \"q1_us\": {q1:.2}, \"q3_us\": {q3:.2}}}, \
             \"work_floor_us\": {}, \"under_capacity\": {}, \"overload\": {}, \
             \"fast_mode\": {}}}",
            work.as_micros(),
            under.json(),
            over.json(),
            fast_mode(),
        ),
    );
}
