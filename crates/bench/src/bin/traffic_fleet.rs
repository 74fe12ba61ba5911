//! Traffic fleet: a million-request, ten-thousand-session scenario sweep
//! against the sharded serving stack, with one scenario driven over the
//! real TCP front end.
//!
//! Each scenario models a distinct traffic shape the ROADMAP's serving
//! item calls for:
//!
//! | scenario | shape |
//! |----------|-------|
//! | `zipf` | page popularity follows a zipf(1.1) law — a few hot pages, a long tail |
//! | `back_button` | readers replay history entries with `x-navsep-at-generation` (the retention ring) and revalidate with `x-navsep-if-generation` |
//! | `crawler` | full-site sweeps, every path in order, GET and HEAD |
//! | `flash_crowd` | thousands of sessions hammer one page (one shard) at once |
//! | `publish_storm` | publishes land mid-traffic; sessions observe generation churn |
//! | `wire` | the zipf mix over real TCP keep-alive connections through `HttpListener` |
//! | `c10k` | ≥10 000 concurrent sockets (mostly idle keep-alive, a zipf-hot active subset) against one event-loop listener, on a bounded thread count |
//!
//! The `c10k` scenario spreads its sockets across client **subprocesses**
//! (re-exec of this binary with `--c10k-client`) so each process stays
//! inside its own fd limit; the parent process is the server and asserts
//! the concurrent-socket floor and the OS-thread bound while the fleet is
//! connected. Linux-only (epoll + `/proc/self/status`); elsewhere it is
//! skipped with a note.
//!
//! Per-scenario requests, shed rate, and served p50/p99 land in
//! `BENCH_traffic.json` (merge-writer format, one section per scenario
//! plus a `fleet` section with totals and the honest core count).
//!
//! Usage: `cargo run --release -p navsep-bench --bin traffic_fleet [-- --smoke]`
//! (`--smoke`, or `TRAFFIC_FLEET_SMOKE=1`, is the CI-sized run — it still
//! completes ≥1M requests across ≥10k sessions; the full run quadruples
//! per-session request counts).

use navsep_bench::{banner, print_table, record_bench_section_in, traffic_json_path};
use navsep_web::wire::{read_response, serialize_request};
use navsep_web::{
    HttpListener, ListenerConfig, PoolConfig, Request, ServerPool, ShardedSiteHandler,
    ShardedSiteStore, Site, AT_GENERATION_HEADER, DEGRADED_HEADER, GENERATION_HEADER,
    IF_GENERATION_HEADER, STALE_HEADER,
};
use navsep_xml::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pages in the served corpus (plus `index.html` and `style.css`).
const PAGES: usize = 400;
/// Generations published before traffic starts.
const WARM_GENERATIONS: u64 = 6;
/// Retained-epoch ring depth — smaller than the publish churn, so
/// back-button time travel really hits the horizon sometimes.
const RETENTION: usize = 4;
/// Client threads per scenario (logical sessions are multiplexed on top).
const CLIENT_THREADS: usize = 4;

/// c10k: client subprocesses (each holds its own fd budget).
const C10K_CLIENTS: usize = 2;
/// c10k: keep-alive sockets per client subprocess.
const C10K_SOCKETS_PER_CLIENT: usize = 5_100;
/// c10k: sockets per client that actively send traffic (the rest idle in
/// keep-alive, exercising the deadline heap and the fd ceiling).
const C10K_ACTIVE_PER_CLIENT: usize = 192;
/// c10k: pipelined requests per burst (== the listener's default
/// `max_pipeline`, so pause/resume backpressure is exercised too).
const C10K_BURST: usize = 32;
/// c10k: event loops for the dedicated listener.
const C10K_LOOPS: usize = 2;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("TRAFFIC_FLEET_SMOKE").is_ok_and(|v| v == "1")
}

fn page_path(i: usize) -> String {
    format!("page-{i:03}.xml")
}

/// The corpus at a given content revision.
fn corpus(revision: u64) -> Site {
    let mut site = Site::new();
    for i in 0..PAGES {
        site.put_document(
            page_path(i),
            Document::parse(&format!(
                "<exhibit id=\"e{i}\" rev=\"{revision}\"><title>Exhibit {i}</title>\
                 <body>wing {} case {}</body></exhibit>",
                i % 12,
                i % 37,
            ))
            .expect("corpus page is well-formed"),
        );
    }
    site.put_page(
        "index.html",
        Document::parse(&format!(
            "<html><body><h1>Museum rev {revision}</h1></body></html>"
        ))
        .expect("index is well-formed"),
    );
    site.put_css("style.css", "body { margin: 0 }");
    site
}

/// Cumulative zipf(1.1) weights over the page ranks, for integer sampling.
fn zipf_cdf() -> Vec<u64> {
    let mut cdf = Vec::with_capacity(PAGES);
    let mut total = 0u64;
    for rank in 0..PAGES {
        total += (1e9 / ((rank + 1) as f64).powf(1.1)) as u64;
        cdf.push(total);
    }
    cdf
}

fn sample_zipf(cdf: &[u64], rng: &mut StdRng) -> usize {
    let total = *cdf.last().expect("non-empty cdf");
    let pick = rng.gen_range(0u64..total);
    cdf.partition_point(|&c| c <= pick)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

/// What one scenario hands back: counts plus the served-latency
/// distribution in microseconds.
struct ScenarioResult {
    name: &'static str,
    sessions: usize,
    requests: usize,
    shed: usize,
    /// Scenario-specific extras (degraded time travels, stale verdicts…).
    notes: Vec<(&'static str, u64)>,
    latencies_us: Vec<u64>,
}

impl ScenarioResult {
    fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed as f64 / self.requests as f64
        }
    }

    fn finish(mut self) -> Self {
        self.latencies_us.sort_unstable();
        self
    }

    fn p50(&self) -> u64 {
        percentile(&self.latencies_us, 50.0)
    }

    fn p99(&self) -> u64 {
        percentile(&self.latencies_us, 99.0)
    }

    fn json(&self) -> String {
        let notes = self
            .notes
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v}"))
            .collect::<String>();
        format!(
            "{{\"sessions\": {}, \"requests\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \
             \"served_p50_us\": {}, \"served_p99_us\": {}{notes}}}",
            self.sessions,
            self.requests,
            self.shed,
            self.shed_rate(),
            self.p50(),
            self.p99(),
        )
    }
}

/// Drives `sessions` logical sessions, each issuing `per_session` requests
/// built by `make` (called with session id, step, rng), in pipelined
/// bursts of `burst` per client thread. Sessions are partitioned across
/// [`CLIENT_THREADS`] threads and interleaved round-robin, so every
/// session in a thread's slice is mid-stream concurrently for the whole
/// scenario.
fn drive<F>(
    name: &'static str,
    pool: &ServerPool,
    sessions: usize,
    per_session: usize,
    burst: usize,
    seed: u64,
    make: F,
) -> ScenarioResult
where
    F: Fn(usize, usize, &mut StdRng) -> Request + Sync,
{
    let make = &make;
    let outcomes: Vec<(bool, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64) << 32);
                    let slice: Vec<usize> =
                        (0..sessions).filter(|s| s % CLIENT_THREADS == t).collect();
                    let mut out = Vec::with_capacity(slice.len() * per_session);
                    // Round-robin across the slice: step 0 for every
                    // session, then step 1, … — all sessions stay live.
                    for step in 0..per_session {
                        for chunk in slice.chunks(burst) {
                            let sent: Vec<_> = chunk
                                .iter()
                                .map(|&s| {
                                    let request = make(s, step, &mut rng);
                                    (Instant::now(), pool.request(request))
                                })
                                .collect();
                            for (start, reply) in sent {
                                let response = reply.recv().expect("pool always answers");
                                out.push((
                                    response.status().is_success(),
                                    start.elapsed().as_micros() as u64,
                                ));
                            }
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
    ScenarioResult {
        name,
        sessions,
        requests,
        shed,
        notes: Vec::new(),
        latencies_us: outcomes
            .into_iter()
            .filter(|(ok, _)| *ok)
            .map(|(_, us)| us)
            .collect(),
    }
    .finish()
}

/// Back-button readers: each session remembers the last few
/// `(path, generation)` pairs it was served and replays them with
/// `x-navsep-at-generation` (the Brewster–Jeffrey back stack over the
/// retention ring), revalidating with `x-navsep-if-generation`. Closed
/// loop (burst 1) because every next request depends on the last answer.
/// A background publisher churns the store throughout, so the ring
/// really moves: old enough replays degrade (explicitly) and their
/// conditional checks come back stale.
fn back_button_scenario(
    pool: &ServerPool,
    store: &Arc<ShardedSiteStore>,
    cdf: &[u64],
    sessions: usize,
    per_session: usize,
) -> ScenarioResult {
    struct Tally {
        outcomes: Vec<(bool, u64)>,
        degraded: u64,
        stale: u64,
    }
    let stop = Arc::new(AtomicBool::new(false));
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        {
            let store = Arc::clone(store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut revision = store.generation();
                while !stop.load(Ordering::Acquire) {
                    revision += 1;
                    store.publish_incremental(&corpus(revision));
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
            });
        }
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBACC ^ (t as u64) << 32);
                    let slice: Vec<usize> =
                        (0..sessions).filter(|s| s % CLIENT_THREADS == t).collect();
                    // Per-session memory: a small ring of served entries.
                    let mut memory: Vec<Vec<(String, u64)>> = vec![Vec::new(); slice.len()];
                    let mut tally = Tally {
                        outcomes: Vec::with_capacity(slice.len() * per_session),
                        degraded: 0,
                        stale: 0,
                    };
                    for step in 0..per_session {
                        for (i, _) in slice.iter().enumerate() {
                            let ring = &mut memory[i];
                            let replay = !ring.is_empty() && rng.gen_range(0u32..100) < 50;
                            let request = if replay {
                                let (path, generation) =
                                    ring[rng.gen_range(0usize..ring.len())].clone();
                                Request::get(path)
                                    .header(AT_GENERATION_HEADER, generation.to_string())
                                    .header(IF_GENERATION_HEADER, generation.to_string())
                            } else {
                                Request::get(page_path(sample_zipf(cdf, &mut rng)))
                            };
                            let path = request.path().to_string();
                            let start = Instant::now();
                            let response =
                                pool.request(request).recv().expect("pool always answers");
                            let ok = response.status().is_success();
                            tally
                                .outcomes
                                .push((ok, start.elapsed().as_micros() as u64));
                            if response.header_value(DEGRADED_HEADER).is_some() {
                                tally.degraded += 1;
                            }
                            if response.header_value(STALE_HEADER) == Some("stale") {
                                tally.stale += 1;
                            }
                            if ok && !replay {
                                if let Some(generation) = response
                                    .header_value(GENERATION_HEADER)
                                    .and_then(|v| v.parse::<u64>().ok())
                                {
                                    ring.push((path, generation));
                                    if ring.len() > 8 {
                                        ring.remove(0);
                                    }
                                }
                            }
                            let _ = step;
                        }
                    }
                    tally
                })
            })
            .collect();
        let tallies = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        stop.store(true, Ordering::Release);
        tallies
    });
    let mut outcomes = Vec::new();
    let mut degraded = 0u64;
    let mut stale = 0u64;
    for tally in tallies {
        outcomes.extend(tally.outcomes);
        degraded += tally.degraded;
        stale += tally.stale;
    }
    let requests = outcomes.len();
    let shed = outcomes.iter().filter(|(ok, _)| !ok).count();
    ScenarioResult {
        name: "back_button",
        sessions,
        requests,
        shed,
        notes: vec![
            ("degraded_time_travels", degraded),
            ("stale_verdicts", stale),
        ],
        latencies_us: outcomes
            .into_iter()
            .filter(|(ok, _)| *ok)
            .map(|(_, us)| us)
            .collect(),
    }
    .finish()
}

/// The zipf mix over real TCP keep-alive connections: each client thread
/// holds one connection through the [`HttpListener`] and runs its sessions
/// closed-loop over it — every byte crosses the loopback socket.
fn wire_scenario(
    listener: &HttpListener,
    cdf: &[u64],
    sessions: usize,
    per_session: usize,
) -> ScenarioResult {
    let addr = listener.local_addr();
    let outcomes: Vec<(bool, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x3132 ^ (t as u64) << 32);
                    let slice = (0..sessions).filter(|s| s % CLIENT_THREADS == t).count();
                    let stream = TcpStream::connect(addr).expect("connect to listener");
                    let mut reader =
                        BufReader::new(stream.try_clone().expect("clone client socket"));
                    let mut writer = stream;
                    let mut out = Vec::with_capacity(slice * per_session);
                    for _ in 0..per_session {
                        for s in 0..slice {
                            let head = s % 7 == 0;
                            let page = sample_zipf(cdf, &mut rng);
                            let request = if head {
                                Request::head(page_path(page))
                            } else {
                                Request::get(page_path(page))
                            };
                            let start = Instant::now();
                            writer.write_all(&serialize_request(&request)).unwrap();
                            writer.flush().unwrap();
                            let response =
                                read_response(&mut reader, head).expect("listener always answers");
                            out.push((
                                (200..300).contains(&response.status),
                                start.elapsed().as_micros() as u64,
                            ));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wire client thread"))
            .collect()
    });
    let requests = outcomes.len();
    let shed = outcomes.iter().filter(|(ok, _)| !ok).count();
    ScenarioResult {
        name: "wire",
        sessions,
        requests,
        shed,
        notes: Vec::new(),
        latencies_us: outcomes
            .into_iter()
            .filter(|(ok, _)| *ok)
            .map(|(_, us)| us)
            .collect(),
    }
    .finish()
}

/// OS threads of the current process, from `/proc/self/status` (Linux).
fn os_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// The `--c10k-client` subprocess: opens `sockets` keep-alive connections
/// to `addr`, reports `READY`, then (on `GO`) drives zipf-hot pipelined
/// bursts over the first `active` sockets while the rest idle. Prints one
/// `RESULT` line (shed count + per-request latencies) and holds every
/// socket open until `EXIT`, so the parent can verify the concurrent
/// floor at leisure.
fn c10k_client_main(args: &[String]) {
    let addr = &args[0];
    let sockets: usize = args[1].parse().expect("socket count");
    let active: usize = args[2].parse().expect("active count");
    let rounds: usize = args[3].parse().expect("round count");
    let seed: u64 = args[4].parse().expect("seed");

    let mut conns = Vec::with_capacity(sockets);
    for _ in 0..sockets {
        loop {
            match TcpStream::connect(addr.as_str()) {
                Ok(stream) => {
                    conns.push(stream);
                    break;
                }
                // Backlog pressure: retry until the listener catches up.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
    let mut readers: Vec<BufReader<TcpStream>> = conns[..active]
        .iter()
        .map(|stream| {
            let _ = stream.set_nodelay(true);
            BufReader::new(stream.try_clone().expect("clone active socket"))
        })
        .collect();
    println!("READY {}", conns.len());
    std::io::stdout().flush().expect("flush READY");

    let mut lines = BufReader::new(std::io::stdin()).lines();
    let go = lines.next().expect("GO line").expect("readable stdin");
    assert_eq!(go.trim(), "GO", "unexpected parent command");

    let cdf = zipf_cdf();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies: Vec<u64> = Vec::with_capacity(rounds * active * C10K_BURST);
    let mut shed = 0usize;
    for _ in 0..rounds {
        for a in 0..active {
            let mut segment = Vec::with_capacity(C10K_BURST * 64);
            let mut heads = [false; C10K_BURST];
            for (b, head) in heads.iter_mut().enumerate() {
                *head = b % 9 == 0;
                let path = page_path(sample_zipf(&cdf, &mut rng));
                let request = if *head {
                    Request::head(path)
                } else {
                    Request::get(path)
                };
                segment.extend_from_slice(&serialize_request(&request));
            }
            // True pipelining: the whole burst goes out before any
            // response is read; latency for request i is measured at the
            // moment response i comes back.
            let start = Instant::now();
            conns[a].write_all(&segment).expect("write burst");
            conns[a].flush().expect("flush burst");
            for head in heads {
                let response =
                    read_response(&mut readers[a], head).expect("listener always answers");
                if (200..300).contains(&response.status) {
                    latencies.push(start.elapsed().as_micros() as u64);
                } else {
                    shed += 1;
                }
            }
        }
    }

    let list = latencies
        .iter()
        .map(|us| us.to_string())
        .collect::<Vec<_>>()
        .join(",");
    println!("RESULT shed={shed} lat={list}");
    std::io::stdout().flush().expect("flush RESULT");

    let exit = lines.next().expect("EXIT line").expect("readable stdin");
    assert_eq!(exit.trim(), "EXIT", "unexpected parent command");
    drop(conns);
}

/// Reads child stdout lines until one starting with `prefix` appears.
fn await_line(reader: &mut impl BufRead, prefix: &str) -> String {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("child stdout readable");
        assert!(n > 0, "child exited before printing {prefix}");
        if line.starts_with(prefix) {
            return line.trim_end().to_string();
        }
    }
}

/// The c10k scenario: ≥10 000 concurrent keep-alive sockets against a
/// dedicated event-loop listener, client fds spread across subprocesses.
/// Asserts the concurrent-socket floor and the OS-thread bound while the
/// fleet is connected; returns `None` (with a note) off Linux.
fn c10k_scenario(handler: &Arc<ShardedSiteHandler>, smoke: bool) -> Option<ScenarioResult> {
    if !cfg!(target_os = "linux") {
        println!("c10k: skipped (requires Linux epoll + /proc/self/status)");
        return None;
    }
    let total_sockets = C10K_CLIENTS * C10K_SOCKETS_PER_CLIENT;
    let rounds = if smoke { 4 } else { 24 };
    let baseline_threads = os_thread_count().expect("read /proc/self/status");
    let listener = HttpListener::bind(
        "127.0.0.1:0",
        Arc::clone(handler),
        ListenerConfig::new(C10K_LOOPS)
            .max_connections(total_sockets + 1_800)
            .keep_alive_timeout(Duration::from_secs(60)),
    )
    .expect("bind c10k listener");
    let addr = listener.local_addr().to_string();

    let exe = std::env::current_exe().expect("own executable path");
    let mut children: Vec<(Child, BufReader<std::process::ChildStdout>)> = (0..C10K_CLIENTS)
        .map(|c| {
            let mut child = Command::new(&exe)
                .arg("--c10k-client")
                .arg(&addr)
                .arg(C10K_SOCKETS_PER_CLIENT.to_string())
                .arg(C10K_ACTIVE_PER_CLIENT.to_string())
                .arg(rounds.to_string())
                .arg((0xC10C ^ ((c as u64) << 32)).to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn c10k client");
            let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
            (child, stdout)
        })
        .collect();

    // Phase 1: every client connects its full socket fleet.
    let mut connected = 0usize;
    for (_, stdout) in &mut children {
        let ready = await_line(stdout, "READY ");
        connected += ready["READY ".len()..]
            .parse::<usize>()
            .expect("READY count");
    }
    assert_eq!(connected, total_sockets, "every client socket connected");
    // Accepts lag connects (the backlog is server-side); wait for the
    // listener to adopt the whole fleet.
    let adopt_deadline = Instant::now() + Duration::from_secs(60);
    while listener.stats().open_now < total_sockets as u64 && Instant::now() < adopt_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = listener.stats();
    let os_threads = os_thread_count().expect("read /proc/self/status");
    let concurrent = stats.open_now;
    println!(
        "c10k: {concurrent} sockets open concurrently, {os_threads} OS threads \
         (baseline {baseline_threads}, {C10K_LOOPS} loops)"
    );
    assert!(
        concurrent >= 10_000,
        "c10k floor: need >=10000 concurrent sockets, listener holds {concurrent}"
    );
    // The whole point: the thread count must not scale with sockets. The
    // listener's loops answer every request themselves; it adds those
    // threads (+ a small constant) and nothing per connection.
    assert!(
        os_threads <= baseline_threads + C10K_LOOPS as u64 + 4,
        "thread count must be loops + O(1), not O(connections): \
         {os_threads} threads over a baseline of {baseline_threads}"
    );

    // Phase 2: traffic over the zipf-hot active subset; the other ~96% of
    // sockets stay idle in keep-alive the whole time.
    let started = Instant::now();
    for (child, _) in &mut children {
        let stdin = child.stdin.as_mut().expect("child stdin");
        stdin.write_all(b"GO\n").expect("send GO");
        stdin.flush().expect("flush GO");
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut shed = 0usize;
    for (_, stdout) in &mut children {
        let result = await_line(stdout, "RESULT ");
        let rest = &result["RESULT ".len()..];
        let (shed_part, lat_part) = rest.split_once(" lat=").expect("RESULT format");
        shed += shed_part
            .strip_prefix("shed=")
            .expect("RESULT format")
            .parse::<usize>()
            .expect("shed count");
        latencies.extend(
            lat_part
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<u64>().expect("latency sample")),
        );
    }
    let elapsed = started.elapsed();
    // Sockets are still held open; snapshot the peak before release.
    let peak = listener.stats().peak_open;
    for (child, _) in &mut children {
        let stdin = child.stdin.as_mut().expect("child stdin");
        stdin.write_all(b"EXIT\n").expect("send EXIT");
        stdin.flush().expect("flush EXIT");
    }
    for (mut child, _) in children {
        let status = child.wait().expect("child exit");
        assert!(status.success(), "c10k client failed: {status}");
    }
    let requests = latencies.len() + shed;
    println!(
        "c10k: {requests} requests over the active subset in {elapsed:.2?}, \
         {shed} shed, peak {peak} sockets"
    );
    listener.shutdown();
    Some(
        ScenarioResult {
            name: "c10k",
            sessions: total_sockets,
            requests,
            shed,
            notes: vec![
                ("concurrent_sockets", concurrent),
                ("peak_sockets", peak),
                ("os_threads", os_threads),
                ("baseline_threads", baseline_threads),
                ("loops", C10K_LOOPS as u64),
            ],
            latencies_us: latencies,
        }
        .finish(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--c10k-client") {
        c10k_client_main(&args[pos + 1..]);
        return;
    }
    let smoke = smoke_mode();
    let scale = if smoke { 1 } else { 4 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The served store: a warm history of generations over a bounded ring.
    let store = Arc::new(ShardedSiteStore::with_retention(16, RETENTION));
    for revision in 1..=WARM_GENERATIONS {
        store.publish_incremental(&corpus(revision));
    }
    let handler = Arc::new(ShardedSiteHandler::new(Arc::clone(&store)));
    let pool = ServerPool::start_with(
        Arc::clone(&handler),
        PoolConfig::new(CLIENT_THREADS).queue_capacity(1024),
    );
    let listener = HttpListener::bind(
        "127.0.0.1:0",
        Arc::clone(&handler),
        ListenerConfig::new(CLIENT_THREADS),
    )
    .expect("bind traffic listener");
    let cdf = zipf_cdf();

    banner(&format!(
        "traffic_fleet — scenario sweep over {PAGES}+2 paths, {WARM_GENERATIONS} warm \
         generations, ring of {RETENTION}, {cores} core(s){}",
        if smoke { " (smoke)" } else { "" }
    ));

    let started = Instant::now();
    let mut results: Vec<ScenarioResult> = Vec::new();

    // zipf: popularity-skewed reads, the bread-and-butter load.
    results.push(drive(
        "zipf",
        &pool,
        4000,
        100 * scale,
        32,
        0x21BF,
        |_, _, rng| Request::get(page_path(sample_zipf(&cdf, rng))),
    ));

    // back_button: history replays through the retention ring.
    results.push(back_button_scenario(&pool, &store, &cdf, 3000, 100 * scale));

    // crawler: full-site sweeps in path order, every 4th crawler HEADs.
    let all_paths: Vec<String> = (0..PAGES)
        .map(page_path)
        .chain(["index.html".to_string(), "style.css".to_string()])
        .collect();
    let sweep = all_paths.len();
    results.push(drive(
        "crawler",
        &pool,
        240,
        sweep * scale,
        64,
        0xC4A1,
        |s, step, _| {
            let path = all_paths[step % sweep].clone();
            if s % 4 == 0 {
                Request::head(path)
            } else {
                Request::get(path)
            }
        },
    ));

    // flash_crowd: everyone on one page — one shard takes the spike.
    results.push(drive(
        "flash_crowd",
        &pool,
        2500,
        60 * scale,
        64,
        0xF1A5,
        |_, _, _| Request::get(page_path(7)),
    ));

    // publish_storm: publishes land mid-traffic; readers carry
    // if-generation so the churn is observable in the responses.
    {
        let stop = Arc::new(AtomicBool::new(false));
        let publishes = std::thread::scope(|scope| {
            let publisher = {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut published = 0u64;
                    let mut revision = store.generation();
                    while !stop.load(Ordering::Acquire) {
                        revision += 1;
                        store.publish_incremental(&corpus(revision));
                        published += 1;
                    }
                    published
                })
            };
            let result = drive(
                "publish_storm",
                &pool,
                1000,
                60 * scale,
                16,
                0x5702,
                |_, _, rng| {
                    Request::get(page_path(sample_zipf(&cdf, rng)))
                        .header(IF_GENERATION_HEADER, WARM_GENERATIONS.to_string())
                },
            );
            stop.store(true, Ordering::Release);
            let published = publisher.join().expect("publisher thread");
            let mut result = result;
            result.notes.push(("publishes_landed", published));
            results.push(result);
            published
        });
        assert!(publishes >= 1, "the storm must land at least one publish");
    }

    // wire: the same mix over real TCP through the HttpListener.
    results.push(wire_scenario(&listener, &cdf, 680, 80 * scale));

    // c10k: ten thousand concurrent sockets on a bounded thread count.
    let c10k_ran = match c10k_scenario(&handler, smoke) {
        Some(result) => {
            results.push(result);
            true
        }
        None => false,
    };

    let elapsed = started.elapsed();

    // Report.
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.sessions.to_string(),
                r.requests.to_string(),
                format!("{:.2}%", r.shed_rate() * 100.0),
                format!("{}us", r.p50()),
                format!("{}us", r.p99()),
            ]
        })
        .collect();
    print_table(
        &["scenario", "sessions", "requests", "shed", "p50", "p99"],
        &rows,
    );

    let total_requests: usize = results.iter().map(|r| r.requests).sum();
    let total_sessions: usize = results.iter().map(|r| r.sessions).sum();
    let total_shed: usize = results.iter().map(|r| r.shed).sum();
    let throughput = total_requests as f64 / elapsed.as_secs_f64();
    println!();
    println!(
        "fleet: {total_requests} requests across {total_sessions} sessions in {elapsed:.2?} \
         ({throughput:.0} req/s), {total_shed} shed, final generation {}",
        store.generation()
    );
    let front = listener.stats();
    println!(
        "wire front end: {} connections accepted, {} requests served over TCP",
        front.accepted, front.requests_served,
    );

    // Record every scenario plus the fleet totals.
    let path = traffic_json_path();
    for result in &results {
        record_bench_section_in(&path, result.name, &result.json());
    }
    record_bench_section_in(
        &path,
        "fleet",
        &format!(
            "{{\"requests\": {total_requests}, \"sessions\": {total_sessions}, \
             \"shed\": {total_shed}, \"elapsed_s\": {:.2}, \"req_per_s\": {throughput:.0}, \
             \"cores\": {cores}, \"smoke\": {smoke}}}",
            elapsed.as_secs_f64(),
        ),
    );
    println!("recorded: {}", path.display());

    // Acceptance gates (hold in smoke and full mode alike).
    assert!(
        total_requests >= 1_000_000,
        "fleet must complete at least 1M requests (got {total_requests})"
    );
    assert!(
        total_sessions >= 10_000,
        "fleet must span at least 10k sessions (got {total_sessions})"
    );
    let wire = results.iter().find(|r| r.name == "wire").expect("wire ran");
    assert!(
        wire.shed == 0 || wire.shed < wire.requests,
        "the wire path must answer"
    );
    if c10k_ran {
        // The floor and the thread bound were asserted live, while the
        // fleet was connected; here we only re-check the recorded note.
        let c10k = results.iter().find(|r| r.name == "c10k").expect("c10k ran");
        let sockets = c10k
            .notes
            .iter()
            .find(|(k, _)| *k == "concurrent_sockets")
            .map_or(0, |(_, v)| *v);
        assert!(
            sockets >= 10_000,
            "c10k must record its >=10k concurrent-socket floor (got {sockets})"
        );
    } else if cfg!(target_os = "linux") {
        panic!("c10k must run on Linux; it only skips elsewhere");
    }
    let back = results
        .iter()
        .find(|r| r.name == "back_button")
        .expect("back_button ran");
    let note = |name: &str| {
        back.notes
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(
        note("degraded_time_travels") >= 1,
        "churn must push some replays past the retention horizon"
    );
    assert!(
        note("stale_verdicts") >= 1,
        "churn must make some conditional checks come back stale"
    );
    assert!(
        store.generation() > WARM_GENERATIONS,
        "the publish storm must advance the generation"
    );
    pool.shutdown();
    listener.shutdown();
    println!("\nOK — every request answered; per-scenario numbers recorded.");
}
