//! One command for the navsep benchmark:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_zipf|author_edits|serve_during_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It builds the real stack (`SitePublisher` → `ShardedSiteStore` →
//! `HttpListener` on 127.0.0.1), drives the workload from this process,
//! checks every response and commit, prints every metric by name with its
//! unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the workload untraced and then
//! traced, and reports the per-layer breakdown plus the tracing overhead.
//! Results and spans are written under `perfbench/results/`.

mod author;
mod client;
mod gen;
mod metrics;
mod replay;
mod stack;
mod stats;
mod trace;

use author::{Archive, AuthorEnv, AuthorLog, Prepared, SPEC_SNAPSHOTS};
use client::{History, Obs, OpenLoop, Saturation};
use gen::{edit_script, read_mix, ReadOp};
use metrics::{unit_of, END_TO_END, PER_LAYER, WORKLOADS};
use navsep_core::layout::{data_path, slug_of_page};
use replay::{PublishReplay, ReplayRequest, ServeBreakdown, PUBLISH_STAGES};
use stack::Stack;
use stats::{median, supports, Sample};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Offered rate of the open-loop readers, requests per second. At this
/// rate the CPUs stay busy enough that a wake-up rarely waits for an idle
/// vCPU to be rescheduled, which at lower rates dominates the tail.
const READ_RATE: f64 = 6000.0;
/// Pipelined requests each saturation connection keeps in flight (the
/// listener's `max_pipeline`, so the server always has a full batch).
const SAT_DEPTH: usize = stack::MAX_PIPELINE;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Requests of the serving replay in a traced run.
const SERVE_REPLAY_SAMPLE: usize = 3000;
/// A generator whose median lateness exceeds this fell behind its
/// schedule (stalls make single sends late; a backlog makes most late).
const LATENESS_LIMIT_US: f64 = 1_000.0;
/// Reads per window of the windowed read percentiles (1/3 s of the open
/// loop; p99 of a window has 20 reads beyond it).
const READ_WINDOW: usize = 2000;
/// Bucket of the saturation rate, ns.
const RATE_BUCKET_NS: u64 = 250_000_000;
/// The edit tail percentile (the author makes a few hundred edits a run,
/// so p90 is the highest one with ten samples beyond it everywhere).
const EDIT_TAIL: f64 = 90.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = args.workload == "all" || WORKLOADS.iter().any(|w| w.0 == args.workload);
    if !known {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.map(|w| w.0).join(", ")
        ));
    }
    Ok(args)
}

/// How a workload spends its seconds.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Open-loop read phase, s.
    open: f64,
    /// Closed-loop saturation phase, s.
    sat: f64,
    /// Author phase on its own, s (unused when `churn`).
    author: f64,
    /// The author commits through the read phases instead.
    churn: bool,
    /// The author phase comes before the read phases.
    author_first: bool,
    /// Half the open-loop reads are back-button replays.
    replays: bool,
    /// Saturation connections (the churn author holds the other one).
    sat_conns: usize,
}

impl Plan {
    /// One round's share of every phase.
    fn per_round(&self, rounds: usize) -> Plan {
        let share = 1.0 / rounds as f64;
        Plan {
            open: self.open * share,
            sat: self.sat * share,
            author: self.author * share,
            ..*self
        }
    }
}

/// A run interleaves its phases over one round per `ROUND_SECONDS` of
/// `--seconds`, so that a few seconds of interference from elsewhere on
/// the host touch a share of every metric's samples instead of all of
/// one metric's.
const ROUND_SECONDS: f64 = 5.0;

fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS).round() as usize).max(1)
}

fn plan(workload: &str, seconds: f64) -> Plan {
    match workload {
        "serve_zipf" => Plan {
            open: 0.45 * seconds,
            sat: 0.15 * seconds,
            author: 0.40 * seconds,
            churn: false,
            author_first: false,
            replays: false,
            sat_conns: 2,
        },
        "author_edits" => Plan {
            open: 0.15 * seconds,
            sat: 0.15 * seconds,
            author: 0.70 * seconds,
            churn: false,
            author_first: true,
            replays: false,
            sat_conns: 2,
        },
        _ => Plan {
            open: 0.70 * seconds,
            sat: 0.30 * seconds,
            author: 0.0,
            churn: true,
            author_first: false,
            replays: true,
            sat_conns: 1,
        },
    }
}

/// Inputs generated from the seed before anything is timed.
struct Inputs {
    open_ops: Vec<ReadOp>,
    sat_ops: Vec<ReadOp>,
    tour_pages: Vec<String>,
}

/// Everything one pass of a workload's phases measured, pooled over its
/// rounds.
#[derive(Default)]
struct Pass {
    open: OpenLoop,
    sat: Saturation,
    /// 2xx responses per saturation bucket, every round's full buckets.
    sat_buckets: Vec<f64>,
    /// Each round's median open-loop read latency, µs.
    round_read_p50_us: Vec<f64>,
    author: AuthorLog,
    failures: Vec<String>,
}

impl Pass {
    fn absorb_open(&mut self, open: OpenLoop) {
        self.round_read_p50_us.push(median(&open.latency_us));
        let o = &mut self.open;
        o.latency_us.extend(open.latency_us);
        o.rtt_us.extend(open.rtt_us);
        o.lateness_us.extend(open.lateness_us);
        o.obs.extend(open.obs);
        o.requests.extend(open.requests);
        o.sent += open.sent;
    }

    fn absorb_sat(&mut self, sat: Saturation) {
        self.sat_buckets
            .extend(stats::bucket_counts(&sat.ok_at_ns, RATE_BUCKET_NS));
        self.sat.ok += sat.ok;
        self.sat.seconds += sat.seconds;
        self.sat.sent += sat.sent;
        self.sat.obs.extend(sat.obs);
    }

    fn absorb_author(&mut self, log: AuthorLog) {
        let a = &mut self.author;
        a.edit_ms.extend(log.edit_ms);
        a.css_ms.extend(log.css_ms);
        a.spec_ms.extend(log.spec_ms);
        a.commit_ms.extend(log.commit_ms);
        a.commits += log.commits;
        a.commit_errors += log.commit_errors;
        a.failures.extend(log.failures);
        a.obs.extend(log.obs);
        a.sent += log.sent;
        a.snapshots.extend(log.snapshots);
        a.retries += log.retries;
        a.exhausted |= log.exhausted;
    }
}

/// One round of the read phases: the open loop over `ops`, then
/// saturation.
fn read_phases(
    addr: SocketAddr,
    paths: &[String],
    ops: &[ReadOp],
    inputs: &Inputs,
    round: &Plan,
    seed: u64,
    pass: &mut Pass,
) {
    let history = History::default();
    match client::open_loop(addr, paths, ops, READ_RATE, &history, seed) {
        Ok(open) => pass.absorb_open(open),
        Err(e) => pass.failures.push(format!("open loop: {e}")),
    }
    let sat_for = Duration::from_secs_f64(round.sat);
    match client::saturate(
        addr,
        paths,
        &inputs.sat_ops,
        round.sat_conns,
        SAT_DEPTH,
        sat_for,
    ) {
        Ok(sat) => pass.absorb_sat(sat),
        Err(e) => pass.failures.push(format!("saturation: {e}")),
    }
}

/// Runs the workload's phases, interleaved over `rounds(seconds)` rounds.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    stack: &mut Stack,
    inputs: &Inputs,
    plan: &Plan,
    rounds: usize,
    script: &mut std::vec::IntoIter<Prepared>,
    archive: &mut Archive,
    mut replay: Option<&mut PublishReplay>,
    seed: u64,
) -> Pass {
    let Stack {
        publisher,
        listener,
        paths,
        index_links,
        igt_links,
        ..
    } = stack;
    let addr = listener.local_addr();
    let paths: &[String] = paths;
    let env = AuthorEnv {
        addr,
        paths,
        tour_pages: &inputs.tour_pages,
        index_links,
        igt_links,
    };
    let round = plan.per_round(rounds);
    let per_round_reads = (READ_RATE * round.open).round() as usize;
    let ops = |r: usize| &inputs.open_ops[r * per_round_reads..(r + 1) * per_round_reads];
    let mut pass = Pass::default();
    if plan.churn {
        let stop = AtomicBool::new(false);
        let stop = &stop;
        let env = &env;
        let log = std::thread::scope(|scope| {
            let author = scope.spawn(move || {
                author::run(
                    publisher,
                    env,
                    script,
                    archive,
                    replay,
                    SPEC_SNAPSHOTS,
                    seed,
                    || stop.load(Ordering::SeqCst),
                )
            });
            for r in 0..rounds {
                read_phases(addr, paths, ops(r), inputs, &round, seed, &mut pass);
            }
            stop.store(true, Ordering::SeqCst);
            author.join().expect("author thread panicked")
        });
        pass.absorb_author(log);
        return pass;
    }
    for r in 0..rounds {
        let mut author_phase = |pass: &mut Pass| {
            let until = Instant::now() + Duration::from_secs_f64(round.author);
            let keep = SPEC_SNAPSHOTS.saturating_sub(pass.author.snapshots.len());
            let replay = replay.as_deref_mut();
            let log = author::run(publisher, &env, script, archive, replay, keep, seed, || {
                Instant::now() >= until
            });
            pass.absorb_author(log);
        };
        if plan.author_first {
            author_phase(&mut pass);
            read_phases(addr, paths, ops(r), inputs, &round, seed, &mut pass);
        } else {
            read_phases(addr, paths, ops(r), inputs, &round, seed, &mut pass);
            author_phase(&mut pass);
        }
    }
    pass
}

/// Checks every observed response against the bytes the store published
/// for its `(path, generation)`; returns the failures.
fn check_obs(obs: &[Obs], archive: &Archive, paths: &[String]) -> Vec<String> {
    let mut failures = Vec::new();
    for o in obs {
        let path = &paths[o.path as usize];
        let problem = if o.status != 200 {
            Some(format!("status {}", o.status))
        } else if let Some(asked) = o.asked_generation.filter(|_| !o.degraded) {
            (o.generation != asked)
                .then(|| format!("replay of generation {asked} served {}", o.generation))
        } else {
            None
        };
        let problem = problem.or_else(|| match archive.get(o.path, o.generation) {
            None => Some(format!("generation {} was never published", o.generation)),
            Some((_, len)) if o.head => {
                (o.len != len).then(|| format!("HEAD length {} != {len}", o.len))
            }
            Some((hash, len)) => {
                (o.hash != hash || o.len != len).then(|| "wrong bytes".to_string())
            }
        });
        if let Some(problem) = problem {
            failures.push(format!("{path}@{}: {problem}", o.generation));
        }
    }
    failures
}

/// VmHWM of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A printed metric: value plus the note shown beside it.
struct Metric {
    value: f64,
    note: String,
}

/// The outcome of one workload run.
struct Report {
    text: String,
    attempted: u64,
    failed: u64,
    valid: bool,
    metrics: BTreeMap<&'static str, Metric>,
}

fn fmt_table(out: &mut String, names: &[&'static str], metrics: &BTreeMap<&'static str, Metric>) {
    for name in names {
        if let Some(m) = metrics.get(name) {
            // Names end in their unit (`_ms`, `_us`) when not in a table.
            let unit = unit_of(name).unwrap_or_else(|| name.rsplit('_').next().unwrap_or(""));
            let _ = writeln!(out, "  {name:<36} {:>14.4} {unit:<6} {}", m.value, m.note);
        }
    }
}

fn latency_sample(open: &OpenLoop) -> Sample {
    Sample::new(open.latency_us.clone())
}

/// 2xx per second in saturation: the median 250 ms bucket of all rounds.
fn peak_rps(pass: &Pass) -> f64 {
    median(&pass.sat_buckets) * 1e9 / RATE_BUCKET_NS as f64
}

/// Back-button replays whose generation had left the retention ring, and
/// all replays.
fn degraded_replays(pass: &Pass) -> (usize, usize) {
    let replays = pass
        .open
        .obs
        .iter()
        .filter(|o| o.asked_generation.is_some());
    replays.fold((0, 0), |(d, n), o| (d + usize::from(o.degraded), n + 1))
}

/// The read figures that are printed but not gated (see `per_layer`).
fn read_diagnostics(pass: &Pass) -> String {
    let reads = latency_sample(&pass.open);
    let (p95, windows) = stats::windowed_percentile(&pass.open.latency_us, READ_WINDOW, 95.0);
    let (degraded, replays) = degraded_replays(pass);
    format!(
        "reads: whole-run p50 {:.1}us, p95 of {windows} windows {p95:.1}us, p99 {:.1}us (n={}; {}); \
         {degraded} of {replays} back-button replays degraded; \
         saturation {:.0} 2xx/s (median of {} {}ms buckets; {} 2xx in {:.2}s)",
        reads.median(),
        reads.pct(99.0),
        reads.len(),
        reads.tail_note(),
        peak_rps(pass),
        pass.sat_buckets.len(),
        RATE_BUCKET_NS / 1_000_000,
        pass.sat.ok,
        pass.sat.seconds
    )
}

/// The end-to-end metrics of one pass.
fn end_to_end(pass: &Pass, setup: &Sample, out: &mut BTreeMap<&'static str, Metric>) {
    let reads = latency_sample(&pass.open);
    let rounds = Sample::new(pass.round_read_p50_us.clone());
    let edits = Sample::new(pass.author.edit_ms.clone());
    let specs = Sample::new(pass.author.spec_ms.clone());
    let n = |s: &Sample| format!("n={}", s.len());
    out.insert(
        "setup_s",
        Metric {
            value: setup.median(),
            note: format!("median of {} set-ups", setup.len()),
        },
    );
    out.insert(
        "read_p50_us",
        Metric {
            value: rounds.pct(25.0),
            note: format!(
                "lower quartile of {} rounds' medians (whole run {:.1}, {}), from scheduled send, open loop {}/s",
                rounds.len(),
                reads.median(),
                n(&reads),
                READ_RATE
            ),
        },
    );
    out.insert(
        "publish_edit_p50_ms",
        Metric {
            value: edits.median(),
            note: format!("{}, stage -> first response with the edit", n(&edits)),
        },
    );
    out.insert(
        "publish_edit_p90_ms",
        Metric {
            value: edits.pct(EDIT_TAIL),
            note: format!("{}; {}", n(&edits), edits.tail_note()),
        },
    );
    out.insert(
        "publish_spec_p50_ms",
        Metric {
            value: specs.median(),
            note: format!("{}, links.xml Index<->IGT swap", n(&specs)),
        },
    );
}

/// The per-layer metrics of a traced pass.
fn per_layer(
    traced: &Pass,
    untraced: &Pass,
    publish: &PublishReplay,
    serve: &ServeBreakdown,
    (served, bad, shed): (u64, u64, u64),
    cache: (u64, u64),
    out: &mut BTreeMap<&'static str, Metric>,
) {
    let mut put = |name: &'static str, value: f64, note: String| {
        out.insert(name, Metric { value, note });
    };
    let n = serve.parse_ns.len();
    put(
        "wire.parse_ns",
        median(&serve.parse_ns),
        format!("median, n={n} replayed"),
    );
    put(
        "wire.serialize_ns",
        median(&serve.serialize_ns),
        format!("median, n={n}"),
    );
    put(
        "handler.handle_ns",
        median(&serve.handle_ns),
        format!("median, n={n}"),
    );
    put(
        "store.get_ns",
        median(&serve.get_ns),
        format!("median, n={}", serve.get_ns.len()),
    );
    put(
        "store.get_at_ns",
        median(&serve.get_at_ns),
        format!("median, n={}", serve.get_at_ns.len()),
    );
    put(
        "server.hop_us",
        median(&serve.hop_ns) / 1e3,
        format!("median submit->callback minus handle, n={n}"),
    );
    let rtt = median(&traced.open.rtt_us);
    let stages_us = (median(&serve.parse_ns)
        + median(&serve.handle_ns)
        + median(&serve.serialize_ns)
        + median(&serve.hop_ns))
        / 1e3;
    put(
        "serve.unattributed_us",
        rtt - stages_us,
        format!("client RTT median {rtt:.1}us minus parse+handle+serialize+hop {stages_us:.1}us"),
    );
    let (degraded, replays) = degraded_replays(traced);
    put(
        "store.degraded_ratio",
        degraded as f64 / replays.max(1) as f64,
        format!("{degraded} of {replays} live back-button replays"),
    );
    put(
        "listener.requests_served",
        served as f64,
        "whole run".to_string(),
    );
    put("listener.bad_requests", bad as f64, "whole run".to_string());
    put("server.shed", shed as f64, "whole run".to_string());
    // Not gated end to end: on a 2-vCPU host shared with other machines
    // these move by a quarter to several times between runs.
    put(
        "client.read_peak_rps",
        peak_rps(untraced),
        format!(
            "untraced pass, median of {} 250ms buckets",
            untraced.sat_buckets.len()
        ),
    );
    for (name, p) in [("client.read_p95_us", 95.0), ("client.read_p99_us", 99.0)] {
        let (value, windows) =
            stats::windowed_percentile(&untraced.open.latency_us, READ_WINDOW, p);
        put(
            name,
            value,
            format!("untraced pass, median of {windows} windows' p{p} ({READ_WINDOW} reads each)"),
        );
    }
    let lateness = Sample::new(untraced.open.lateness_us.clone());
    put(
        "client.lateness_p99_us",
        lateness.pct(99.0),
        format!("untraced pass, n={}", lateness.len()),
    );

    let rows = &publish.rows;
    let commits = rows.len().max(1) as f64;
    let mean_ms = |ns: u64| ns as f64 / commits / 1e6;
    for (i, (_, name)) in PUBLISH_STAGES.iter().enumerate() {
        let total: u64 = rows.iter().map(|r| r.stage_ns[i]).sum();
        put(
            name,
            mean_ms(total),
            format!("mean per commit, {} commits", rows.len()),
        );
    }
    let unattributed: i64 = rows.iter().map(|r| r.unattributed_ns).sum();
    put(
        "publish.unattributed_ms",
        unattributed as f64 / commits / 1e6,
        "commit minus its re-timed stages, mean".to_string(),
    );
    put(
        "publish.overattributed_commits",
        rows.iter().filter(|r| r.unattributed_ns < 0).count() as f64,
        "commits whose re-timed stages ran longer than the commit".to_string(),
    );
    let commit_total: u64 = rows.iter().map(|r| r.commit_ns).sum();
    put(
        "publisher.commit_ms",
        mean_ms(commit_total),
        format!("mean, {} commits", rows.len()),
    );
    let reused: usize = rows
        .iter()
        .map(|r| r.outcome.store_publish.pages_reused)
        .sum();
    let rendered: usize = rows
        .iter()
        .map(|r| r.outcome.store_publish.pages_rendered)
        .sum();
    put(
        "store.reuse_ratio",
        reused as f64 / (reused + rendered).max(1) as f64,
        format!("{reused} reused / {} entries", reused + rendered),
    );
    let swapped: usize = rows
        .iter()
        .map(|r| r.outcome.store_publish.shards_swapped)
        .sum();
    put(
        "store.shards_swapped",
        swapped as f64 / commits,
        "mean per commit".to_string(),
    );
    let (hits, misses) = cache;
    put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        format!("{hits} hits, {misses} misses"),
    );
    let rewoven: usize = rows.iter().map(|r| r.outcome.pages_rewoven).sum();
    put(
        "publisher.pages_rewoven",
        rewoven as f64 / commits,
        "mean per commit".to_string(),
    );
    put(
        "publisher.retries",
        traced.author.retries as f64,
        "traced pass".to_string(),
    );
    put(
        "publisher.commits",
        rows.len() as f64,
        "traced pass".to_string(),
    );
    let p50 = |p: &Pass| latency_sample(&p.open).median();
    put(
        "trace.overhead_read_p50_us",
        p50(traced) - p50(untraced),
        format!("traced {:.2} - untraced {:.2}", p50(traced), p50(untraced)),
    );
    for (name, values) in [
        ("author.edit_p50_ms", &untraced.author.edit_ms),
        ("author.spec_p50_ms", &untraced.author.spec_ms),
    ] {
        put(
            name,
            median(values),
            format!("untraced pass, n={}", values.len()),
        );
    }
    let e50 = |p: &Pass| median(&p.author.edit_ms);
    put(
        "trace.overhead_publish_edit_p50_ms",
        e50(traced) - e50(untraced),
        format!("traced {:.3} - untraced {:.3}", e50(traced), e50(untraced)),
    );
}

/// Per-commit-class breakdown, printed in traced runs.
fn class_table(publish: &PublishReplay) -> String {
    const CLASSES: [&str; 3] = ["painting", "css", "spec"];
    let mut out = String::from("publish breakdown by commit class (mean ms per commit):\n");
    let _ = write!(out, "  {:<28}", "stage");
    for class in CLASSES {
        let n = publish.rows.iter().filter(|r| r.kind == class).count();
        let _ = write!(out, " {:>14}", format!("{class} n={n}"));
    }
    out.push('\n');
    let mut line = |label: &str, ns: &dyn Fn(&replay::CommitRow) -> f64| {
        let _ = write!(out, "  {label:<28}");
        for class in CLASSES {
            let values: Vec<f64> = publish
                .rows
                .iter()
                .filter(|r| r.kind == class)
                .map(ns)
                .collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let _ = write!(out, " {:>14.3}", mean / 1e6);
        }
        out.push('\n');
    };
    for (i, (stage, _)) in PUBLISH_STAGES.iter().enumerate() {
        line(stage, &|r| r.stage_ns[i] as f64);
    }
    line("publish.unattributed", &|r| r.unattributed_ns as f64);
    line("publisher.commit", &|r| r.commit_ns as f64);
    out
}

/// Samples the open-loop request sequence for the serving replay.
fn replay_sample(pass: &Pass, paths: &[String]) -> Vec<ReplayRequest> {
    let reqs = &pass.open.requests;
    let step = (reqs.len() / SERVE_REPLAY_SAMPLE).max(1);
    reqs.iter()
        .zip(&pass.open.obs)
        .step_by(step)
        .take(SERVE_REPLAY_SAMPLE)
        .map(|(&(path, head, asked), o)| ReplayRequest {
            path: paths[path as usize].clone(),
            head,
            at: asked,
            generation: o.generation,
        })
        .collect()
}

fn run_workload(workload: &'static str, args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let started = Instant::now();
    // Half the set-ups run now (the last one is kept), the rest after the
    // measured passes, so set-up time samples both ends of the run.
    let (mut stack, mut setup_times) = stack::build_timed(seed, SETUPS.div_ceil(2))?;
    let mut failures: Vec<String> = Vec::new();
    if let Err(e) = stack::check_invariant(&stack) {
        failures.push(format!("tangled != woven: {e}"));
    }
    let mut archive = Archive::default();
    archive.record(&stack.store, &stack.paths, stack.store.generation());

    // Inputs, all from the seed, before any timed phase.
    let plan = plan(workload, args.seconds);
    let rounds = rounds(args.seconds);
    let n_paths = stack.paths.len();
    let open_count = (READ_RATE * plan.per_round(rounds).open).round() as usize * rounds;
    let tour_pages: Vec<String> = stack
        .paths
        .iter()
        .filter(|p| p.starts_with("painting-") && p.ends_with(".html"))
        .cloned()
        .collect();
    let paintings: Vec<String> = tour_pages
        .iter()
        .filter_map(|p| slug_of_page(p).map(data_path))
        .collect();
    let inputs = Inputs {
        open_ops: read_mix(seed, 3, n_paths, open_count, plan.replays),
        sat_ops: read_mix(seed, 5, n_paths, 1 << 16, false),
        tour_pages,
    };
    let pass_count = if args.trace { 2.0 } else { 1.0 };
    let commits = (pass_count * args.seconds * 120.0) as usize + 200;
    let script = edit_script(seed, &paintings, commits);
    let mut script = author::prepare(&script, stack.publisher.sources())?.into_iter();

    let untraced = run_pass(
        &mut stack,
        &inputs,
        &plan,
        rounds,
        &mut script,
        &mut archive,
        None,
        seed,
    );
    let mut traced = None;
    if args.trace {
        let tracer = Tracer::new(started);
        let mut publish = PublishReplay::new(&stack.publisher, tracer)?;
        let cache0 = (
            stack.publisher.cache().hits(),
            stack.publisher.cache().misses(),
        );
        let pass = run_pass(
            &mut stack,
            &inputs,
            &plan,
            rounds,
            &mut script,
            &mut archive,
            Some(&mut publish),
            seed,
        );
        let cache = (
            stack.publisher.cache().hits() - cache0.0,
            stack.publisher.cache().misses() - cache0.1,
        );
        let sample = replay_sample(&pass, &stack.paths);
        let serve = replay::replay_serving(&mut publish.tracer, &stack.store, &sample)?;
        traced = Some((pass, publish, serve, cache));
    }
    let rss = peak_rss_mb();

    // Checks after the timed phases.
    let passes: Vec<&Pass> = std::iter::once(&untraced)
        .chain(traced.as_ref().map(|t| &t.0))
        .collect();
    let mut attempted = stack.warmup_sent;
    let mut sent = stack.warmup_sent;
    for pass in &passes {
        failures.extend(pass.failures.iter().cloned());
        failures.extend(pass.author.failures.iter().cloned());
        for obs in [&pass.open.obs, &pass.sat.obs, &pass.author.obs] {
            failures.extend(check_obs(obs, &archive, &stack.paths));
            attempted += obs.len() as u64;
        }
        attempted += pass.author.commits;
        sent += pass.open.sent + pass.sat.sent + pass.author.sent;
        for snapshot in &pass.author.snapshots {
            if let Err(e) = replay::check_against_uncached(&snapshot.sources, &snapshot.pages) {
                failures.push(e);
            }
        }
    }
    let stats = stack.listener.stats();
    let shed = stack.listener.requests_shed();
    // `requests_served` counts every answer, 400s and sheds included.
    if stats.requests_served != sent {
        failures.push(format!(
            "conservation: sent {sent} != served {}",
            stats.requests_served
        ));
    }
    if stats.bad_requests != 0 || shed != 0 {
        failures.push(format!("{} bad requests, {shed} shed", stats.bad_requests));
    }
    if let Some((_, publish, _, _)) = &traced {
        failures.extend(publish.mismatches.iter().cloned());
        for row in &publish.rows {
            let sum = row.stage_ns.iter().sum::<u64>() as i64 + row.unattributed_ns;
            if sum != row.commit_ns as i64 {
                failures.push(format!(
                    "stages + unattributed {sum} != commit {}",
                    row.commit_ns
                ));
            }
        }
    }

    // Validity of the measurement itself.
    let mut notes = Vec::new();
    let lateness = Sample::new(untraced.open.lateness_us.clone());
    let mut valid = true;
    for pass in &passes {
        let late = median(&pass.open.lateness_us);
        if late.is_nan() || late > LATENESS_LIMIT_US {
            valid = false;
            notes.push(format!(
                "INVALID: open-loop generator fell behind (median lateness {late:.0}us)"
            ));
        }
        if pass.author.exhausted {
            valid = false;
            notes.push("INVALID: the edit script ran out".to_string());
        }
    }
    // The end-to-end figures come from the untraced pass, and a traced run
    // does not report them.
    let edits = untraced.author.edit_ms.len();
    if !args.trace && (!supports(edits, EDIT_TAIL) || untraced.author.spec_ms.is_empty()) {
        valid = false;
        notes.push(format!(
            "INVALID: {edits} edits / {} swaps cannot support p{EDIT_TAIL} and a swap median",
            untraced.author.spec_ms.len()
        ));
    }
    if untraced.open.latency_us.len() < READ_WINDOW {
        valid = false;
        notes.push("INVALID: too few reads for one window".to_string());
    }

    // The listener's counters are final: stop the stack, then make the
    // remaining set-ups.
    let counts = (stats.requests_served, stats.bad_requests, shed);
    stack.shutdown();
    for _ in SETUPS.div_ceil(2)..SETUPS {
        let start = Instant::now();
        let extra = stack::build(seed)?;
        setup_times.push(start.elapsed().as_secs_f64());
        extra.shutdown();
    }
    let setup = Sample::new(setup_times);

    let mut metrics = BTreeMap::new();
    end_to_end(&untraced, &setup, &mut metrics);
    metrics.insert(
        "peak_rss_mb",
        Metric {
            value: rss,
            note: "VmHWM of the whole process".to_string(),
        },
    );
    let failed = failures.len() as u64;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench workload={workload} seed={seed} seconds={} trace={} nproc={} profile={} transport=loopback",
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let _ = writeln!(text, "config: {}", stack::describe_config());
    let _ = writeln!(
        text,
        "plan: {rounds} rounds of: open loop {:.2}s at {}/s{}, saturation {:.2}s on {} conn x depth {SAT_DEPTH}, {}",
        plan.per_round(rounds).open,
        READ_RATE,
        if plan.replays {
            " (half back-button replays)"
        } else {
            ""
        },
        plan.per_round(rounds).sat,
        plan.sat_conns,
        if plan.churn {
            "author commits throughout".to_string()
        } else {
            format!(
                "author {:.2}s {}",
                plan.per_round(rounds).author,
                if plan.author_first { "first" } else { "last" }
            )
        }
    );
    let _ = writeln!(
        text,
        "generator lateness: p50 {:.1}us p99 {:.1}us max {:.1}us (n={}); {}",
        lateness.median(),
        lateness.pct(99.0),
        lateness.pct(100.0),
        lateness.len(),
        if valid { "run valid" } else { "run INVALID" }
    );
    for pass in &passes {
        let a = &pass.author;
        let _ = writeln!(
            text,
            "author: {} commits ({} painting, {} css, {} swaps), css p50 {:.3}ms, commit() p50 {:.3}ms",
            a.commits,
            a.edit_ms.len(),
            a.css_ms.len(),
            a.spec_ms.len(),
            median(&a.css_ms),
            median(&a.commit_ms)
        );
    }
    let _ = writeln!(
        text,
        "conservation: sent {sent} = served {} (bad {}, shed {}); checks: {} failed",
        stats.requests_served,
        stats.bad_requests,
        shed,
        failures.len()
    );
    let _ = writeln!(
        text,
        "fail_ratio: {failed}/{attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    for note in &notes {
        let _ = writeln!(text, "{note}");
    }
    for failure in failures.iter().take(20) {
        let _ = writeln!(text, "FAILED: {failure}");
    }
    let _ = writeln!(
        text,
        "end-to-end metrics{}:",
        if args.trace { " (untraced pass)" } else { "" }
    );
    let e2e_names: Vec<&'static str> = END_TO_END.iter().map(|m| m.0).collect();
    fmt_table(&mut text, &e2e_names, &metrics);
    let _ = writeln!(text, "{}", read_diagnostics(&untraced));
    let _ = writeln!(text, "not gated (they move with host speed here):");
    fmt_table(
        &mut text,
        &["publish_edit_p50_ms", "publish_spec_p50_ms"],
        &metrics,
    );

    if let Some((pass, publish, serve, cache)) = &traced {
        per_layer(
            pass,
            &untraced,
            publish,
            serve,
            counts,
            *cache,
            &mut metrics,
        );
        let _ = writeln!(text, "per-layer metrics (traced pass):");
        let names: Vec<&'static str> = PER_LAYER.iter().map(|m| m.0).collect();
        fmt_table(&mut text, &names, &metrics);
        text.push_str(&class_table(publish));
        let dir = results_dir();
        let file = format!("{dir}/spans-{workload}-seed{seed}.jsonl");
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, publish.tracer.to_jsonl()))
        {
            Ok(()) => {
                let _ = writeln!(
                    text,
                    "{} spans written to {file}",
                    publish.tracer.spans().len()
                );
            }
            Err(e) => {
                let _ = writeln!(text, "could not write {file}: {e}");
            }
        }
    }
    Ok(Report {
        text,
        attempted,
        failed,
        valid,
        metrics,
    })
}

fn results_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/results").to_string()
}

/// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`
/// with the metrics of the requested kind.
fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workloads: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|w| args.workload == "all" || *w == args.workload)
        .collect();
    let names: Vec<&'static str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut reported = Vec::new();
    for workload in &workloads {
        let report = match run_workload(workload, &args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", report.text);
        attempted += report.attempted;
        failed += report.failed;
        correct &= report.failed == 0 && report.valid;
        for name in &names {
            let value = report.metrics.get(name).map_or(f64::NAN, |m| m.value);
            if !value.is_finite() {
                eprintln!("perfbench: {workload}: {name} was not measured");
                correct = false;
            }
            let key = if workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{workload}/{name}")
            };
            reported.push((key, value, unit_of(name).unwrap_or("")));
        }
    }
    let line = json_line(correct, attempted, failed, &reported);
    let dir = results_dir();
    let file = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(file, format!("{line}\n")));
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(true, 3, 0, &[("setup_s".to_string(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn plans_spend_exactly_the_run_seconds() {
        for (workload, _) in WORKLOADS {
            let p = plan(workload, 20.0);
            let total = p.open + p.sat + if p.churn { 0.0 } else { p.author };
            assert!((total - 20.0).abs() < 1e-9, "{workload}: {total}");
        }
    }
}
