//! The weave executor at 1, 2 and 8 workers on a ~1k-page museum site.
//!
//! Before timing anything the bench asserts the executor law at full
//! scale: every served body at every worker count is byte-identical to
//! `weave_separated`'s. It then times steady-state reweaves (specs from a
//! warm `WeaveCache`, so each run is transform + weave of every page — the
//! work the workers share), interleaving the worker counts rep by rep so
//! drift in the host's speed hits all three alike, and records median and
//! interquartile range per count, plus the core count, in the
//! `parallel_weave` section of `BENCH_weave.json`.
//!
//! Run: `cargo bench -p navsep-bench --bench parallel_weave`
//! (`NAVSEP_BENCH_FAST=1` for 5 reps per count instead of 15).

use navsep_bench::{fast_mode, quartiles, record_bench_section, Setup};
use navsep_core::{weave_separated, Weave, WeaveCache};
use navsep_hypermodel::AccessStructureKind;
use navsep_web::Site;
use std::num::NonZeroUsize;
use std::time::Instant;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Asserts every worker count serves `weave_separated`'s bytes; returns
/// the page count.
fn assert_byte_identical(sources: &Site, cache: &WeaveCache) -> usize {
    let reference = weave_separated(sources).expect("reference weave");
    for workers in WORKER_COUNTS {
        let woven = on(workers, cache).run(sources).expect("weave");
        assert_eq!(woven.site.len(), reference.site.len());
        for (path, res) in reference.site.iter() {
            let got = woven.site.get(path).expect("every path woven");
            assert_eq!(
                got.to_bytes(),
                res.to_bytes(),
                "served bytes differ at {path} with {workers} workers"
            );
        }
    }
    reference.reports.len()
}

fn on(workers: usize, cache: &WeaveCache) -> Weave<'_> {
    Weave {
        cache: Some(cache),
        workers: NonZeroUsize::new(workers).expect("non-zero"),
        ..Weave::default()
    }
}

fn main() {
    // 40 painters × 24 paintings → 1000 pages (+ stylesheet) once woven.
    let sources = Setup::wide(40, 24, AccessStructureKind::IndexedGuidedTour).separated();
    let cache = WeaveCache::new();
    let pages = assert_byte_identical(&sources, &cache);
    assert!(pages >= 1000, "the corpus must have >= 1k pages");

    let reps = if fast_mode() { 5 } else { 15 };
    let mut samples_ms = vec![Vec::with_capacity(reps); WORKER_COUNTS.len()];
    for _ in 0..reps {
        for (samples, workers) in samples_ms.iter_mut().zip(WORKER_COUNTS) {
            let weave = on(workers, &cache);
            let start = Instant::now();
            let woven = weave.run(&sources).expect("weave");
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            drop(woven);
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut fields = Vec::new();
    let mut medians = Vec::new();
    for (samples, workers) in samples_ms.iter_mut().zip(WORKER_COUNTS) {
        let (q1, median, q3) = quartiles(samples);
        println!(
            "parallel_weave ({pages} pages, {cores} cores): {workers} worker(s) \
             median {median:.1} ms (IQR {q1:.1}-{q3:.1}) over {reps} reps"
        );
        fields.push(format!(
            "\"w{workers}\": {{\"median_ms\": {median:.3}, \"q1_ms\": {q1:.3}, \"q3_ms\": {q3:.3}}}"
        ));
        medians.push(median);
    }
    record_bench_section(
        "parallel_weave",
        &format!(
            "{{\"pages\": {pages}, \"cores\": {cores}, \"reps\": {reps}, \"specs\": \"cached\", \
             {}, \"speedup_1_to_2\": {:.2}, \"speedup_1_to_8\": {:.2}, \"fast_mode\": {}}}",
            fields.join(", "),
            medians[0] / medians[1],
            medians[0] / medians[2],
            fast_mode(),
        ),
    );
}
