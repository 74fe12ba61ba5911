//! Cold-start derivation cost against corpus size: `generated_museum`
//! plus the separated sources under the Index and the Indexed Guided Tour
//! linkbases, the model work a server does before its first commit.
//!
//! Times the whole derivation (model, both `separated_sources` calls, and
//! dropping what they built) at 40 and at 400 painters × 24 paintings,
//! alternating the two sizes so host drift hits both alike. Records the
//! median and interquartile range per size, the core count and the cost
//! ratio between the sizes in the `derive_scaling` section of
//! `BENCH_weave.json`, and asserts that 10× the corpus costs at most 20×
//! the time: linear derivation reads ~10×, and one quadratic lookup (an
//! object, link or member found by scanning) pushes the ratio past 40×.
//!
//! Run: `cargo bench -p navsep-bench --bench derive_scaling`
//! (`NAVSEP_BENCH_FAST=1` for 5 timed rounds instead of 15).

use navsep_bench::{fast_mode, quartiles, record_bench_section};
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_hypermodel::AccessStructureKind;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Painter counts of the small and the large corpus.
const SIZES: [usize; 2] = [40, 400];
const PAINTINGS_PER_PAINTER: usize = 24;
const MOVEMENTS: usize = 3;
const SEED: u64 = 7;
/// The largest allowed ratio of the large corpus's median to the small
/// one's (the corpus ratio is 10).
const MAX_COST_RATIO: f64 = 20.0;

/// Derives both separated authorings of a `painters` × 24 museum; returns
/// the number of sources built and the wall time in milliseconds.
fn derive(painters: usize) -> (usize, f64) {
    let start = Instant::now();
    let model = generated_museum(painters, PAINTINGS_PER_PAINTER, MOVEMENTS, SEED);
    let nav = museum_navigation();
    let mut sources = 0;
    for access in [
        AccessStructureKind::Index,
        AccessStructureKind::IndexedGuidedTour,
    ] {
        sources += separated_sources(&model, &nav, &paper_spec(access))
            .expect("the generated museum derives")
            .len();
    }
    drop(model);
    (sources, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let rounds = if fast_mode() { 5 } else { 15 };
    let mut samples_ms = [Vec::new(), Vec::new()];
    let mut sources = [0usize; 2];
    // One untimed round warms the allocator at both sizes.
    for round in 0..=rounds {
        for (at, &painters) in SIZES.iter().enumerate() {
            let (built, ms) = derive(painters);
            sources[at] = built;
            if round > 0 {
                samples_ms[at].push(ms);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut medians = [0.0f64; 2];
    let mut fields = Vec::new();
    for (at, samples) in samples_ms.iter_mut().enumerate() {
        let (q1, median, q3) = quartiles(samples);
        medians[at] = median;
        let painters = SIZES[at];
        println!(
            "derive_scaling ({painters} painters x {PAINTINGS_PER_PAINTER}, {} sources, \
             {cores} cores): median {median:.2} ms (IQR {q1:.2}-{q3:.2}) over {rounds} rounds",
            sources[at],
        );
        fields.push(format!(
            "\"painters_{painters}\": {{\"sources\": {}, \"median_ms\": {median:.3}, \
             \"q1_ms\": {q1:.3}, \"q3_ms\": {q3:.3}}}",
            sources[at],
        ));
    }
    let ratio = medians[1] / medians[0];
    let corpus_ratio = SIZES[1] / SIZES[0];
    println!(
        "derive_scaling: {corpus_ratio}x the corpus costs {ratio:.2}x the time \
         (bar <= {MAX_COST_RATIO}x)"
    );
    record_bench_section(
        "derive_scaling",
        &format!(
            "{{\"paintings_per_painter\": {PAINTINGS_PER_PAINTER}, \"cores\": {cores}, \
             \"rounds\": {rounds}, {}, \"cost_ratio\": {ratio:.2}, \
             \"max_cost_ratio\": {MAX_COST_RATIO}, \"fast_mode\": {}}}",
            fields.join(", "),
            fast_mode(),
        ),
    );
    assert!(
        ratio <= MAX_COST_RATIO,
        "derivation is not linear: {corpus_ratio}x the corpus costs {ratio:.2}x the time \
         ({:.2} ms against {:.2} ms)",
        medians[1],
        medians[0],
    );
}
