//! The edit tail after a linkbase swap: `SitePublisher::commit()` latency
//! at each position of a swap cycle on a ~1k-page museum site.
//!
//! The publisher serves through a 16-shard store with a ring of 4 epochs.
//! Each cycle is one `links.xml` swap (Index ↔ Indexed Guided Tour, a full
//! weave) followed by nine one-page painting retitles. The commit at each
//! position is timed on its own, so a cost that only some positions pay
//! (expanding the new linkbase's traversal list, freeing the superseded
//! weave when its last epoch leaves the ring) shows up at its position
//! instead of being averaged away.
//!
//! Records median and interquartile range per position (`swap`, `swap+1`
//! … `swap+9`), plus the core count, in the `publish_tail` section of
//! `BENCH_weave.json`, and asserts the tail is flat: the worst post-swap
//! position's median is at most 3× the median of positions swap+5 …
//! swap+9, where nothing the swap left behind remains to be paid.
//!
//! Run: `cargo bench -p navsep-bench --bench publish_tail`
//! (`NAVSEP_BENCH_FAST=1` for 8 timed cycles instead of 24).

use navsep_bench::{fast_mode, quartiles, record_bench_section, Setup};
use navsep_core::layout::LINKBASE_PATH;
use navsep_core::{SitePublisher, SourceEdit};
use navsep_hypermodel::AccessStructureKind;
use navsep_web::{ShardedSiteStore, Site};
use navsep_xml::Document;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 16;
const RETENTION: usize = 4;
/// Painting retitles after each swap.
const EDITS_PER_SWAP: usize = 9;
/// Positions swap+5 … swap+9: the steady state the tail is compared with.
const STEADY: std::ops::RangeInclusive<usize> = 5..=9;
/// The largest allowed ratio of the worst post-swap median to the steady
/// median.
const MAX_TAIL_RATIO: f64 = 3.0;

fn linkbase(access: AccessStructureKind) -> Document {
    Setup::wide(40, 24, access)
        .separated()
        .get(LINKBASE_PATH)
        .and_then(|r| r.document())
        .cloned()
        .expect("sources carry links.xml")
}

/// The data document at `path` with the text of its first `<title>`
/// replaced by `title`.
fn retitled(sources: &Site, path: &str, title: &str) -> Document {
    let xml = sources
        .get(path)
        .and_then(|r| r.document())
        .map(Document::to_xml_string)
        .expect("painting data document");
    let open = xml.find("<title>").expect("painting has a title") + "<title>".len();
    let close = open + xml[open..].find("</title>").expect("closed title");
    Document::parse(&format!("{}{title}{}", &xml[..open], &xml[close..])).expect("retitled parses")
}

fn position_name(position: usize) -> String {
    match position {
        0 => "swap".to_string(),
        k => format!("swap+{k}"),
    }
}

fn main() {
    // 40 painters × 24 paintings → ~1000 pages once woven.
    let sources = Setup::wide(40, 24, AccessStructureKind::Index).separated();
    let index_links = linkbase(AccessStructureKind::Index);
    let igt_links = linkbase(AccessStructureKind::IndexedGuidedTour);
    let paintings: Vec<String> = sources
        .iter()
        .map(|(path, _)| path)
        .filter(|path| path.starts_with("painting-") && path.ends_with(".xml"))
        .map(str::to_string)
        .collect();
    assert!(paintings.len() >= 900, "the corpus must have ~1k paintings");

    let store = Arc::new(ShardedSiteStore::with_retention(SHARDS, RETENTION));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    let first = publisher.commit().expect("initial weave");
    let pages = first.pages_rewoven;

    // One untimed cycle fills the ring and the allocator's free lists.
    let warmup = 1;
    let cycles = if fast_mode() { 8 } else { 24 };
    let mut samples_ms = vec![Vec::new(); EDITS_PER_SWAP + 1];
    let mut on_igt = false;
    let mut edit_no = 0usize;
    for cycle in 0..warmup + cycles {
        for (position, samples) in samples_ms.iter_mut().enumerate() {
            let edit = if position == 0 {
                on_igt = !on_igt;
                let links = if on_igt { &igt_links } else { &index_links };
                SourceEdit::put_document(LINKBASE_PATH, links.clone())
            } else {
                edit_no += 1;
                // A fixed stride walks the paintings without repeats.
                let path = &paintings[(edit_no * 389) % paintings.len()];
                let title = format!("{} rev {edit_no}", path.trim_end_matches(".xml"));
                SourceEdit::put_document(path.clone(), retitled(publisher.sources(), path, &title))
            };
            publisher.stage(edit);
            let start = Instant::now();
            let outcome = publisher.commit().expect("commit");
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            if position > 0 {
                assert_eq!(outcome.pages_rewoven, 1, "a retitle reweaves one page");
            }
            if cycle >= warmup {
                samples.push(elapsed_ms);
            }
        }
    }

    let mut steady: Vec<f64> = STEADY
        .flat_map(|position| samples_ms[position].iter().copied())
        .collect();
    let (_, steady_median, _) = quartiles(&mut steady);
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut fields = Vec::new();
    let mut worst = (0.0f64, 1usize);
    for (position, samples) in samples_ms.iter_mut().enumerate() {
        let (q1, median, q3) = quartiles(samples);
        let name = position_name(position);
        println!(
            "publish_tail ({pages} pages, {cores} cores): {name:>7} commit() \
             median {median:.2} ms (IQR {q1:.2}-{q3:.2}) over {cycles} cycles"
        );
        fields.push(format!(
            "\"{name}\": {{\"median_ms\": {median:.3}, \"q1_ms\": {q1:.3}, \"q3_ms\": {q3:.3}}}"
        ));
        if position > 0 && median > worst.0 {
            worst = (median, position);
        }
    }
    let ratio = worst.0 / steady_median;
    println!(
        "publish_tail: worst post-swap position {} median {:.2} ms = {ratio:.2}x the \
         swap+5..swap+9 median {steady_median:.2} ms (bar <= {MAX_TAIL_RATIO}x)",
        position_name(worst.1),
        worst.0,
    );
    record_bench_section(
        "publish_tail",
        &format!(
            "{{\"pages\": {pages}, \"cores\": {cores}, \"shards\": {SHARDS}, \
             \"retention\": {RETENTION}, \"cycles\": {cycles}, {}, \
             \"steady_median_ms\": {steady_median:.3}, \"worst_post_swap\": \"{}\", \
             \"worst_ratio\": {ratio:.2}, \"fast_mode\": {}}}",
            fields.join(", "),
            position_name(worst.1),
            fast_mode(),
        ),
    );
    assert!(
        ratio <= MAX_TAIL_RATIO,
        "the edit tail after a swap is not flat: {} median {:.2} ms is {ratio:.2}x the steady \
         median {steady_median:.2} ms",
        position_name(worst.1),
        worst.0,
    );
}
