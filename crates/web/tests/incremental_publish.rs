//! The incremental-publish laws: for any edit script, the store serves
//! exactly what a from-scratch render of each step's site would serve —
//! same bodies, generations 1, 2, … — and a retained generation replays
//! the byte-exact bodies it originally served.
//!
//! The store-level property drives one random edit script through a store
//! publishing **incrementally** (diff, reuse, skip) and holds it to the
//! **full** render, kept here as test-only spec code: step `n` goes live
//! as generation `n`, serves exactly the step's paths, and serves each as
//! the step's site renders it (`site.get(path).to_bytes()`).
//! `incremental publish ≡ full publish` means:
//!
//! * after every step the served body of every path is identical;
//! * the global generation sequence is 1, 2, …;
//! * a path the step changed is stamped with the step's generation
//!   (unchanged paths may keep an older stamp — the stamp of the
//!   generation that last changed them, which is the precision the
//!   conditional-navigation check builds on).
//!
//! A third store, the twin, publishes the same script as change sets: the
//! changed pages, removals of the dropped ones, plus no-op puts and
//! removals. `change-set publish ≡ whole-site incremental publish` means
//! the same bytes and stamps per path and the same
//! [`IncrementalPublish`](navsep_web::IncrementalPublish), step by step.
//!
//! A publisher-level end-to-end test replays a data-edit script through
//! `SitePublisher` (which rides the incremental path) against from-scratch
//! weaves of the same sources.
//!
//! The retirement property holds the store to its memory contract over
//! random mixes of all-page and one-page edits, with and without pins,
//! watching every published resource through a `Weak` only: nothing is
//! freed while a retained epoch still serves it, everything evicted is
//! freed within a bounded number of later publishes (and all of it when
//! the store is dropped), and the not-yet-freed backlog stays within one
//! site's worth of shards.

use navsep_web::{ChangeSet, Resource, ShardedSiteStore, Site};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Weak};

const PATHS: usize = 6;

fn path_of(slot: usize) -> String {
    format!("page-{slot}.txt")
}

/// One scripted step: for each slot, `None` removes the page, `Some(v)`
/// sets its content to stamp `v`.
type Step = Vec<Option<u8>>;

fn site_of(step: &Step) -> Site {
    let mut site = Site::new();
    for (slot, state) in step.iter().enumerate() {
        if let Some(v) = state {
            site.put_text(path_of(slot), format!("content {v} of {slot}"));
        }
    }
    site
}

fn script_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::of(0u8..4), PATHS..PATHS + 1),
        1..8,
    )
}

/// The change set from `previous` to `step`: a put of every changed page
/// and a removal of every dropped one, plus, chosen by `index`, a no-op
/// put of an unchanged page (its content key matches, so it is reused)
/// and a no-op removal of an absent one.
fn changes_of(previous: &Step, step: &Step, site: &Site, index: usize) -> ChangeSet {
    let mut changes = ChangeSet::new();
    for (slot, (before, now)) in previous.iter().zip(step).enumerate() {
        let path = path_of(slot);
        let noop = (slot + index).is_multiple_of(3);
        match (before == now, site.get_shared(&path)) {
            (false, Some(res)) => changes.put_shared(&path, Arc::clone(res)),
            (false, None) => changes.remove(&path),
            (true, Some(res)) if noop => changes.put_shared(&path, Arc::clone(res)),
            (true, None) if noop => changes.remove(&path),
            (true, _) => {}
        }
    }
    changes
}

proptest! {
    /// The law: `incremental publish ≡ full publish` over random edit
    /// scripts — the served bodies a full render of each step's site gives
    /// and generations 1, 2, …, step by step — and `change-set publish ≡
    /// whole-site incremental publish`.
    #[test]
    fn incremental_publish_equals_full_publish(script in script_strategy()) {
        let incremental = ShardedSiteStore::new(4);
        let twin = ShardedSiteStore::new(4);
        let mut previous: Step = vec![None; PATHS];
        for (index, step) in script.into_iter().enumerate() {
            let site = site_of(&step);
            // The full side: every page rendered afresh, as generation n.
            let g_full = index as u64 + 1;
            let stats = incremental.publish_incremental(&site);
            prop_assert_eq!(g_full, stats.generation, "generation sequences must match");
            let changes = changes_of(&previous, &step, &site, index);
            let twin_stats = twin.try_publish_changes(&changes).expect("no faults armed");
            prop_assert_eq!(&twin_stats, &stats, "step {}: {:?}", index, changes);
            for slot in 0..PATHS {
                let path = path_of(slot);
                let a = incremental.get(&path).map(|r| (r.generation(), r.body()));
                let b = twin.get(&path).map(|r| (r.generation(), r.body()));
                prop_assert_eq!(a, b, "step {}: {}", index, &path);
            }
            prop_assert_eq!(g_full, incremental.generation());
            prop_assert_eq!(site.len(), incremental.len());
            for slot in 0..PATHS {
                let path = path_of(slot);
                let a = site.get(&path).map(|res| res.to_bytes());
                let b = incremental.get(&path);
                prop_assert_eq!(a.is_some(), b.is_some(), "presence of {}", &path);
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a, b.body(), "served body of {}", &path);
                    // A changed path carries this step's stamp, as the
                    // full render stamps it; an unchanged one may trail,
                    // but never lead.
                    if previous[slot] != step[slot] {
                        prop_assert_eq!(b.generation(), g_full);
                        prop_assert_eq!(b.generation(), stats.generation);
                    } else {
                        prop_assert!(b.generation() <= g_full);
                    }
                }
            }
            previous = step;
        }
    }

    /// Retention replay: whatever generation stamped a read, `get_at`
    /// with that stamp returns the byte-identical body for as long as the
    /// epoch is retained.
    #[test]
    fn retained_generations_replay_byte_identically(script in script_strategy()) {
        let store = ShardedSiteStore::new(4);
        // (path, generation) -> body bytes, as first observed.
        let mut observed: BTreeMap<(String, u64), bytes::Bytes> = BTreeMap::new();
        for step in &script {
            store.publish_incremental(&site_of(step));
            for slot in 0..PATHS {
                let path = path_of(slot);
                if let Some(read) = store.get(&path) {
                    observed
                        .entry((path, read.generation()))
                        .or_insert_with(|| read.body());
                }
            }
        }
        for ((path, generation), body) in &observed {
            if let Some(replayed) = store.get_at(path, *generation) {
                prop_assert_eq!(
                    &replayed.body(),
                    body,
                    "replay of {} at generation {}",
                    path,
                    generation
                );
            }
            // A miss is legal only past the retention horizon — i.e. the
            // generation is genuinely no longer in the ring.
            else {
                prop_assert!(
                    !store.retained_generations().contains(generation)
                        || store.get(path).is_none()
                        || store.get(path).unwrap().generation() != *generation,
                    "{} at retained generation {} must be servable",
                    path,
                    generation
                );
            }
        }
    }
}

/// One retirement step: `(kind, slot, pin)`. Kind 0 rewrites every page,
/// any other kind rewrites page `slot`; either publishes the whole site.
/// Pin 0 pins the new generation, pin 1 releases the oldest live pin,
/// anything else leaves the pins alone.
type RetirementStep = (usize, usize, usize);

fn retirement_script() -> impl Strategy<Value = Vec<RetirementStep>> {
    proptest::collection::vec((0usize..4, 0usize..PATHS, 0usize..4), 1..40)
}

/// One published resource, watched without keeping it alive.
struct Watched {
    path: String,
    resource: Weak<Resource>,
    body: bytes::Bytes,
    /// Every generation stamp a live read of `path` served it under.
    stamps: BTreeSet<u64>,
    /// The step after which no retained epoch served it any more.
    unserved_since: Option<usize>,
}

/// Records what every page of `site` is served as right now: a resource
/// seen for the first time starts being watched, a known one gains the
/// stamp it is served under.
fn watch_live(store: &ShardedSiteStore, site: &Site, watched: &mut Vec<Watched>) {
    for slot in 0..PATHS {
        let path = path_of(slot);
        let live = site.get_shared(&path).expect("every page is live");
        let read = store.get(&path).expect("every page is served");
        match watched
            .iter_mut()
            .find(|w| w.resource.as_ptr() == Arc::as_ptr(live))
        {
            Some(w) => {
                w.stamps.insert(read.generation());
            }
            None => watched.push(Watched {
                path,
                resource: Arc::downgrade(live),
                body: read.body(),
                stamps: BTreeSet::from([read.generation()]),
                unserved_since: None,
            }),
        }
    }
}

proptest! {
    /// Retirement: a resource stays alive while any retained epoch serves
    /// it (and replays its original bytes), is freed within
    /// `2 × shard_count` publishes of its last epoch leaving the ring, and
    /// is freed at once when the store is dropped; the store's backlog of
    /// evicted, not yet freed shards never exceeds one site's worth.
    #[test]
    fn evicted_resources_are_freed_promptly_and_never_early(script in retirement_script()) {
        let store = ShardedSiteStore::with_retention(4, 3);
        let bound = 2 * store.shard_count();
        let mut site = Site::new();
        for slot in 0..PATHS {
            site.put_text(path_of(slot), format!("first {slot}"));
        }
        store.publish_incremental(&site);
        let mut watched = Vec::new();
        watch_live(&store, &site, &mut watched);
        let mut pins = VecDeque::new();
        for (step, &(kind, slot, pin)) in script.iter().enumerate() {
            if kind == 0 {
                for s in 0..PATHS {
                    site.put_text(path_of(s), format!("full {step} of {s}"));
                }
            } else {
                site.put_text(path_of(slot), format!("edit {step} of {slot}"));
            }
            store.publish_incremental(&site);
            match pin {
                0 => pins.push_back(store.pin(store.generation())),
                1 => drop(pins.pop_front()),
                _ => {}
            }
            prop_assert!(
                store.retired_shards() <= store.shard_count(),
                "step {}: {} retired shards", step, store.retired_shards()
            );
            watch_live(&store, &site, &mut watched);
            for w in &mut watched {
                // Liveness first: the reads below hold what they return.
                let alive = w.resource.strong_count() > 0;
                let mut served = false;
                for &stamp in &w.stamps {
                    if let Some(read) = store.get_at(&w.path, stamp) {
                        prop_assert!(alive, "{} @{} served after it was freed", &w.path, stamp);
                        prop_assert!(std::ptr::eq(read.resource(), w.resource.as_ptr()));
                        prop_assert_eq!(&read.body(), &w.body, "replay of {} @{}", &w.path, stamp);
                        served = true;
                    }
                }
                if served {
                    prop_assert!(w.unserved_since.is_none(), "{} came back", &w.path);
                    continue;
                }
                let since = *w.unserved_since.get_or_insert(step);
                prop_assert!(
                    !alive || step < since + bound,
                    "{} unserved since step {} is still alive at step {}", &w.path, since, step
                );
            }
        }
        drop(pins);
        drop(store);
        drop(site);
        for w in &watched {
            prop_assert_eq!(w.resource.strong_count(), 0, "{} outlived the store", &w.path);
        }
    }
}

mod publisher_end_to_end {
    use navsep_core::museum::{museum_navigation, paper_museum};
    use navsep_core::publish::{SitePublisher, SourceEdit};
    use navsep_core::separated::separated_sources;
    use navsep_core::spec::paper_spec;
    use navsep_core::{assert_site_equivalent, weave_separated};
    use navsep_hypermodel::AccessStructureKind;
    use navsep_web::ShardedSiteStore;
    use navsep_xml::Document;
    use std::sync::Arc;

    fn painting(slug: &str, title: &str) -> Document {
        Document::parse(&format!(
            r#"<painting id="{slug}"><title>{title}</title><year>1907</year></painting>"#
        ))
        .unwrap()
    }

    /// The same data-edit script, committed incrementally and woven from
    /// scratch: the served sites must be equivalent after every commit.
    #[test]
    fn incremental_commits_match_full_weaves_step_by_step() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let store = Arc::new(ShardedSiteStore::new(8));
        let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
        publisher.commit().unwrap();

        let script: &[&[SourceEdit]] = &[
            &[SourceEdit::put_document(
                "guitar.xml",
                painting("guitar", "Guitar, step 1"),
            )],
            &[
                SourceEdit::put_document("avignon.xml", painting("avignon", "Avignon, step 2")),
                SourceEdit::put_raw("museum.css", "/* step 2 */"),
                SourceEdit::put_raw("theme.css", "h1 { color: teal }"),
            ],
            &[
                SourceEdit::put_document("guitar.xml", painting("guitar", "Guitar, step 3")),
                SourceEdit::put_raw("notes.txt", "step 3"),
            ],
            &[SourceEdit::remove("notes.txt")],
        ];
        for (i, batch) in script.iter().enumerate() {
            for edit in *batch {
                publisher.stage(edit.clone());
            }
            let outcome = publisher.commit().unwrap();
            assert!(
                outcome.pages_rewoven <= batch.len(),
                "step {i}: O(K) reweave, got {outcome:?}"
            );
            let full = weave_separated(publisher.sources()).unwrap();
            let served = store.to_site();
            assert_site_equivalent(&full.site, &served).unwrap_or_else(|e| panic!("step {i}: {e}"));
            // Media types must agree between the paths too — a stylesheet
            // added by an incremental commit stays text/css on a later
            // full weave.
            for (path, res) in served.iter() {
                assert_eq!(
                    Some(res.media_type()),
                    full.site.get(path).map(|r| r.media_type()),
                    "step {i}: media type of {path}"
                );
            }
        }
        assert_eq!(store.generation(), script.len() as u64 + 1);
        use navsep_web::MediaType;
        assert_eq!(
            store.get("theme.css").unwrap().resource().media_type(),
            MediaType::Css
        );
    }
}
