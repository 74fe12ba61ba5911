//! Concurrency suite for [`ShardedSiteStore`]: reader threads hammer `GET`
//! while a writer republishes rewoven sites, asserting that no response is
//! ever torn across generations.
//!
//! Every resource body in generation `g` embeds the marker `gen=<g>`, so a
//! torn read (content from one epoch served with another epoch's stamp, or
//! a body mixing epochs) is directly observable.

use navsep_web::{Handler, Request, ShardedSiteHandler, ShardedSiteStore, Site, GENERATION_HEADER};
use navsep_xml::Document;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PAGES: usize = 24;

/// A site whose every resource body names the generation that wrote it.
fn stamped_site(generation: u64) -> Site {
    let mut site = Site::new();
    for i in 0..PAGES {
        site.put_document(
            format!("page-{i}.xml"),
            Document::parse(&format!("<page n=\"{i}\">gen={generation}</page>")).unwrap(),
        );
    }
    site.put_css("style.css", format!("/* gen={generation} */"));
    site
}

/// Extracts the single `gen=<n>` marker from a body, failing if the body
/// carries zero or several distinct markers (a torn read).
fn body_generation(body: &str) -> u64 {
    let markers: Vec<u64> = body
        .match_indices("gen=")
        .map(|(at, _)| {
            let digits: String = body[at + 4..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("gen marker is numeric")
        })
        .collect();
    assert_eq!(markers.len(), 1, "body mixes generations: {body}");
    markers[0]
}

#[test]
fn readers_never_observe_torn_generations() {
    let store = Arc::new(ShardedSiteStore::new(8));
    store.publish_incremental(&stamped_site(1));
    let handler = Arc::new(ShardedSiteHandler::new(Arc::clone(&store)));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Writer: republish a freshly stamped site as fast as possible.
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for _ in 0..200 {
                    let next = store.generation() + 1;
                    store.publish_incremental(&stamped_site(next));
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Readers: every response must be internally consistent — the body's
        // embedded generation equals the response's generation header — and
        // generations must be monotone per (reader, path), since a path
        // always lives in the same shard.
        let mut readers = Vec::new();
        for r in 0..4 {
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut seen: Vec<u64> = vec![0; PAGES];
                let mut responses = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for i in 0..PAGES {
                        let path = format!("page-{}.xml", (i + r) % PAGES);
                        let response = handler.handle(&Request::get(&path));
                        assert!(response.status().is_success(), "{path} missing");
                        let stamped: u64 = response
                            .header_value(GENERATION_HEADER)
                            .expect("store responses carry a generation")
                            .parse()
                            .unwrap();
                        let embedded = body_generation(&response.body_text());
                        assert_eq!(
                            stamped, embedded,
                            "torn read: header gen {stamped}, body gen {embedded}"
                        );
                        let slot = (i + r) % PAGES;
                        assert!(
                            embedded >= seen[slot],
                            "generation went backwards on {path}: {} then {embedded}",
                            seen[slot]
                        );
                        seen[slot] = embedded;
                        responses += 1;
                    }
                }
                responses
            }));
        }
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers made no progress");
    });

    assert_eq!(store.generation(), 201);
}

#[test]
fn direct_store_reads_are_single_generation() {
    // Same invariant through the raw store API (no handler): the
    // ResourceRead's generation always matches the resource it carries.
    let store = Arc::new(ShardedSiteStore::new(4));
    store.publish_incremental(&stamped_site(1));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for _ in 0..100 {
                    let next = store.generation() + 1;
                    store.publish_incremental(&stamped_site(next));
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..3 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for i in 0..PAGES {
                        // generation() only reports fully-swapped epochs, so
                        // a read taken after it can never be older.
                        let floor = store.generation();
                        let read = store.get(&format!("page-{i}.xml")).expect("present");
                        assert!(
                            read.generation() >= floor,
                            "read gen {} behind published gen {floor}",
                            read.generation()
                        );
                        let body =
                            String::from_utf8_lossy(&read.resource().to_bytes()).into_owned();
                        assert_eq!(read.generation(), body_generation(&body));
                    }
                }
            });
        }
    });
    assert_eq!(store.generation(), 101);
}

#[test]
fn sessions_never_record_torn_history_entries_across_live_commits() {
    // Sessions navigate the woven museum while a live `SitePublisher`
    // commits reweaves underneath them. A *torn* history entry would be one
    // stamped with a generation the store never actually published; the
    // publisher records every generation `commit` returns, and at the end
    // every entry of every session must name one of them — and per-session
    // entries must still be in creation order.
    use navsep_core::museum::{museum_navigation, paper_museum};
    use navsep_core::publish::{SitePublisher, SourceEdit};
    use navsep_core::separated::separated_sources;
    use navsep_core::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;
    use navsep_web::{HistoryClock, HistoryEntry, NavigationSession};
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    const COMMITS: u64 = 20;

    let sources = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .unwrap();
    let store = Arc::new(ShardedSiteStore::new(8));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    let published = Arc::new(Mutex::new(BTreeSet::new()));
    published
        .lock()
        .unwrap()
        .insert(publisher.commit().unwrap().generation);

    let stop = Arc::new(AtomicBool::new(false));
    // On a starved box the writer can burn through every commit before a
    // single session finishes a tour; make it wait for one tour per
    // session so the run always overlaps reads with reweaves.
    let toured = Arc::new(AtomicUsize::new(0));
    let recorded: Vec<Vec<HistoryEntry>> = std::thread::scope(|scope| {
        // Writer: reweave with a fresh stylesheet per commit, recording
        // every generation the store actually published.
        {
            let published = Arc::clone(&published);
            let stop = Arc::clone(&stop);
            let toured = Arc::clone(&toured);
            scope.spawn(move || {
                while toured.load(Ordering::Acquire) < 4 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                for i in 0..COMMITS {
                    publisher.stage(SourceEdit::put_raw(
                        "museum.css",
                        format!("/* reweave {i} */"),
                    ));
                    let outcome = publisher.commit().expect("css reweave cannot fail");
                    published.lock().unwrap().insert(outcome.generation);
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Sessions: tour the site — index, into the tour, along `next`,
        // back out — until the writer is done, then hand back their
        // recorded histories.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let toured = Arc::clone(&toured);
                scope.spawn(move || {
                    let mut entries = Vec::new();
                    // One clock across this thread's successive tours, so
                    // harvested entries share a single creation order.
                    let clock = HistoryClock::new();
                    let mut first_tour = true;
                    while first_tour || !stop.load(Ordering::Acquire) {
                        let mut session = NavigationSession::with_clock(
                            ShardedSiteHandler::new(Arc::clone(&store)),
                            clock.clone(),
                        );
                        session.visit("picasso.html").expect("index page");
                        session.follow("Guitar").expect("tour entry");
                        while session.follow_rel("next").is_ok() {}
                        while session.back().is_ok() {}
                        entries.extend(session.history().entries().into_iter().cloned());
                        if first_tour {
                            first_tour = false;
                            toured.fetch_add(1, Ordering::Release);
                        }
                    }
                    entries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let published = published.lock().unwrap();
    assert_eq!(store.generation(), COMMITS + 1);
    assert_eq!(published.len() as u64, COMMITS + 1);
    let mut checked = 0usize;
    for session_entries in &recorded {
        for entry in session_entries {
            let generation = entry
                .generation
                .expect("sharded store stamps every response");
            assert!(
                published.contains(&generation),
                "torn entry: generation {generation} was never published"
            );
            checked += 1;
        }
        // Entries harvested per session tour stay in creation order.
        for pair in session_entries.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "session order violated");
        }
    }
    assert!(checked > 0, "sessions recorded no history");
    // Everything recorded during the run predates one final reweave, so
    // the whole recorded history classifies stale against it.
    let final_generation = store.generation();
    let stale = recorded
        .iter()
        .flatten()
        .filter(|e| e.generation.unwrap() < final_generation)
        .count();
    assert!(stale > 0, "a {COMMITS}-commit run must leave stale entries");
}

#[test]
fn pinned_session_never_observes_a_newer_body_through_back() {
    // The snapshot guarantee under churn: a session whose history is
    // pinned to generation 1 keeps getting generation 1's exact bytes
    // from back(), no matter how many newer generations the publisher
    // swaps in (more than the ring would retain unpinned).
    use navsep_core::museum::{museum_navigation, paper_museum};
    use navsep_core::publish::{SitePublisher, SourceEdit};
    use navsep_core::separated::separated_sources;
    use navsep_core::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;
    use navsep_web::NavigationSession;
    use navsep_xml::Document;

    const COMMITS: u64 = 20;
    const RETENTION: usize = 4;

    let sources = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .unwrap();
    let store = Arc::new(ShardedSiteStore::with_retention(8, RETENTION));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    publisher.commit().unwrap();
    let _pin = store.pin(1);
    // What generation 1 served for the page the churn keeps rewriting.
    let baseline = store.get("guitar.html").unwrap().body();
    let stop = Arc::new(AtomicBool::new(false));

    // Capture every session's history at generation 1 BEFORE the churn
    // starts, so each one is genuinely pinned to the old epoch.
    let sessions: Vec<NavigationSession<ShardedSiteHandler>> = (0..3)
        .map(|_| {
            let mut session = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
            session.visit("picasso.html").expect("index page");
            session.follow("Guitar").expect("tour entry");
            assert_eq!(session.current_generation(), Some(1));
            session
        })
        .collect();

    // As in the torn-history test above: the churn must not finish before
    // every session has replayed the pinned entry at least once.
    let replayed = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        // Writer: rewrite guitar's data document on every commit, so its
        // page genuinely changes generation after generation.
        {
            let stop = Arc::clone(&stop);
            let replayed = Arc::clone(&replayed);
            scope.spawn(move || {
                while replayed.load(Ordering::Acquire) < 3 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                for i in 0..COMMITS {
                    publisher.stage(SourceEdit::put_document(
                        "guitar.xml",
                        Document::parse(&format!(
                            r#"<painting id="guitar"><title>Guitar rev {i}</title><year>1913</year></painting>"#
                        ))
                        .unwrap(),
                    ));
                    publisher.commit().expect("data reweave cannot fail");
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Sessions: already parked on guitar.html at generation 1; bounce
        // back()/forward() against the churn. Every traversal onto the
        // pinned entry must reproduce the original bytes.
        for mut session in sessions {
            let stop = Arc::clone(&stop);
            let baseline = baseline.clone();
            let replayed = Arc::clone(&replayed);
            scope.spawn(move || {
                let mut replays = 0u64;
                while replays == 0 || !stop.load(Ordering::Acquire) {
                    session.back().expect("history has the index");
                    let (degraded, body) = {
                        let page = session.forward().expect("forward to guitar");
                        (page.degraded, page.doc.to_xml_string())
                    };
                    assert!(!degraded, "the pinned generation must not degrade");
                    assert_eq!(
                        session.current_generation(),
                        Some(1),
                        "back/forward pinned to generation 1 must stay there"
                    );
                    assert_eq!(
                        bytes::Bytes::from(body),
                        baseline,
                        "a newer body leaked through a generation-1 traversal"
                    );
                    replays += 1;
                    if replays == 1 {
                        replayed.fetch_add(1, Ordering::Release);
                    }
                }
                assert!(replays > 0, "sessions made no progress");
            });
        }
    });

    assert_eq!(store.generation(), COMMITS + 1);
    // The pin held against eviction pressure…
    assert!(store.retained_generations().contains(&1));
    // …and an unpinned middle generation did get evicted.
    assert!(store.retained_generations().len() <= RETENTION);
    assert!(store.get_at("guitar.html", 2).is_none());
}

#[test]
fn len_and_paths_stay_coherent_under_publish_churn() {
    // The documented contract of len()/paths(): they read ONE retained
    // epoch, so while a publisher alternates sites of different sizes,
    // readers must only ever see one of the two exact sizes — never a
    // torn sum across shards.
    let small: usize = PAGES + 1; // stamped_site: PAGES pages + css
    let large: usize = small + 7;
    let big_site = |generation: u64| {
        let mut site = stamped_site(generation);
        for i in 0..7 {
            site.put_text(format!("extra-{i}.txt"), format!("gen={generation}"));
        }
        site
    };
    let store = Arc::new(ShardedSiteStore::new(8));
    store.publish_incremental(&stamped_site(1));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for round in 0..100u64 {
                    let generation = store.generation() + 1;
                    if round % 2 == 0 {
                        store.publish_incremental(&big_site(generation));
                    } else {
                        store.publish_incremental(&stamped_site(generation));
                    }
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..3 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let len = store.len();
                    assert!(
                        len == small || len == large,
                        "torn len(): {len} is neither {small} nor {large}"
                    );
                    let paths = store.paths();
                    assert!(
                        paths.len() == small || paths.len() == large,
                        "torn paths(): {} entries",
                        paths.len()
                    );
                }
            });
        }
    });
    assert_eq!(store.generation(), 101);
}

#[test]
fn racing_readers_never_observe_partially_woven_streamed_bodies() {
    // Publish must stay atomic: readers racing a publisher's reweaves may
    // only ever see complete, fully-woven bodies — well-formed XML with the
    // navigation advice already applied — never a truncated body or a base
    // page the weave hasn't reached yet.
    use navsep_core::museum::{museum_navigation, paper_museum};
    use navsep_core::publish::{SitePublisher, SourceEdit};
    use navsep_core::separated::separated_sources;
    use navsep_core::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    const COMMITS: u64 = 30;

    let sources = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .unwrap();
    let store = Arc::new(ShardedSiteStore::new(8));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    publisher.commit().unwrap();
    let handler = Arc::new(ShardedSiteHandler::new(Arc::clone(&store)));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for i in 0..COMMITS {
                    publisher.stage(SourceEdit::put_document(
                        "guitar.xml",
                        Document::parse(&format!(
                            r#"<painting id="guitar"><title>Guitar rev {i}</title><year>1913</year></painting>"#
                        ))
                        .unwrap(),
                    ));
                    publisher.commit().expect("reweave cannot fail");
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..3 {
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut responses = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for path in ["guitar.html", "guernica.html", "picasso.html"] {
                        let response = handler.handle(&Request::get(path));
                        assert!(response.status().is_success(), "{path} missing");
                        let body = response.body_text();
                        // Complete XML — a torn buffer cannot parse.
                        let doc = Document::parse(&body)
                            .unwrap_or_else(|e| panic!("torn body at {path}: {e}\n{body}"));
                        assert!(doc.root_element().is_some());
                        // And fully woven — the navigation advice is there.
                        assert!(
                            body.contains("rel=\"next\"") || body.contains("class=\"index\""),
                            "unwoven body served at {path}: {body}"
                        );
                        responses += 1;
                    }
                }
                responses
            });
        }
    });
    assert_eq!(store.generation(), COMMITS + 1);
}

#[test]
fn concurrent_publishers_stay_monotone() {
    // Several writers race; generations handed out must be unique and the
    // final state must be one coherent epoch per shard.
    let store = Arc::new(ShardedSiteStore::new(8));
    let mut all: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    (0..25)
                        .map(|_| {
                            let next = store.generation() + 1;
                            store.publish_incremental(&stamped_site(next)).generation
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 100, "generations must be unique");
    assert_eq!(store.generation(), 100);
    // After the dust settles every read reports the same single generation.
    let final_gen: Vec<u64> = (0..PAGES)
        .map(|i| store.get(&format!("page-{i}.xml")).unwrap().generation())
        .collect();
    assert!(
        final_gen.iter().all(|&g| g == final_gen[0]),
        "{final_gen:?}"
    );
}
