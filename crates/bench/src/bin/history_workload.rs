//! History workload: N concurrent sessions random-walk the woven museum
//! while a live [`SitePublisher`] reweaves it, measuring traversal
//! throughput and how many history entries the reweaves left stale.
//!
//! This is the scenario the ROADMAP's navigation-history item asks for:
//! the serving side stamps every response with its generation, each
//! session's history records the generation per entry (Brewster–Jeffrey
//! model, `navsep_web::history`), and a commit landing mid-walk makes the
//! already-recorded entries classify stale — observable both offline
//! (`stale_entries`) and via the conditional-navigation HTTP check
//! (`revalidate`).
//!
//! Phases alternate deterministically: every session walks a chunk of
//! steps, all meet at a barrier, the publisher commits one reweave, and
//! the next chunk begins. With P publishes the final generation is P+1,
//! so every entry recorded before the last commit is stale by the end.
//!
//! Usage: `cargo run --release --bin history_workload [-- --smoke]
//! [-- --time-travel]`
//! (`--smoke`, or `HISTORY_WORKLOAD_SMOKE=1`, shrinks the step count for
//! CI; sessions and publishes stay at full scale so the acceptance
//! invariants hold in both modes).
//!
//! `--time-travel` runs the **snapshot-stability** workload instead:
//! sessions traverse back/forward while the publisher churns data edits
//! through the store's bounded retention ring, a checker replays a pinned
//! generation over HTTP on every round asserting its body stays
//! byte-identical, and every non-degraded `back()` must land on exactly
//! the generation the history entry recorded. Degradations past the
//! retention horizon are counted and must carry the explicit header — the
//! protocol forbids silent substitution.

use navsep_bench::{banner, print_table};
use navsep_core::museum::{museum_navigation, paper_museum};
use navsep_core::publish::{SitePublisher, SourceEdit};
use navsep_core::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_hypermodel::AccessStructureKind;
use navsep_web::{
    Freshness, Handler, HistoryClock, JointHistory, NavigationSession, Request, SessionHistory,
    ShardedSiteHandler, ShardedSiteStore, AT_GENERATION_HEADER, DEGRADED_HEADER,
};
use navsep_xml::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const SESSIONS: usize = 8;
const PUBLISHES: usize = 4;
const ENTRY_PAGE: &str = "picasso.html";

/// What one session hands back after the walk.
struct SessionReport {
    traversals: u64,
    revalidations_stale: u64,
    history: SessionHistory,
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("HISTORY_WORKLOAD_SMOKE").is_ok_and(|v| v == "1")
}

/// One random navigation action; returns `true` when a page was loaded.
fn act<H: navsep_web::Handler>(session: &mut NavigationSession<H>, rng: &mut StdRng) -> bool {
    match rng.gen_range(0u32..100) {
        // Mostly: follow a random link off the current page. Clone only
        // the chosen link — this loop is the measured hot path.
        0..=54 => {
            let link = match session.current_page() {
                Some(page) if !page.links.is_empty() => {
                    page.links[rng.gen_range(0usize..page.links.len())].clone()
                }
                _ => return session.visit(ENTRY_PAGE).is_ok(),
            };
            match session.follow_link(&link) {
                Ok(_) => true,
                // Dead ends (fragment self-links etc.) restart the tour.
                Err(_) => session.visit(ENTRY_PAGE).is_ok(),
            }
        }
        55..=69 => session.back().is_ok(),
        70..=79 => session.forward().is_ok(),
        // The model's traverse(δ), clamped at the bounds.
        80..=89 => {
            let delta = rng.gen_range(0i64..7) as isize - 3;
            matches!(session.traverse(delta), Ok(moved) if moved != 0)
        }
        // Occasionally run the conditional-navigation check.
        _ => {
            matches!(session.revalidate(), Ok(Freshness::Stale { .. }))
                && session.current_page().is_some()
        }
    }
}

/// A data-document edit that retitles Guernica — content that flows into
/// `guernica.html`, so the commit really changes a page (an incremental
/// publisher leaves untouched pages' generation stamps alone, and a
/// css-only reweave would leave every conditional check fresh).
fn guernica_edit(round: usize) -> SourceEdit {
    SourceEdit::put_document(
        "guernica.xml",
        Document::parse(&format!(
            r#"<painting id="guernica"><title>Guernica (rev {round})</title><year>1937</year></painting>"#
        ))
        .expect("edit is well-formed"),
    )
}

fn main() {
    let smoke = smoke_mode();
    if std::env::args().any(|a| a == "--time-travel") {
        time_travel(smoke);
        return;
    }
    let steps_per_phase: usize = if smoke { 40 } else { 300 };

    let sources = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .expect("museum authoring is valid");
    let store = Arc::new(ShardedSiteStore::new(16));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    publisher.commit().expect("initial weave");

    banner(&format!(
        "history_workload — {SESSIONS} sessions × {} phases × {steps_per_phase} steps, \
         {PUBLISHES} interleaved publishes{}",
        PUBLISHES + 1,
        if smoke { " (smoke)" } else { "" }
    ));

    let clock = HistoryClock::new();
    // Every session plus the publisher meet between chunk and commit.
    let chunk_done = Arc::new(Barrier::new(SESSIONS + 1));
    let commit_done = Arc::new(Barrier::new(SESSIONS + 1));
    let started = Instant::now();

    let reports: Vec<SessionReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let store = Arc::clone(&store);
                let clock = clock.clone();
                let chunk_done = Arc::clone(&chunk_done);
                let commit_done = Arc::clone(&commit_done);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ i as u64);
                    let mut session = NavigationSession::with_clock(
                        ShardedSiteHandler::new(Arc::clone(&store)),
                        clock,
                    );
                    session.visit(ENTRY_PAGE).expect("entry page exists");
                    let mut traversals = 1u64;
                    let mut revalidations_stale = 0u64;
                    for phase in 0..=PUBLISHES {
                        if phase > 0 {
                            // A reweave just landed: the conditional check
                            // on the pre-commit entry must catch it.
                            if let Ok(Freshness::Stale { .. }) = session.revalidate() {
                                revalidations_stale += 1;
                            }
                        }
                        for _ in 0..steps_per_phase {
                            if act(&mut session, &mut rng) {
                                traversals += 1;
                            }
                        }
                        chunk_done.wait();
                        commit_done.wait();
                    }
                    SessionReport {
                        traversals,
                        revalidations_stale,
                        history: session.history().clone(),
                    }
                })
            })
            .collect();

        // Publisher: one reweave between chunks (none after the last).
        // Each batch restyles the CSS *and* retitles one painting, so the
        // reweave genuinely changes a page (see `guernica_edit`).
        for publish in 0..=PUBLISHES {
            chunk_done.wait();
            if publish < PUBLISHES {
                publisher.stage(SourceEdit::put_raw(
                    "museum.css",
                    format!("/* reweave {publish} */"),
                ));
                publisher.stage(guernica_edit(publish));
                publisher.commit().expect("reweave cannot fail");
            }
            commit_done.wait();
        }

        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = started.elapsed();
    let final_generation = store.generation();
    assert_eq!(final_generation, PUBLISHES as u64 + 1);

    let mut rows = Vec::new();
    let mut total_traversals = 0u64;
    let mut total_stale = 0usize;
    let mut total_stale_revalidations = 0u64;
    for (i, report) in reports.iter().enumerate() {
        let stale = report.history.stale_entries(final_generation);
        total_traversals += report.traversals;
        total_stale += stale;
        total_stale_revalidations += report.revalidations_stale;
        rows.push(vec![
            format!("session {i}"),
            report.traversals.to_string(),
            report.history.len().to_string(),
            stale.to_string(),
            report.revalidations_stale.to_string(),
        ]);
    }
    print_table(
        &[
            "session",
            "traversals",
            "history entries",
            "stale entries",
            "stale revalidations",
        ],
        &rows,
    );

    let histories: Vec<&SessionHistory> = reports.iter().map(|r| &r.history).collect();
    let joint = JointHistory::of(&histories);
    let throughput = total_traversals as f64 / elapsed.as_secs_f64();
    println!();
    println!(
        "final generation    : {final_generation} ({PUBLISHES} publishes interleaved with walks)"
    );
    println!(
        "traversal throughput: {throughput:.0} traversals/s \
         ({total_traversals} traversals in {:.2?}, {SESSIONS} sessions)",
        elapsed
    );
    println!(
        "joint history       : {} entries across all sessions",
        joint.len()
    );
    println!(
        "stale detections    : {total_stale} stale history entries; \
         {total_stale_revalidations} caught live by conditional revalidation"
    );

    // The acceptance invariants this bin exists to demonstrate.
    const {
        assert!(SESSIONS >= 8, "must drive at least 8 concurrent sessions");
        assert!(PUBLISHES >= 3, "must interleave at least 3 publishes");
    }
    assert!(
        total_stale >= 1,
        "a reweave mid-walk must leave at least one stale history entry"
    );
    let mut last_seq = 0;
    for entry in joint.entries() {
        assert!(entry.entry.seq >= last_seq, "joint order sorted");
        last_seq = entry.entry.seq;
        let generation = entry.entry.generation.expect("sharded store stamps all");
        assert!(
            (1..=final_generation).contains(&generation),
            "entry names unpublished generation {generation}"
        );
    }
    println!("\nOK — history model, staleness policy, and joint ordering all held under load.");
}

/// The time-travel workload: sessions traverse while publishes churn the
/// retention ring, asserting snapshot stability end to end.
fn time_travel(smoke: bool) {
    const TT_SESSIONS: usize = 6;
    const RETENTION: usize = 6;
    let publishes: usize = if smoke { 10 } else { 24 };
    let steps: usize = if smoke { 120 } else { 600 };

    let sources = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .expect("museum authoring is valid");
    // Retention smaller than the churn, so eviction and explicit
    // degradation really happen.
    let store = Arc::new(ShardedSiteStore::with_retention(16, RETENTION));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    publisher.commit().expect("initial weave");
    assert!(publishes > RETENTION, "churn must outrun the ring");

    banner(&format!(
        "history_workload --time-travel — {TT_SESSIONS} sessions × {steps} steps, \
         {publishes} publishes through a {RETENTION}-epoch ring{}",
        if smoke { " (smoke)" } else { "" }
    ));

    // The body generation 1 served for the page the churn keeps editing,
    // pinned so eviction routes around it.
    let baseline = store.get("guernica.html").expect("woven page").body();
    let _pin = store.pin(1);

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let (snapshot_checks, session_rows) = std::thread::scope(|scope| {
        // Publisher: churn data edits as fast as the weaver allows.
        {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for round in 0..publishes {
                    publisher.stage(guernica_edit(round));
                    publisher.commit().expect("data reweave cannot fail");
                }
                stop.store(true, Ordering::Release);
            });
        }
        // Checker: replay the pinned generation over HTTP on every round;
        // the body must never drift while the publisher churns.
        let checker = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let baseline = baseline.clone();
            scope.spawn(move || {
                let handler = ShardedSiteHandler::new(Arc::clone(&store));
                let mut checks = 0u64;
                // Check-then-test-stop (not the reverse): the publisher can
                // finish its whole churn before this thread is scheduled, and
                // the replay invariant must still be observed at least once
                // against the fully churned store.
                loop {
                    let response = handler
                        .handle(&Request::get("guernica.html").header(AT_GENERATION_HEADER, "1"));
                    assert!(response.status().is_success());
                    assert_eq!(
                        response.header_value(DEGRADED_HEADER),
                        None,
                        "the pinned generation must never degrade"
                    );
                    assert_eq!(
                        response.body(),
                        &baseline,
                        "generation 1's body drifted under churn"
                    );
                    checks += 1;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                checks
            })
        };
        // Sessions: walk the site, then exercise back()/forward() hard.
        // Every non-degraded traversal must land on exactly the
        // generation its history entry recorded; every degradation must
        // be flagged.
        let sessions: Vec<_> = (0..TT_SESSIONS)
            .map(|i| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xDECADE ^ i as u64);
                    let mut session =
                        NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
                    session.visit(ENTRY_PAGE).expect("entry page exists");
                    let mut snapshot_backs = 0u64;
                    let mut degraded_backs = 0u64;
                    for _ in 0..steps {
                        if rng.gen_range(0u32..100) < 55 {
                            // Wander: follow a random link (restart on dead
                            // ends) to grow history across generations.
                            let link = match session.current_page() {
                                Some(page) if !page.links.is_empty() => {
                                    page.links[rng.gen_range(0usize..page.links.len())].clone()
                                }
                                _ => {
                                    session.visit(ENTRY_PAGE).ok();
                                    continue;
                                }
                            };
                            if session.follow_link(&link).is_err() {
                                session.visit(ENTRY_PAGE).ok();
                            }
                            continue;
                        }
                        // Traverse: the snapshot assertion proper.
                        let backwards = rng.gen_range(0u32..10) < 6;
                        let history = session.history();
                        let position = history.position().unwrap_or(0);
                        let entries = history.entries();
                        let target = if backwards {
                            position.checked_sub(1).and_then(|p| entries.get(p))
                        } else {
                            entries.get(position + 1)
                        };
                        let Some(recorded) = target.and_then(|e| e.generation) else {
                            continue;
                        };
                        let step = if backwards {
                            session.back()
                        } else {
                            session.forward()
                        };
                        match step {
                            Ok(page) if page.degraded => {
                                degraded_backs += 1;
                                // Degradation is explicit and the entry is
                                // refreshed to what was really served.
                                assert_eq!(
                                    session.current_entry().and_then(|e| e.generation),
                                    session.current_generation(),
                                );
                            }
                            Ok(_) => {
                                snapshot_backs += 1;
                                assert_eq!(
                                    session.current_generation(),
                                    Some(recorded),
                                    "a non-degraded traversal must serve the recorded generation"
                                );
                            }
                            Err(_) => {}
                        }
                    }
                    (session.history().len(), snapshot_backs, degraded_backs)
                })
            })
            .collect();
        (
            checker.join().expect("checker thread"),
            sessions
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect::<Vec<_>>(),
        )
    });

    let elapsed = started.elapsed();
    let mut rows = Vec::new();
    let mut total_snapshot = 0u64;
    let mut total_degraded = 0u64;
    for (i, (entries, snapshot_backs, degraded_backs)) in session_rows.iter().enumerate() {
        total_snapshot += snapshot_backs;
        total_degraded += degraded_backs;
        rows.push(vec![
            format!("session {i}"),
            entries.to_string(),
            snapshot_backs.to_string(),
            degraded_backs.to_string(),
        ]);
    }
    print_table(
        &[
            "session",
            "history entries",
            "snapshot traversals",
            "degraded traversals",
        ],
        &rows,
    );
    println!();
    println!(
        "final generation    : {} ({publishes} publishes, ring of {RETENTION})",
        store.generation()
    );
    println!("retained            : {:?}", store.retained_generations());
    println!(
        "snapshot checks     : {snapshot_checks} byte-identical replays of pinned generation 1 \
         in {elapsed:.2?}"
    );
    println!(
        "traversals          : {total_snapshot} snapshot-backed, {total_degraded} degraded \
         (explicitly flagged)"
    );

    // The acceptance invariants of time-travel mode.
    assert_eq!(store.generation(), publishes as u64 + 1);
    assert!(snapshot_checks > 0, "the checker must observe the churn");
    assert!(
        total_snapshot > 0,
        "sessions must complete snapshot-backed traversals"
    );
    assert!(
        store.retained_generations().contains(&1),
        "the pinned epoch must survive {publishes} publishes through a {RETENTION}-ring"
    );
    assert_eq!(
        store.get_at("guernica.html", 1).expect("pinned").body(),
        baseline,
        "generation 1 still serves its original bytes after the churn"
    );
    println!("\nOK — snapshots stayed byte-stable under churn; degradations were explicit.");
}
