//! Targeted fault-injection tests: each named failure mode of the weave
//! pipeline and the publisher, driven deterministically through
//! [`navsep_core::fault`].
//!
//! The chaos battery (`tests/chaos.rs`) sweeps random plans over random
//! sites; this suite pins down the individual contracts it relies on —
//! panic isolation with first-error ordering in page-path order at every
//! worker count, transactional store publishes, and the retry policy's
//! transient/permanent split.

use navsep_core::fault::{sites, FaultKind, FaultPlan, FaultRule};
use navsep_core::museum::{museum_navigation, paper_museum};
use navsep_core::pipeline::{weave_separated, Weave, WovenOutput};
use navsep_core::publish::{RetryPolicy, SitePublisher, SourceEdit};
use navsep_core::separated::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_core::CoreError;
use navsep_hypermodel::AccessStructureKind;
use navsep_web::{ShardedSiteStore, Site};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

/// Weaves `sources` on `workers` threads with `faults` armed.
fn faulted(
    sources: &Site,
    workers: usize,
    faults: Option<&FaultPlan>,
) -> Result<WovenOutput, CoreError> {
    Weave {
        workers: NonZeroUsize::new(workers).unwrap(),
        faults,
        ..Weave::default()
    }
    .run(sources)
}

/// Keeps injected panics out of the test log. The pipeline's
/// `catch_unwind` absorbs them, but the default panic hook would still
/// print a backtrace per injected panic; chain a hook that stays silent
/// for payloads the fault subsystem produced and defers to the previous
/// hook for everything else (a *real* panic must stay loud).
fn quiet_injected_panics() {
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
            if !message.contains("injected fault") {
                previous(info);
            }
        }));
    });
}

fn paper_sources() -> Site {
    separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::Index),
    )
    .unwrap()
}

fn assert_sites_byte_identical(reference: &Site, got: &Site, what: &str) {
    assert_eq!(reference.len(), got.len(), "{what}: site size differs");
    for (path, res) in reference.iter() {
        let other = got
            .get(path)
            .unwrap_or_else(|| panic!("{what}: missing {path}"));
        assert_eq!(
            res.to_bytes(),
            other.to_bytes(),
            "{what}: bytes differ at {path}"
        );
    }
}

#[test]
fn disarmed_faulted_paths_are_byte_identical_to_plain_ones() {
    let sources = paper_sources();
    let reference = weave_separated(&sources).unwrap();
    let idle = FaultPlan::new(1);
    for workers in [1, 2, 8] {
        for plan in [None, Some(&idle)] {
            let woven = faulted(&sources, workers, plan).unwrap();
            assert_sites_byte_identical(
                &reference.site,
                &woven.site,
                &format!("{workers} workers, armed: {}", plan.is_some()),
            );
        }
    }
}

#[test]
fn injected_panic_surfaces_as_worker_panic_for_that_page() {
    quiet_injected_panics();
    let sources = paper_sources();
    let plan = FaultPlan::new(7)
        .rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic).matching("guitar"));
    for workers in [1, 2, 8] {
        let err = faulted(&sources, workers, Some(&plan)).unwrap_err();
        match err {
            CoreError::WorkerPanic { path, message } => {
                assert_eq!(path, "guitar.html", "workers={workers}");
                assert!(message.contains("injected fault"), "workers={workers}");
            }
            other => panic!("expected WorkerPanic, got {other} (workers={workers})"),
        }
    }
}

#[test]
fn first_error_matches_sequential_stop_page_when_every_page_fails() {
    quiet_injected_panics();
    let sources = paper_sources();
    // With every page panicking, the error must be the first page's in
    // page order, whatever the worker count or finish order.
    let first_page = weave_separated(&sources).unwrap().reports[0].page.clone();
    let plan = FaultPlan::new(11).rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic));
    for workers in [1, 2, 8] {
        let err = faulted(&sources, workers, Some(&plan)).unwrap_err();
        match err {
            CoreError::WorkerPanic { path, .. } => {
                assert_eq!(path, first_page, "workers={workers}")
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }
}

#[test]
fn injected_error_surfaces_as_fault_error() {
    let sources = paper_sources();
    for workers in [1, 2, 8] {
        let plan = FaultPlan::new(3).rule(
            FaultRule::at(sites::WEAVE_PAGE, FaultKind::Error("disk on fire".into()))
                .matching("guitar"),
        );
        let err = faulted(&sources, workers, Some(&plan)).unwrap_err();
        match err {
            CoreError::Fault(f) => {
                assert!(f.to_string().contains("disk on fire"));
                assert!(f.to_string().contains("guitar"));
            }
            other => panic!("expected Fault, got {other} (workers={workers})"),
        }
        assert!(plan.fired() >= 1);
    }
}

#[test]
fn one_worker_weave_consults_the_weave_page_site() {
    // `weave.page` is consulted by every weave, the sequential one too: an
    // unconditional error rule fails a 1-worker run at the first page in
    // path order, and no later page is ever consulted.
    let sources = paper_sources();
    let first_page = weave_separated(&sources).unwrap().reports[0].page.clone();
    let plan = FaultPlan::new(19).rule(FaultRule::at(
        sites::WEAVE_PAGE,
        FaultKind::Error("bad sector".into()),
    ));
    match faulted(&sources, 1, Some(&plan)).unwrap_err() {
        CoreError::Fault(f) => {
            assert_eq!(f.site, sites::WEAVE_PAGE);
            assert_eq!(f.key, first_page);
        }
        other => panic!("expected Fault, got {other}"),
    }
    assert_eq!(plan.fired(), 1, "the weave stops at its first failing page");
}

fn publisher_over(store: &Arc<ShardedSiteStore>) -> SitePublisher {
    SitePublisher::new(paper_sources(), Arc::clone(store))
}

#[test]
fn transient_store_fault_is_retried_and_commit_succeeds() {
    let store = Arc::new(ShardedSiteStore::new(8));
    // Two injected commit failures, budget-limited: attempts 1 and 2 fail,
    // attempt 3 lands. Default policy allows exactly that.
    store.arm_faults(Arc::new(
        FaultPlan::new(23).rule(
            FaultRule::at(
                sites::STORE_PUBLISH,
                FaultKind::Error("leader flapped".into()),
            )
            .times(2),
        ),
    ));
    let mut publisher = publisher_over(&store);
    let outcome = publisher.commit().unwrap();
    assert_eq!(outcome.retries, 2);
    assert_eq!(outcome.generation, 1);
    assert_eq!(store.generation(), 1, "exactly one epoch despite retries");
}

#[test]
fn exhausted_retry_budget_surfaces_the_fault_and_publishes_nothing() {
    let store = Arc::new(ShardedSiteStore::new(8));
    store.arm_faults(Arc::new(FaultPlan::new(29).rule(FaultRule::at(
        sites::STORE_PUBLISH,
        FaultKind::Error("partition".into()),
    ))));
    let mut publisher = publisher_over(&store);
    publisher.stage(SourceEdit::put_raw("museum.css", "/* staged */"));
    let err = publisher.commit().unwrap_err();
    assert!(matches!(err, CoreError::Fault(_)), "got {err}");
    assert_eq!(store.generation(), 0, "failed commit published nothing");
    assert_eq!(publisher.staged_len(), 1, "batch stays staged for retry");
    // Heal the store: the SAME staged batch commits cleanly.
    store.disarm_faults();
    let outcome = publisher.commit().unwrap();
    assert_eq!(outcome.generation, 1);
    assert_eq!(outcome.edits_applied, 1);
}

#[test]
fn publisher_weave_panic_fault_is_retried() {
    quiet_injected_panics();
    let store = Arc::new(ShardedSiteStore::new(8));
    let plan = Arc::new(
        FaultPlan::new(31).rule(
            FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic)
                .matching("publisher.commit")
                .times(1),
        ),
    );
    let mut publisher = publisher_over(&store).with_faults(plan);
    let outcome = publisher.commit().unwrap();
    assert_eq!(outcome.retries, 1, "one panic absorbed, second try landed");
    assert_eq!(store.generation(), 1);
}

#[test]
fn failed_linkbase_swap_restores_sources_and_staged_linkbase() {
    use navsep_core::layout::LINKBASE_PATH;

    let store = Arc::new(ShardedSiteStore::new(8));
    let mut publisher = publisher_over(&store).with_retry_policy(RetryPolicy::none());
    publisher.commit().unwrap();
    let igt = separated_sources(
        &paper_museum(),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .unwrap();
    let igt_links = igt.get(LINKBASE_PATH).unwrap().document().unwrap().clone();
    let before: Vec<_> = publisher
        .sources()
        .iter_shared()
        .map(|(path, res)| (path.to_string(), Arc::clone(res)))
        .collect();
    publisher.stage(SourceEdit::put_document(LINKBASE_PATH, igt_links.clone()));
    store.arm_faults(Arc::new(FaultPlan::new(41).rule(
        FaultRule::at(sites::STORE_PUBLISH, FaultKind::Error("swap lost".into())).times(1),
    )));
    let err = publisher.commit().unwrap_err();
    assert!(matches!(err, CoreError::Fault(_)), "got {err}");
    assert_eq!(store.generation(), 1, "nothing published");
    // The sources are exactly what they were, resource for resource.
    let after = publisher.sources();
    assert_eq!(after.len(), before.len());
    for (path, res) in &before {
        assert!(Arc::ptr_eq(res, after.get_shared(path).unwrap()), "{path}");
    }
    // The staged linkbase is back in its edit, unchanged.
    match publisher.staged() {
        [SourceEdit::PutDocument { path, doc }] => {
            assert_eq!(path, LINKBASE_PATH);
            assert_eq!(doc.to_xml_string(), igt_links.to_xml_string());
        }
        other => panic!("expected the staged linkbase, got {other:?}"),
    }
    // The fault budget is spent: the swap plus a data edit now land, and
    // the served site is the from-scratch weave of the sources.
    publisher.stage(SourceEdit::put_document(
        "guitar.xml",
        navsep_xml::Document::parse(
            r#"<painting id="guitar"><title>Guitar, after the failed swap</title><year>1913</year></painting>"#,
        )
        .unwrap(),
    ));
    let outcome = publisher.commit().unwrap();
    assert_eq!((outcome.generation, outcome.edits_applied), (2, 2));
    let full = weave_separated(publisher.sources()).unwrap();
    assert_sites_byte_identical(&full.site, &store.to_site(), "after the failed swap");
    assert!(store
        .get("guitar.html")
        .unwrap()
        .body()
        .windows(b"rel=\"next\"".len())
        .any(|w| w == b"rel=\"next\""));
}

#[test]
fn retry_policy_none_fails_on_first_transient_fault() {
    let store = Arc::new(ShardedSiteStore::new(8));
    store.arm_faults(Arc::new(FaultPlan::new(37).rule(
        FaultRule::at(sites::STORE_PUBLISH, FaultKind::Error("blip".into())).times(1),
    )));
    let mut publisher = publisher_over(&store).with_retry_policy(RetryPolicy::none());
    assert!(publisher.commit().is_err(), "no retries: first blip fatal");
    // The single-shot budget is spent, so a manual retry succeeds.
    assert_eq!(publisher.commit().unwrap().generation, 1);
}

#[test]
fn organic_errors_are_never_retried() {
    // A dangling-locator audit failure is deterministic: retrying it would
    // just burn the backoff budget. `retries` must be 0 on the error path —
    // observable as the commit failing immediately even with a huge budget.
    let store = Arc::new(ShardedSiteStore::new(8));
    let mut publisher = publisher_over(&store).with_retry_policy(RetryPolicy {
        max_attempts: 100,
        base_delay: Duration::from_secs(60),
        max_delay: Duration::from_secs(60),
    });
    publisher.stage(SourceEdit::remove("picasso.xml"));
    let start = std::time::Instant::now();
    let err = publisher.commit_audited(&["index.html"]).unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "organic failure must not sleep through retry backoff"
    );
    assert!(
        matches!(err, CoreError::SourceLint(_) | CoreError::Audit(_)),
        "got {err}"
    );
}

#[test]
fn slow_faults_delay_but_do_not_fail() {
    let sources = paper_sources();
    let plan = FaultPlan::new(43).rule(
        FaultRule::at(sites::WEAVE_PAGE, FaultKind::Slow(Duration::from_millis(5)))
            .matching("guitar"),
    );
    let reference = weave_separated(&sources).unwrap();
    for workers in [1, 2, 8] {
        let woven = faulted(&sources, workers, Some(&plan)).unwrap();
        assert_sites_byte_identical(
            &reference.site,
            &woven.site,
            &format!("slow fault/{workers}"),
        );
    }
    assert_eq!(plan.fired(), 3, "the slow site fired once per run");
}
