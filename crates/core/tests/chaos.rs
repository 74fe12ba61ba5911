//! Chaos battery: random sites × random [`FaultPlan`]s, at 1/2/8 workers.
//!
//! Three layers, three invariant sets, all driven by the deterministic
//! fault subsystem (the vendored proptest derives its seed from the test
//! name, so every CI run replays the same storms):
//!
//! * **Weave pipeline** — under any plan, the weave at 1/2/8 workers
//!   either produces output byte-identical to the unfaulted reference or
//!   fails with a typed, attributable error ([`CoreError::WorkerPanic`] /
//!   [`CoreError::Fault`]). Never a torn site, never a hang.
//! * **Publisher + store** — commits under injected publish failures are
//!   transactional: the generation advances by exactly one per successful
//!   commit and not at all per failed one, and a healed publisher always
//!   recovers with the batch intact.
//! * **Server pool** — every request is answered: a correct body with a
//!   live generation header, or an explicit 5xx (with
//!   `x-navsep-retry-after` on 503s). The pool survives any number of
//!   injected handler panics by respawning workers.

use navsep_core::fault::{sites, FaultInjectingHandler, FaultKind, FaultPlan, FaultRule};
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::pipeline::{weave_separated, Weave};
use navsep_core::publish::{SitePublisher, SourceEdit};
use navsep_core::separated::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_core::CoreError;
use navsep_hypermodel::AccessStructureKind;
use navsep_web::store::GENERATION_HEADER;
use navsep_web::{
    Request, ServerPool, ShardedSiteHandler, ShardedSiteStore, Site, RETRY_AFTER_HEADER,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

/// See `tests/fault_injection.rs` — silences the panics this suite
/// injects on purpose while leaving real panics loud.
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

/// One randomly drawn fault rule, as plain data so a fresh (stateful)
/// [`FaultPlan`] can be rebuilt from the same draw for every worker count.
#[derive(Debug, Clone)]
struct RuleDraw {
    site: usize,
    kind: usize,
    times: Option<u32>,
    after: u32,
    permille: Option<u32>,
}

fn rule_draw() -> impl Strategy<Value = RuleDraw> {
    (
        0usize..8,
        0usize..8,
        prop_oneof![Just(None), (1u32..4).prop_map(Some)],
        0u32..3,
        prop_oneof![Just(None), (50u32..800).prop_map(Some)],
    )
        .prop_map(|(site, kind, times, after, permille)| RuleDraw {
            site,
            kind,
            times,
            after,
            permille,
        })
}

/// Materializes draws into a plan over `site_names`, mapping `kind` into
/// `kinds` (layers pick which kinds make sense for them — e.g. the server
/// layer excludes `Disconnect`).
fn build_plan(
    seed: u64,
    draws: &[RuleDraw],
    site_names: &[&str],
    kinds: &[FaultKind],
) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for draw in draws {
        let kind = kinds[draw.kind % kinds.len()].clone();
        let mut rule = FaultRule::at(site_names[draw.site % site_names.len()], kind);
        if let Some(times) = draw.times {
            rule = rule.times(times);
        }
        if draw.after > 0 {
            rule = rule.after(draw.after);
        }
        if let Some(permille) = draw.permille {
            rule = rule.with_probability(f64::from(permille) / 1000.0);
        }
        plan = plan.rule(rule);
    }
    plan
}

fn chaos_sources(painters: usize, paintings: usize, seed: u64) -> Site {
    let store = generated_museum(painters, paintings, 2, seed);
    separated_sources(
        &store,
        &museum_navigation(),
        &paper_spec(AccessStructureKind::Index),
    )
    .unwrap()
}

fn assert_byte_identical(reference: &Site, got: &Site, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.len(), got.len(), "{}: site size", what);
    for (path, res) in reference.iter() {
        let other = got
            .get(path)
            .ok_or_else(|| TestCaseError::fail(format!("{what}: missing {path}")))?;
        prop_assert_eq!(
            res.to_bytes(),
            other.to_bytes(),
            "{}: bytes at {}",
            what,
            path
        );
    }
    Ok(())
}

/// `true` when `error` is one the fault layer is allowed to surface.
fn typed_fault_error(error: &CoreError) -> bool {
    matches!(error, CoreError::WorkerPanic { .. } | CoreError::Fault(_))
}

const WEAVE_KINDS: &[FaultKind] = &[
    FaultKind::Panic,
    FaultKind::Error(String::new()),
    FaultKind::Slow(Duration::from_millis(1)),
    FaultKind::Disconnect,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Weave-layer chaos: whatever the plan, output is byte-identical to
    /// the sequential reference or the error is typed. 1/2/8 workers.
    #[test]
    fn chaos_weave_correct_bytes_or_typed_error(
        painters in 1usize..3,
        paintings in 1usize..3,
        museum_seed in 0u64..1000,
        plan_seed in 0u64..1_000_000,
        draws in proptest::collection::vec(rule_draw(), 0..4),
    ) {
        quiet_injected_panics();
        let sources = chaos_sources(painters, paintings, museum_seed);
        let reference = weave_separated(&sources).unwrap();
        for workers in [1usize, 2, 8] {
            let plan = build_plan(plan_seed, &draws, &[sites::WEAVE_PAGE], WEAVE_KINDS);
            let weave = Weave {
                workers: NonZeroUsize::new(workers).unwrap(),
                faults: Some(&plan),
                ..Weave::default()
            };
            match weave.run(&sources) {
                Ok(out) => assert_byte_identical(
                    &reference.site,
                    &out.site,
                    &format!("workers/{workers}"),
                )?,
                Err(error) => prop_assert!(
                    typed_fault_error(&error),
                    "workers/{}: untyped error {}", workers, error
                ),
            }
        }
    }

    /// Publisher/store chaos: generations move one-per-successful-commit,
    /// zero-per-failed-commit, and a healed publisher recovers the batch.
    #[test]
    fn chaos_commits_are_transactional_under_store_faults(
        plan_seed in 0u64..1_000_000,
        draws in proptest::collection::vec(rule_draw(), 0..3),
        commits in 2usize..5,
    ) {
        quiet_injected_panics();
        let store = Arc::new(ShardedSiteStore::new(8));
        // Store-level commit faults only; panics here unwind through
        // `try_publish_incremental` and are absorbed by the publisher's
        // catch_unwind + retry.
        let kinds = [
            FaultKind::Panic,
            FaultKind::Error(String::new()),
            FaultKind::Slow(Duration::from_millis(1)),
        ];
        store.arm_faults(Arc::new(build_plan(
            plan_seed,
            &draws,
            &[sites::STORE_PUBLISH],
            &kinds,
        )));
        let sources = chaos_sources(2, 2, plan_seed);
        let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
        let mut expected_generation = 0u64;
        for commit in 0..commits {
            publisher.stage(SourceEdit::put_raw(
                "museum.css",
                format!("/* v{commit} */"),
            ));
            match publisher.commit() {
                Ok(outcome) => {
                    expected_generation += 1;
                    prop_assert_eq!(outcome.generation, expected_generation);
                    prop_assert_eq!(outcome.edits_applied, 1);
                }
                Err(error) => {
                    prop_assert!(typed_fault_error(&error), "untyped: {}", error);
                    prop_assert_eq!(publisher.staged_len(), 1, "batch must stay staged");
                }
            }
            prop_assert_eq!(store.generation(), expected_generation);
            // No torn epoch: whatever the store serves is a complete
            // committed generation, stamped as the current one.
            if expected_generation > 0 {
                let css = store.get("museum.css").unwrap();
                prop_assert_eq!(css.generation(), store.generation());
            }
        }
        // Heal and drain: everything still staged lands in one commit.
        store.disarm_faults();
        let pending = publisher.staged_len();
        publisher.stage(SourceEdit::put_raw("museum.css", "/* healed */"));
        let outcome = publisher.commit().unwrap();
        prop_assert_eq!(outcome.edits_applied, pending + 1);
        prop_assert_eq!(store.generation(), expected_generation + 1);
        let css = store.get("museum.css").unwrap();
        prop_assert!(
            String::from_utf8_lossy(&css.body()).contains("healed"),
            "healed commit must be the one served"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Server-pool chaos: every request answered (correct body + live
    /// generation header, or explicit 5xx with retry-after on 503), and
    /// the pool outlives every injected handler panic. 1/2/8 workers.
    #[test]
    fn chaos_pool_answers_everything_and_survives_panics(
        plan_seed in 0u64..1_000_000,
        draws in proptest::collection::vec(rule_draw(), 0..4),
        requests in 8usize..20,
    ) {
        quiet_injected_panics();
        let store = Arc::new(ShardedSiteStore::new(8));
        let sources = chaos_sources(2, 2, plan_seed);
        let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
        publisher.commit().unwrap();
        let paths: Vec<String> = {
            let woven = weave_separated(publisher.sources()).unwrap();
            woven.site.iter().map(|(p, _)| p.to_string()).collect()
        };
        // Handler-level faults; `Disconnect` excluded (it has no meaning
        // for an in-process handler — the panic case already models a
        // dying worker).
        let kinds = [
            FaultKind::Panic,
            FaultKind::Error(String::new()),
            FaultKind::Slow(Duration::from_millis(1)),
        ];
        for workers in [1usize, 2, 8] {
            let plan = Arc::new(build_plan(
                plan_seed,
                &draws,
                &[sites::SERVER_HANDLE],
                &kinds,
            ));
            let handler = Arc::new(FaultInjectingHandler::new(
                ShardedSiteHandler::new(Arc::clone(&store)),
                Arc::clone(&plan),
            ));
            let pool = ServerPool::start(handler, workers);
            for i in 0..requests {
                let path = &paths[i % paths.len()];
                let response = pool.request_sync(Request::get(path.clone()));
                if response.status().is_success() {
                    let generation: u64 = response
                        .header_value(GENERATION_HEADER)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| TestCaseError::fail(
                            format!("200 without a generation header at {path}"),
                        ))?;
                    let expected = store
                        .get_at(path, generation)
                        .ok_or_else(|| TestCaseError::fail(
                            format!("200 stamped unretained generation {generation}"),
                        ))?;
                    let expected_body = expected.body();
                    prop_assert_eq!(
                        response.body().as_slice(),
                        expected_body.as_slice(),
                        "body/generation mismatch at {} (workers={})", path, workers
                    );
                } else {
                    prop_assert!(
                        response.status().is_server_error(),
                        "unexpected status {} at {}", response.status().code(), path
                    );
                    if response.status().code() == 503 {
                        prop_assert!(
                            response.header_value(RETRY_AFTER_HEADER).is_some(),
                            "503 without {}", RETRY_AFTER_HEADER
                        );
                    }
                }
            }
            // Survival: however many handler panics were injected, the
            // pool still answers; panic-killed workers were respawned.
            let absorbed = pool.panics_absorbed();
            let mut answered_clean = false;
            for _ in 0..50 {
                let response = pool.request_sync(Request::get(paths[0].clone()));
                if response.status().is_success() {
                    answered_clean = true;
                    break;
                }
            }
            prop_assert!(
                absorbed == 0 || pool.workers_spawned() > workers as u64,
                "absorbed {} panics but never respawned", absorbed
            );
            // A probability rule can keep firing forever; only demand a
            // clean answer when the plan has gone quiet.
            let plan_quiet = draws.iter().all(|d| d.times.is_some());
            if plan_quiet {
                prop_assert!(answered_clean, "pool never recovered (workers={})", workers);
            }
            pool.shutdown();
        }
    }
}
