//! The executor law: every way of running a weave is the same weave.
//!
//! `Weave` at one worker with no cache (`weave_separated`, plus the extra
//! aspects) is the reference. Every other setting of the executor — 1, 2
//! and 8 workers, with and without a `WeaveCache` — may only change *how*:
//! which thread weaves which page, and whether compiled specs are reused.
//! For every site each must serve **byte-identical** bodies at every path,
//! return the same reports, and fail with the **identical error** when it
//! fails.
//!
//! The suite drives that law over random museum sites and random aspect
//! sets that mix static fragments, text, page-generated and
//! document-dependent content, composed with the cache as well as without
//! it.

use navsep_aspect::{AdvicePosition, Aspect, Pointcut};
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::pipeline::{Weave, WeaveCache};
use navsep_core::separated::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_hypermodel::AccessStructureKind;
use navsep_web::Site;
use navsep_xml::ElementBuilder;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::num::NonZeroUsize;

/// Element names the museum transform actually emits, so pointcuts bite.
fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("body".to_string()),
        Just("h1".to_string()),
        Just("dl".to_string()),
        Just("dd".to_string()),
        Just("html".to_string()),
    ]
}

fn pointcut_strategy() -> impl Strategy<Value = Pointcut> {
    let leaf = prop_oneof![
        name_strategy().prop_map(Pointcut::Element),
        prop_oneof![
            Just("painting-*".to_string()),
            Just("painter-*".to_string()),
            Just("*.html".to_string()),
            Just("movement-*".to_string()),
        ]
        .prop_map(Pointcut::Page),
        Just(Pointcut::HasClass("painting".to_string())),
        Just(Pointcut::HasClass("facts".to_string())),
        Just(Pointcut::AttrExists("class".to_string())),
        Just(Pointcut::Root),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Pointcut::negate),
        ]
    })
}

fn position_strategy() -> impl Strategy<Value = AdvicePosition> {
    prop_oneof![
        Just(AdvicePosition::Append),
        Just(AdvicePosition::Prepend),
        Just(AdvicePosition::Before),
        Just(AdvicePosition::After),
    ]
}

/// How one random rule realizes content.
///
/// `ReplaceContent` is exercised by the conflict test below rather than the
/// random mix: the weaver panics when a replace detaches a subtree that a
/// later `before`/`after` rule then targets. The executor turns such a panic
/// into the page's `WorkerPanic` error (pinned in `fault_injection.rs`), but
/// the default panic hook would print every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ContentKind {
    Text,
    Fragment,
    PageGenerated,
    Generated,
}

fn content_strategy() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        3 => Just(ContentKind::Text),
        3 => Just(ContentKind::Fragment),
        3 => Just(ContentKind::PageGenerated),
        2 => Just(ContentKind::Generated),
    ]
}

type RuleSpec = (Pointcut, AdvicePosition, ContentKind);

fn aspects_from(specs: Vec<(i32, Vec<RuleSpec>)>) -> Vec<Aspect> {
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (precedence, rules))| {
            let mut aspect = Aspect::new(format!("x{i}")).with_precedence(precedence);
            for (ri, (pointcut, position, kind)) in rules.into_iter().enumerate() {
                aspect = match kind {
                    ContentKind::Text => aspect.text_rule(pointcut, position, format!("t{ri}")),
                    ContentKind::Fragment => aspect.rule(
                        pointcut,
                        position,
                        vec![ElementBuilder::new("frag").attr("r", ri.to_string())],
                    ),
                    ContentKind::PageGenerated => {
                        aspect.page_generated_rule(pointcut, position, |page| {
                            vec![ElementBuilder::new("pnav").text(page.to_string())]
                        })
                    }
                    ContentKind::Generated => aspect.generated_rule(pointcut, position, |jp| {
                        vec![ElementBuilder::new("gen").attr("at", jp.element_path())]
                    }),
                };
            }
            aspect
        })
        .collect()
}

/// The law itself: against the sequential uncached reference, every worker
/// count with and without a cache serves identical bytes path for path and
/// identical reports, or fails with the identical error.
fn assert_equivalent(sources: &Site, aspects: &[Aspect]) -> Result<(), TestCaseError> {
    let reference = Weave {
        aspects,
        ..Weave::default()
    };
    let expected = reference.run(sources);
    // One cache across the cached runs: the first compiles, the rest hit.
    let cache = WeaveCache::new();
    for workers in [1usize, 2, 8] {
        for cache in [None, Some(&cache)] {
            if workers == 1 && cache.is_none() {
                continue; // the reference itself
            }
            let subject = Weave {
                cache,
                workers: NonZeroUsize::new(workers).unwrap(),
                ..reference
            };
            let what = format!("{workers} worker(s), cached: {}", cache.is_some());
            match (&expected, subject.run(sources)) {
                (Ok(expected), Ok(got)) => {
                    prop_assert_eq!(expected.site.len(), got.site.len(), "{}", what);
                    for (path, res) in expected.site.iter() {
                        let other = got.site.get(path).ok_or_else(|| {
                            TestCaseError::fail(format!("{what}: dropped {path}"))
                        })?;
                        prop_assert_eq!(other.media_type(), res.media_type());
                        prop_assert_eq!(
                            other.to_bytes(),
                            res.to_bytes(),
                            "served bytes differ at {} with {}",
                            path,
                            what
                        );
                    }
                    prop_assert_eq!(expected.reports.len(), got.reports.len());
                    for (e, g) in expected.reports.iter().zip(&got.reports) {
                        prop_assert_eq!(&e.page, &g.page, "{}", what);
                        prop_assert_eq!(e.join_points, g.join_points);
                        prop_assert_eq!(&e.events, &g.events, "{}", what);
                    }
                }
                (Err(expected), Err(got)) => {
                    prop_assert_eq!(expected.to_string(), got.to_string(), "{}", what)
                }
                (expected, got) => {
                    return Err(TestCaseError::fail(format!(
                        "{what}: outcomes diverged: reference {:?} vs {:?}",
                        expected.as_ref().map(|o| o.site.len()),
                        got.map(|o| o.site.len()),
                    )))
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random site × random mixed aspects: every worker count, cached or
    /// not, serves the reference's bytes (or fails the same way).
    #[test]
    fn executor_equals_sequential_weave(
        painters in 1usize..3,
        paintings in 1usize..4,
        seed in 0u64..1000,
        access in prop_oneof![
            Just(AccessStructureKind::Index),
            Just(AccessStructureKind::IndexedGuidedTour),
        ],
        specs in proptest::collection::vec(
            (
                -2i32..2,
                proptest::collection::vec(
                    (pointcut_strategy(), position_strategy(), content_strategy()),
                    1..3,
                ),
            ),
            0..3,
        ),
    ) {
        let store = generated_museum(painters, paintings, 2, seed);
        let sources =
            separated_sources(&store, &museum_navigation(), &paper_spec(access)).unwrap();
        let aspects = aspects_from(specs);
        assert_equivalent(&sources, &aspects)?;
    }

    /// Error side: two equal-precedence aspects replacing the same element
    /// conflict on every page, and every executor setting reports the
    /// exact error the reference does — the first page's in path order.
    #[test]
    fn replace_conflicts_error_identically(seed in 0u64..1000) {
        let store = generated_museum(2, 2, 2, seed);
        let sources = separated_sources(
            &store,
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let clash = |name: &str, text: &str| {
            Aspect::new(name).text_rule(
                Pointcut::Element("h1".to_string()),
                AdvicePosition::ReplaceContent,
                text,
            )
        };
        let aspects = vec![clash("rc1", "one"), clash("rc2", "two")];
        let reference = Weave { aspects: &aspects, ..Weave::default() };
        prop_assert!(reference.run(&sources).is_err());
        assert_equivalent(&sources, &aspects)?;
    }
}
