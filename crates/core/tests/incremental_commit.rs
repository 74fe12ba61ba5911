//! The incremental-commit law: whatever batch a [`SitePublisher`] commits,
//! it agrees with a from-scratch [`weave_separated`] of the same sources.
//!
//! A data- or CSS-only commit takes the incremental path: it reweaves the
//! edited pages, shares every other page with the previous weave, and
//! re-checks only the locators that point into edited documents. The
//! property drives random batches through a publisher whose linkbase
//! addresses every document by XPointer (`#slug` shorthand or
//! `#xpointer(//name[@id='slug'])`), so a batch can break a locator in two
//! ways — change the target's `id`, or remove the target — and later
//! batches restore it. A batch may also swap the linkbase (Index ↔
//! Indexed Guided Tour, both narrowed the same way), which takes the full
//! weave. After every commit:
//!
//! * if the full weave fails, the commit fails with the same error text,
//!   the generation does not move, the whole batch stays staged with its
//!   documents unchanged, and the sources are the very resources they
//!   were before the commit (the commit applies the batch in place and
//!   rolls it back);
//! * otherwise the commit succeeds and the store serves a site
//!   DOM-equivalent to the full weave, page for page.
//!
//! A second property walks the same edits through the source lint: it
//! has an error exactly when the full weave's locator check fails, and
//! its first error names what that check failed at (the lint ≡ check law).
//!
//! Plain tests below pin the sharing the incremental path relies on: the
//! store's live epoch, the publisher's last woven site and the committed
//! sources hold one `Arc` per unchanged resource between them.

use navsep_core::layout::{CSS_PATH, LINKBASE_PATH};
use navsep_core::lint::{lint_sources, SourceLintFinding};
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::publish::{SitePublisher, SourceEdit};
use navsep_core::separated::separated_sources;
use navsep_core::spec::paper_spec;
use navsep_core::{assert_site_equivalent, weave_separated, CoreError};
use navsep_hypermodel::AccessStructureKind;
use navsep_web::{ShardedSiteStore, Site};
use navsep_xlink::XLinkError;
use navsep_xml::Document;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;

/// The generated museum's separated sources, with every locator narrowed
/// to its target element by an XPointer on the target's `id`.
struct Fixture {
    sources: Site,
    /// `(path, original document)` of every locator target, sorted.
    targets: Vec<(String, Document)>,
    /// The narrowed linkbase under the Index and under the Indexed Guided
    /// Tour (the one `sources` carries).
    linkbases: [Document; 2],
}

fn linkbase_text(access: AccessStructureKind) -> String {
    separated_sources(
        &generated_museum(2, 3, 2, 7),
        &museum_navigation(),
        &paper_spec(access),
    )
    .expect("generated museum separates")
    .get(LINKBASE_PATH)
    .and_then(|res| res.document())
    .expect("links.xml")
    .to_xml_string()
}

fn fixture() -> Fixture {
    let mut sources = separated_sources(
        &generated_museum(2, 3, 2, 7),
        &museum_navigation(),
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .expect("generated museum separates");
    let mut links = linkbase_text(AccessStructureKind::IndexedGuidedTour);
    let mut index_links = linkbase_text(AccessStructureKind::Index);
    let mut targets = Vec::new();
    for (path, res) in sources.iter() {
        let Some(doc) = res.document() else { continue };
        let Some(slug) = path.strip_suffix(".xml") else {
            continue;
        };
        let whole = format!("xlink:href=\"{path}\"");
        if !links.contains(&whole) {
            continue;
        }
        let root = doc.root_element().expect("data documents have a root");
        let name = doc.name(root).expect("root is an element").local();
        let pointer = if targets.len() % 2 == 0 {
            slug.to_string()
        } else {
            format!("xpointer(//{name}[@id='{slug}'])")
        };
        let narrowed = format!("xlink:href=\"{path}#{pointer}\"");
        links = links.replace(&whole, &narrowed);
        index_links = index_links.replace(&whole, &narrowed);
        targets.push((path.to_string(), doc.clone()));
    }
    assert!(
        targets.len() >= 8,
        "every data document is a locator target"
    );
    let igt = Document::parse(&links).expect("narrowed linkbase parses");
    let index = Document::parse(&index_links).expect("narrowed linkbase parses");
    sources.put_document(LINKBASE_PATH, igt.clone());
    Fixture {
        sources,
        targets,
        linkbases: [index, igt],
    }
}

/// One edit of a random batch. Target indexes wrap over the fixture's
/// locator targets.
#[derive(Debug, Clone)]
enum Edit {
    /// New text for the target's first child element (its title or name).
    Retitle(usize, u8),
    /// Changes the target's `id`, so its XPointer selects nothing.
    BreakId(usize),
    /// Removes the target document.
    Remove(usize),
    /// Puts the target's original document back.
    Restore(usize),
    /// Rewrites the stylesheet.
    Css(u8),
    /// Adds a data document no locator points at (a page without
    /// navigation).
    Unreferenced(u8),
    /// Puts the narrowed Index (`false`) or Indexed Guided Tour (`true`)
    /// linkbase.
    Linkbase(bool),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        3 => (0usize..64, 0u8..8).prop_map(|(t, v)| Edit::Retitle(t, v)),
        1 => (0usize..64).prop_map(Edit::BreakId),
        1 => (0usize..64).prop_map(Edit::Remove),
        3 => (0usize..64).prop_map(Edit::Restore),
        1 => (0u8..8).prop_map(Edit::Css),
        1 => (0u8..4).prop_map(Edit::Unreferenced),
        1 => (0u8..2).prop_map(|igt| Edit::Linkbase(igt == 1)),
    ]
}

fn script() -> impl Strategy<Value = Vec<Vec<Edit>>> {
    proptest::collection::vec(proptest::collection::vec(edit(), 1..4), 1..7)
}

impl Edit {
    fn to_source_edit(&self, fixture: &Fixture) -> SourceEdit {
        let target = |t: usize| &fixture.targets[t % fixture.targets.len()];
        match *self {
            Edit::Retitle(t, v) => {
                let (path, original) = target(t);
                let mut doc = original.clone();
                let root = doc.root_element().expect("root");
                let first = doc.child_elements(root).next().expect("a child element");
                for child in doc.children(first).to_vec() {
                    doc.detach(child);
                }
                doc.create_text(first, format!("Retitled {v}"));
                SourceEdit::put_document(path.clone(), doc)
            }
            Edit::BreakId(t) => {
                let (path, original) = target(t);
                let mut doc = original.clone();
                let root = doc.root_element().expect("root");
                let id = doc.attribute(root, "id").expect("targets carry an id");
                let moved = format!("{id}-moved");
                doc.set_attribute(root, "id", moved);
                SourceEdit::put_document(path.clone(), doc)
            }
            Edit::Remove(t) => SourceEdit::remove(target(t).0.clone()),
            Edit::Restore(t) => {
                let (path, original) = target(t);
                SourceEdit::put_document(path.clone(), original.clone())
            }
            Edit::Css(v) => SourceEdit::put_raw(CSS_PATH, format!("h1 {{ margin: {v}px }}")),
            Edit::Unreferenced(k) => SourceEdit::put_document(
                format!("extra-{k}.xml"),
                Document::parse(&format!(
                    r#"<painting id="extra-{k}"><title>Extra {k}</title><year>1900</year></painting>"#
                ))
                .expect("extra document parses"),
            ),
            Edit::Linkbase(igt) => {
                SourceEdit::put_document(LINKBASE_PATH, fixture.linkbases[usize::from(igt)].clone())
            }
        }
    }
}

/// A staged edit as comparable text: its path, kind and content.
fn edit_text(edit: &SourceEdit) -> String {
    match edit {
        SourceEdit::PutDocument { path, doc } => format!("put {path} {}", doc.to_xml_string()),
        SourceEdit::PutRaw { path, text } => format!("raw {path} {text}"),
        SourceEdit::Remove { path } => format!("remove {path}"),
        other => panic!("unmodelled edit {other:?}"),
    }
}

/// What the publisher's own staging does to its working copy, done
/// independently on the test's model of the sources.
fn apply(model: &mut Site, edit: &SourceEdit) {
    match edit {
        SourceEdit::PutDocument { path, doc } => model.put_document(path.clone(), doc.clone()),
        SourceEdit::PutRaw { path, text } => model.put_css(path.clone(), text.clone()),
        SourceEdit::Remove { path } => {
            model.remove(path);
        }
        other => panic!("unmodelled edit {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The law: incremental commit ≡ full weave, batch by batch, in
    /// success (equivalent served site) and in failure (same error text,
    /// nothing published, batch still staged).
    #[test]
    fn incremental_commit_agrees_with_full_weave(script in script()) {
        let fixture = fixture();
        let store = Arc::new(ShardedSiteStore::new(4));
        let mut publisher = SitePublisher::new(fixture.sources.clone(), Arc::clone(&store));
        publisher.commit().expect("the narrowed sources weave");
        let mut model = fixture.sources.clone();
        let mut staged = 0usize;
        let mut spec_staged = false;
        for (step, batch) in script.iter().enumerate() {
            for edit in batch {
                spec_staged |= matches!(edit, Edit::Linkbase(_));
                let edit = edit.to_source_edit(&fixture);
                apply(&mut model, &edit);
                publisher.stage(edit);
                staged += 1;
            }
            let generation = store.generation();
            let full = weave_separated(&model);
            let sources_before: Vec<_> = publisher
                .sources()
                .iter_shared()
                .map(|(path, res)| (path.to_string(), Arc::clone(res)))
                .collect();
            let staged_before: Vec<String> = publisher.staged().iter().map(edit_text).collect();
            match (full, publisher.commit()) {
                (Err(want), Err(got)) => {
                    prop_assert_eq!(got.to_string(), want.to_string(), "step {}", step);
                    prop_assert_eq!(store.generation(), generation, "step {}", step);
                    prop_assert_eq!(publisher.staged_len(), staged, "step {}", step);
                    // The rollback law: the same resources per path, and
                    // the batch staged as it was.
                    let sources = publisher.sources();
                    prop_assert_eq!(sources.len(), sources_before.len(), "step {}", step);
                    for (path, res) in &sources_before {
                        prop_assert!(
                            sources.get_shared(path).is_some_and(|now| Arc::ptr_eq(res, now)),
                            "step {}: {} is not the resource it was", step, path
                        );
                    }
                    let staged_after: Vec<String> =
                        publisher.staged().iter().map(edit_text).collect();
                    prop_assert_eq!(staged_after, staged_before, "step {}", step);
                }
                (Ok(full), Ok(outcome)) => {
                    prop_assert_eq!(outcome.generation, generation + 1);
                    prop_assert_eq!(outcome.edits_applied, staged);
                    prop_assert!(
                        spec_staged || outcome.pages_rewoven <= staged,
                        "step {}: O(edits) reweave, got {:?}", step, outcome
                    );
                    staged = 0;
                    spec_staged = false;
                    prop_assert_eq!(publisher.staged_len(), 0);
                    assert_site_equivalent(&full.site, &store.to_site())
                        .map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
                }
                (full, commit) => prop_assert!(
                    false,
                    "step {}: full weave {:?} but commit {:?}",
                    step,
                    full.map(|_| ()),
                    commit.map(|_| ())
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lint ≡ check law, over the same random edits applied one by
    /// one: the source lint has an error exactly when the full weave fails
    /// its locator check (`UnknownDocument` or `PointerFailed`), and its
    /// first error names what that check failed at — the missing document,
    /// or the href whose pointer selected nothing.
    #[test]
    fn lint_errors_exactly_when_the_locator_check_fails(script in script()) {
        let fixture = fixture();
        let mut model = fixture.sources.clone();
        for (step, edit) in script.iter().flatten().enumerate() {
            apply(&mut model, &edit.to_source_edit(&fixture));
            let report = lint_sources(&model);
            let first = report.errors().next();
            match (weave_separated(&model), first) {
                (
                    Err(CoreError::XLink(XLinkError::UnknownDocument(document))),
                    Some(SourceLintFinding::DanglingLocator { target, .. }),
                ) => prop_assert_eq!(target, &document, "step {}", step),
                (
                    Err(CoreError::XLink(XLinkError::PointerFailed { href, .. })),
                    Some(SourceLintFinding::UnresolvedPointer { href: linted, .. }),
                ) => prop_assert_eq!(linted, &href, "step {}", step),
                (Ok(_), None) => {}
                (Err(error), None) => prop_assert!(
                    !matches!(
                        error,
                        CoreError::XLink(
                            XLinkError::UnknownDocument(_) | XLinkError::PointerFailed { .. }
                        )
                    ),
                    "step {}: the locator check failed with {} but the lint is clean",
                    step,
                    error
                ),
                (weave, Some(first)) => prop_assert!(
                    false,
                    "step {}: the lint's first error is {} but the weave gave {:?}",
                    step,
                    first,
                    weave.map(|_| ())
                ),
            }
        }
    }
}

mod sharing {
    use super::*;

    fn retitled(fixture: &Fixture) -> SourceEdit {
        Edit::Retitle(0, 1).to_source_edit(fixture)
    }

    #[test]
    fn untouched_pages_are_one_arc_shared_by_store_and_publisher() {
        let fixture = fixture();
        let store = Arc::new(ShardedSiteStore::new(4));
        let mut publisher = SitePublisher::new(fixture.sources.clone(), Arc::clone(&store));
        publisher.commit().unwrap();
        let edit = retitled(&fixture);
        let edited_page = match &edit {
            SourceEdit::PutDocument { path, .. } => path.replace(".xml", ".html"),
            other => panic!("retitle is a document put, got {other:?}"),
        };
        let before = publisher.last_woven().unwrap().clone();
        publisher.stage(edit);
        let outcome = publisher.commit().unwrap();
        assert_eq!(outcome.pages_rewoven, 1);

        let woven = publisher.last_woven().unwrap();
        let served = store.to_site();
        assert_eq!(served.len(), woven.len());
        for (path, res) in woven.iter_shared() {
            let live = served.get_shared(path).unwrap();
            if path == edited_page {
                assert!(!Arc::ptr_eq(res, before.get_shared(path).unwrap()));
                continue;
            }
            assert!(
                Arc::ptr_eq(res, live),
                "{path}: the store serves the publisher's copy, not its own"
            );
            assert!(
                Arc::ptr_eq(res, before.get_shared(path).unwrap()),
                "{path}: untouched pages survive the commit as the same Arc"
            );
        }
    }

    #[test]
    fn unchanged_sources_are_shared_across_commits() {
        let fixture = fixture();
        let store = Arc::new(ShardedSiteStore::new(4));
        let mut publisher = SitePublisher::new(fixture.sources.clone(), Arc::clone(&store));
        publisher.commit().unwrap();
        let before = publisher.sources().clone();
        let edit = retitled(&fixture);
        let edited = match &edit {
            SourceEdit::PutDocument { path, .. } => path.clone(),
            other => panic!("retitle is a document put, got {other:?}"),
        };
        publisher
            .stage(edit)
            .stage(SourceEdit::put_raw(CSS_PATH, "h1 { color: teal }"));
        publisher.commit().unwrap();
        let after = publisher.sources();
        assert_eq!(after.len(), before.len());
        for (path, res) in before.iter_shared() {
            let now = after.get_shared(path).unwrap();
            let edited_here = path == edited || path == CSS_PATH;
            assert_eq!(
                Arc::ptr_eq(res, now),
                !edited_here,
                "{path}: shared exactly when the batch left it alone"
            );
        }
    }

    #[test]
    fn leading_slash_edits_name_the_stored_source() {
        // `/links.xml` is the linkbase: staging it must take the full
        // (spec) path, and a `/`-spelled data edit must replace, not add.
        let fixture = fixture();
        let store = Arc::new(ShardedSiteStore::new(4));
        let mut publisher = SitePublisher::new(fixture.sources.clone(), Arc::clone(&store));
        publisher.commit().unwrap();
        let (path, original) = &fixture.targets[0];
        publisher.stage(SourceEdit::put_document(
            format!("/{path}"),
            original.clone(),
        ));
        let data = publisher.commit().unwrap();
        assert_eq!(data.pages_rewoven, 1);
        assert_eq!(publisher.sources().len(), fixture.sources.len());
        let links = fixture
            .sources
            .get(LINKBASE_PATH)
            .unwrap()
            .document()
            .unwrap();
        publisher.stage(SourceEdit::put_document(
            format!("/{LINKBASE_PATH}"),
            links.clone(),
        ));
        let spec = publisher.commit().unwrap();
        assert_eq!(spec.pages_reused, 0, "a linkbase edit reweaves everything");
        assert!(spec.pages_rewoven > 1);
    }
}
