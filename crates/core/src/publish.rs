//! Batched, **incremental** publishing: stage K aspect/source edits,
//! reweave only what they touch, swap only the shards that changed.
//!
//! The paper's reweave story — change `links.xml`, republish, content
//! untouched — gets expensive if every edit triggers its own weave and its
//! own site swap. A [`SitePublisher`] owns the separated sources, a
//! [`WeaveCache`] (so unchanged specs are never recompiled), the **last
//! woven site** (so unchanged pages are never re-woven), and a
//! [`ShardedSiteStore`]; edits accumulate via [`stage`](SitePublisher::stage)
//! and [`commit`](SitePublisher::commit) turns the whole batch into exactly
//! one weave and one generation bump, while readers keep being served the
//! previous epoch.
//!
//! Commits are incremental end to end when the batch touches only data or
//! raw resources. A [`Site`] is copy-on-write (`Arc` per resource), so the
//! working copy of the sources and of the last woven site share every
//! document they do not replace. The K edited pages are re-transformed and
//! re-woven; the locator check resolves only the traversals with an
//! endpoint in an edited document, in the full check's order, from a
//! traversal list cached per linkbase; every other page is the previous
//! weave's `Arc`, memoized [`navsep_xml::Document::content_hash`] and all;
//! and [`ShardedSiteStore::publish_incremental`] reuses the unchanged
//! entries and skips untouched shards. Document work is O(K); what stays
//! O(site) is pointer work — the path maps' refcount bumps and key copies
//! and the store diff's one hash comparison per entry. A batch that edits a
//! *spec* (linkbase, transform, `aspects.xml`) falls back to the full
//! weave, since any page may be affected.
//!
//! The store's epochs hold the same `Arc`s as the publisher's last woven
//! site, so a page that survives many commits is stored once, however many
//! retained generations serve it. Newly woven pages are compacted
//! ([`navsep_xml::Document::shrink_to_fit`]) before they are shared.
//!
//! Commits are transactional over the staged batch: if the weave (or the
//! audit / pre-weave lint, for
//! [`commit_audited`](SitePublisher::commit_audited)) fails, neither the
//! sources nor the served site change, and the batch stays staged for
//! correction.

use crate::audit::audit_site;
use crate::error::CoreError;
use crate::fault::{self, FaultPlan};
use crate::layout::data_to_page;
use crate::lint::lint_sources;
use crate::pipeline::{panic_message, weave_pages_cached, Weave, WeaveCache};
use navsep_web::{IncrementalPublish, Resource, ShardedSiteStore, Site};
use navsep_xml::Document;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Capped exponential backoff for **transient** commit failures.
///
/// A failure is transient when it came from the fault subsystem:
/// [`CoreError::Fault`] (an injected error, e.g. a failed store publish)
/// or [`CoreError::WorkerPanic`] (an absorbed panic). Injected fault
/// budgets model recoverable conditions — a rule with
/// [`times(n)`](crate::fault::FaultRule::times) stops firing once spent —
/// so retrying them is exactly what a production supervisor would do.
/// Organic pipeline errors (bad XML, dangling locators, audit findings)
/// are deterministic and are **never** retried.
///
/// The delay before retry `k` (0-based) is `base_delay × 2^k`, capped at
/// `max_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries). `0` is treated as 1.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 2ms base, 50ms cap — negligible for healthy
    /// commits (no transient failure ever means no sleep at all).
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every failure surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The capped exponential delay before 0-based retry `attempt`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay)
    }

    fn is_transient(error: &CoreError) -> bool {
        matches!(error, CoreError::Fault(_) | CoreError::WorkerPanic { .. })
    }

    /// Runs `attempt_fn` until it succeeds, fails non-transiently, or the
    /// attempt budget is spent; returns the value plus how many retries it
    /// took.
    fn run_counted<T>(
        &self,
        mut attempt_fn: impl FnMut() -> Result<T, CoreError>,
    ) -> Result<(T, u32), CoreError> {
        let mut retries = 0u32;
        loop {
            match attempt_fn() {
                Ok(value) => return Ok((value, retries)),
                Err(error) if Self::is_transient(&error) && retries + 1 < self.max_attempts => {
                    std::thread::sleep(self.backoff(retries));
                    retries += 1;
                }
                Err(error) => return Err(error),
            }
        }
    }
}

/// One staged change to the separated sources.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SourceEdit {
    /// Store (or replace) a parsed document — data, linkbase, transform,
    /// or `aspects.xml`.
    PutDocument {
        /// Source path (e.g. `links.xml`).
        path: String,
        /// The new document.
        doc: Document,
    },
    /// Store (or replace) a raw text resource (CSS or plain text).
    PutRaw {
        /// Source path (e.g. `museum.css`).
        path: String,
        /// The new content.
        text: String,
    },
    /// Remove a source.
    Remove {
        /// Source path.
        path: String,
    },
}

impl SourceEdit {
    /// A document put.
    pub fn put_document(path: impl Into<String>, doc: Document) -> Self {
        SourceEdit::PutDocument {
            path: path.into(),
            doc,
        }
    }

    /// A raw-resource put.
    pub fn put_raw(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceEdit::PutRaw {
            path: path.into(),
            text: text.into(),
        }
    }

    /// A removal.
    pub fn remove(path: impl Into<String>) -> Self {
        SourceEdit::Remove { path: path.into() }
    }

    fn apply(&self, sources: &mut Site) {
        match self {
            SourceEdit::PutDocument { path, doc } => {
                sources.put_document(path.clone(), doc.clone())
            }
            SourceEdit::PutRaw { path, text } => {
                if path.ends_with(".css") {
                    sources.put_css(path.clone(), text.clone());
                } else {
                    sources.put_text(path.clone(), text.clone());
                }
            }
            SourceEdit::Remove { path } => {
                sources.remove_shared(path);
            }
        }
    }
}

/// What one committed batch produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The generation the batch went live as.
    pub generation: u64,
    /// Staged edits applied by this commit.
    pub edits_applied: usize,
    /// Resources in the published (woven) site.
    pub resources_published: usize,
    /// Pages transformed + woven by this commit (K for a K-page data
    /// batch on the incremental path; every page on the full path).
    pub pages_rewoven: usize,
    /// Resources carried over from the previous weave untouched.
    pub pages_reused: usize,
    /// What the store-level incremental publish did (entry reuse, shard
    /// swaps) — see [`IncrementalPublish`].
    pub store_publish: IncrementalPublish,
    /// Transient failures absorbed by the [`RetryPolicy`] before this
    /// commit succeeded (always 0 with no faults armed).
    pub retries: u32,
}

/// Owns the separated authoring and republishes it — batched, cached, and
/// epoch-swapped — into a [`ShardedSiteStore`].
///
/// # Examples
///
/// ```
/// use navsep_core::museum::{museum_navigation, paper_museum};
/// use navsep_core::publish::{SitePublisher, SourceEdit};
/// use navsep_core::separated::separated_sources;
/// use navsep_core::spec::paper_spec;
/// use navsep_hypermodel::AccessStructureKind;
/// use navsep_web::ShardedSiteStore;
/// use std::sync::Arc;
///
/// let sources = separated_sources(
///     &paper_museum(),
///     &museum_navigation(),
///     &paper_spec(AccessStructureKind::Index),
/// )?;
/// let store = Arc::new(ShardedSiteStore::new(8));
/// let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
/// publisher.commit()?;                       // initial weave → generation 1
///
/// // Three edits, one swap: readers see generation 2, never 1.5.
/// publisher
///     .stage(SourceEdit::put_raw("museum.css", "body { margin: 0 }"))
///     .stage(SourceEdit::put_raw("notes.txt", "rewoven"))
///     .stage(SourceEdit::remove("notes.txt"));
/// let outcome = publisher.commit()?;
/// assert_eq!(outcome.generation, 2);
/// assert_eq!(outcome.edits_applied, 3);
/// assert_eq!(store.generation(), 2);
/// # Ok::<(), navsep_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct SitePublisher {
    sources: Site,
    store: Arc<ShardedSiteStore>,
    cache: WeaveCache,
    staged: Vec<SourceEdit>,
    /// The woven site of the last successful commit — what the
    /// incremental path reuses for untouched pages. Its resources are the
    /// very `Arc`s the store's live epoch serves (memoized content hash
    /// included, so the store's diff is O(1) per reused page). `Some` also
    /// records that `sources` passed the locator check under the current
    /// linkbase, which is what lets the next data-only commit re-check only
    /// the locators into the documents it edits.
    last_woven: Option<Site>,
    /// Fault plan consulted once per commit attempt; `None` (the default)
    /// costs one branch.
    faults: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
}

impl SitePublisher {
    /// A publisher over `sources`, serving through `store`. Nothing is
    /// woven or published until the first [`commit`](Self::commit).
    pub fn new(sources: Site, store: Arc<ShardedSiteStore>) -> Self {
        SitePublisher {
            sources,
            store,
            cache: WeaveCache::new(),
            staged: Vec::new(),
            last_woven: None,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Arms a [`FaultPlan`] on this publisher (builder style). The plan is
    /// consulted at the `weave.page` site once per commit, keyed
    /// `"publisher.commit"`, before any weave work; arm the same plan on the
    /// store ([`ShardedSiteStore::arm_faults`]) to also hit the
    /// `store.publish` site.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets or clears the armed [`FaultPlan`] in place.
    pub fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// Replaces the [`RetryPolicy`] (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the [`RetryPolicy`] in place.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The policy applied to transient commit failures.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Stages an edit for the next commit (builder style, chainable).
    pub fn stage(&mut self, edit: SourceEdit) -> &mut Self {
        self.staged.push(edit);
        self
    }

    /// Number of edits waiting for the next commit.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The current (committed) separated sources.
    pub fn sources(&self) -> &Site {
        &self.sources
    }

    /// The store this publisher swaps generations into.
    pub fn store(&self) -> &Arc<ShardedSiteStore> {
        &self.store
    }

    /// The spec cache reused across commits.
    pub fn cache(&self) -> &WeaveCache {
        &self.cache
    }

    /// The woven site of the last successful commit (`None` before the
    /// first). It shares its resources with the store's live epoch.
    pub fn last_woven(&self) -> Option<&Site> {
        self.last_woven.as_ref()
    }

    /// Applies every staged edit, weaves once, and publishes the woven
    /// site as one new generation.
    ///
    /// # Errors
    ///
    /// Any pipeline error. On error nothing is published, the sources are
    /// unchanged, and the batch stays staged.
    pub fn commit(&mut self) -> Result<PublishOutcome, CoreError> {
        self.commit_inner(None)
    }

    /// Like [`commit`](Self::commit), but gated twice: a cheap **pre-weave
    /// source lint** first (dangling locators named before any weave work
    /// — see [`crate::lint`]), then the post-weave audit of the woven
    /// output (`roots` are the audit's reachability entry points). Either
    /// gate failing publishes nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::SourceLint`] when the sources-after-edits carry
    /// dangling locators; [`CoreError::Audit`] with the full report when
    /// the woven audit is not clean (nothing published, batch stays
    /// staged); otherwise as [`commit`](Self::commit).
    pub fn commit_audited(&mut self, roots: &[&str]) -> Result<PublishOutcome, CoreError> {
        self.commit_inner(Some(roots))
    }

    /// Lints the sources **as the staged batch would leave them**, without
    /// weaving or publishing anything — the cheap pre-flight
    /// [`commit_audited`](Self::commit_audited) runs before its weave.
    pub fn lint(&self) -> crate::lint::SourceLintReport {
        let mut next = self.sources.clone();
        for edit in &self.staged {
            edit.apply(&mut next);
        }
        lint_sources(&next)
    }

    /// `true` when `edit` touches a spec the [`WeaveCache`] compiles.
    fn edits_spec(edit: &SourceEdit) -> bool {
        use crate::layout::{ASPECTS_PATH, LINKBASE_PATH, TRANSFORM_PATH};
        let path = Self::edit_path(edit);
        path == LINKBASE_PATH || path == TRANSFORM_PATH || path == ASPECTS_PATH
    }

    /// The path a staged edit touches, in its stored form (a [`Site`]
    /// normalizes a leading `/` away, so `/links.xml` *is* the linkbase).
    fn edit_path(edit: &SourceEdit) -> &str {
        match edit {
            SourceEdit::PutDocument { path, .. }
            | SourceEdit::PutRaw { path, .. }
            | SourceEdit::Remove { path } => path.trim_start_matches('/'),
        }
    }

    /// Reweaves only what the staged batch touched, reusing every other
    /// page of `prev` (the last woven site) verbatim. Only valid when no
    /// spec changed and the committed sources passed the locator check
    /// under the current linkbase. Returns the next woven site plus
    /// (rewoven, reused) counts.
    fn incremental_weave(
        &self,
        next: &Site,
        prev: &Site,
    ) -> Result<(Site, usize, usize), CoreError> {
        // Copy-on-write: shares every page of `prev`.
        let mut site = prev.clone();
        let touched: BTreeSet<String> = self
            .staged
            .iter()
            .map(|edit| Self::edit_path(edit).to_string())
            .collect();
        let mut to_weave: Vec<String> = Vec::new();
        let mut raw_refreshed = 0usize;
        for path in &touched {
            // Drop whatever the previous weave produced for this source,
            // then mirror what a full weave would emit for its new state:
            // data documents become woven pages, raw resources pass
            // through (media type preserved, exactly as the full weave's
            // passthrough does), anything else vanishes from the output.
            site.remove_shared(path);
            if let Some(page) = data_to_page(path) {
                site.remove_shared(&page);
            }
            match next.get_shared(path) {
                None => {}
                Some(res) => match **res {
                    Resource::Document { .. } => {
                        if data_to_page(path).is_some() {
                            to_weave.push(path.clone());
                        }
                    }
                    Resource::Raw { .. } => {
                        raw_refreshed += 1;
                        site.put_shared(path.as_str(), Arc::clone(res));
                    }
                },
            }
        }
        // Compiles specs from the cache (pure hits — they did not change)
        // and re-checks only the locators into touched documents: every
        // other one resolved against the same document under the same
        // linkbase when the committed sources were checked.
        let pages_rewoven =
            weave_pages_cached(next, &self.cache, &to_weave, &touched, &mut site)?.len();
        // Reused = output entries this commit did not write: neither woven
        // from an edited data document nor refreshed raw passthroughs.
        let pages_reused = site.len().saturating_sub(pages_rewoven + raw_refreshed);
        Ok((site, pages_rewoven, pages_reused))
    }

    fn commit_inner(&mut self, audit_roots: Option<&[&str]>) -> Result<PublishOutcome, CoreError> {
        let spec_changed = self.staged.iter().any(Self::edits_spec);
        // A commit that weaves the whole site first frees the shards the
        // store has retired (typically the weave before the last one), so
        // they are not alive beside the new site at its peak. Freeing them
        // here, before the spec work rather than just before the page
        // weave, lets that work absorb the allocator's bookkeeping for the
        // freed memory; the pages then weave into settled memory.
        if spec_changed || self.last_woven.is_none() {
            self.store.free_retired();
        }
        // Work on a copy so a failed weave/audit leaves the committed
        // sources (and the staged batch) intact.
        let mut next = self.sources.clone();
        for edit in &self.staged {
            edit.apply(&mut next);
        }
        // The pre-weave gate: dangling locators are named from the sources
        // directly, before any transform or weave work is spent.
        if audit_roots.is_some() {
            let report = lint_sources(&next);
            if report.has_errors() {
                return Err(CoreError::SourceLint(report));
            }
        }
        // A spec edit supersedes its cached compilation; drop the whole
        // cache before the weave so a long-lived publisher holds only the
        // live spec set, not every historical version. (On weave failure
        // the cache re-primes on the next commit — a correctness no-op.)
        if spec_changed {
            self.cache.clear();
        }
        // The weave + store publish run inside the retry loop, with a
        // `catch_unwind` so an injected (or organic) panic becomes a
        // retriable [`CoreError::WorkerPanic`] instead of tearing down the
        // caller. Every attempt starts from the same immutable `next`;
        // `self` is only mutated after the whole attempt succeeds, so a
        // retried commit is indistinguishable from a first-try one.
        let retry = self.retry;
        let faults = self.faults.clone();
        let ((woven_site, pages_rewoven, pages_reused, store_publish), retries) = retry
            .run_counted(|| {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    fault::fire(
                        faults.as_deref(),
                        fault::sites::WEAVE_PAGE,
                        "publisher.commit",
                    )
                    .map_err(CoreError::from)?;
                    let (woven_site, pages_rewoven, pages_reused) = match &self.last_woven {
                        // Data/raw-only batches reweave O(K): every
                        // untouched page is the previous weave's `Arc`,
                        // memoized content hash included.
                        Some(prev) if !spec_changed => self.incremental_weave(&next, prev)?,
                        // First commit, or a spec changed: any page may
                        // differ — weave the whole site.
                        _ => {
                            let woven = Weave {
                                cache: Some(&self.cache),
                                ..Weave::default()
                            }
                            .run(&next)?;
                            let pages_rewoven = woven.reports.len();
                            (woven.site, pages_rewoven, 0)
                        }
                    };
                    if let Some(roots) = audit_roots {
                        let report = audit_site(&woven_site, roots);
                        if !report.is_clean() {
                            return Err(CoreError::Audit(report));
                        }
                    }
                    let store_publish = self
                        .store
                        .try_publish_incremental(&woven_site)
                        .map_err(CoreError::from)?;
                    Ok((woven_site, pages_rewoven, pages_reused, store_publish))
                }));
                match attempt {
                    Ok(result) => result,
                    Err(payload) => Err(CoreError::WorkerPanic {
                        path: "<commit>".to_string(),
                        message: panic_message(payload.as_ref()),
                    }),
                }
            })?;
        let edits_applied = self.staged.len();
        self.staged.clear();
        self.sources = next;
        let resources_published = woven_site.len();
        self.last_woven = Some(woven_site);
        Ok(PublishOutcome {
            generation: store_publish.generation,
            edits_applied,
            resources_published,
            pages_rewoven,
            pages_reused,
            store_publish,
            retries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LINKBASE_PATH;
    use crate::museum::{museum_navigation, paper_museum};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    fn publisher(access: AccessStructureKind) -> (SitePublisher, Arc<ShardedSiteStore>) {
        let sources =
            separated_sources(&paper_museum(), &museum_navigation(), &paper_spec(access)).unwrap();
        let store = Arc::new(ShardedSiteStore::new(8));
        (SitePublisher::new(sources, Arc::clone(&store)), store)
    }

    #[test]
    fn batch_of_edits_is_one_generation() {
        let (mut p, store) = publisher(AccessStructureKind::Index);
        assert_eq!(p.commit().unwrap().generation, 1);
        p.stage(SourceEdit::put_raw("museum.css", "/* a */"))
            .stage(SourceEdit::put_raw("museum.css", "/* b */"))
            .stage(SourceEdit::put_raw("museum.css", "/* c */"));
        assert_eq!(p.staged_len(), 3);
        let outcome = p.commit().unwrap();
        assert_eq!(outcome.edits_applied, 3);
        assert_eq!(outcome.generation, 2);
        assert_eq!(store.generation(), 2, "three edits, ONE swap");
        assert_eq!(p.staged_len(), 0);
        // Last write wins within the batch.
        let css = store.get("museum.css").unwrap();
        assert!(String::from_utf8_lossy(&css.resource().to_bytes()).contains("/* c */"));
    }

    #[test]
    fn reweave_via_linkbase_edit_keeps_content_identical() {
        // The paper's claim, through the publisher: swapping the access
        // structure is ONE staged edit; data pages change only in their
        // navigation.
        let (mut p, store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        let igt_sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let new_links = igt_sources.get(LINKBASE_PATH).unwrap().document().unwrap();
        p.stage(SourceEdit::put_document(LINKBASE_PATH, new_links.clone()));
        let outcome = p.commit().unwrap();
        assert_eq!(outcome.generation, 2);
        let guitar = store.get("guitar.html").unwrap();
        let body = String::from_utf8_lossy(&guitar.resource().to_bytes()).into_owned();
        assert!(body.contains("rel=\"next\""), "tour arcs appear: {body}");
        assert_eq!(guitar.generation(), 2);
    }

    #[test]
    fn failed_commit_leaves_everything_staged_and_unpublished() {
        let (mut p, store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        p.stage(SourceEdit::remove(LINKBASE_PATH));
        assert!(p.commit().is_err());
        assert_eq!(store.generation(), 1, "failed weave must not publish");
        assert_eq!(p.staged_len(), 1, "batch stays staged for correction");
        assert!(p.sources().get(LINKBASE_PATH).is_some());
        // Fix the batch by staging the linkbase back on top.
        let links = p
            .sources()
            .get(LINKBASE_PATH)
            .unwrap()
            .document()
            .unwrap()
            .clone();
        p.stage(SourceEdit::put_document(LINKBASE_PATH, links));
        assert_eq!(p.commit().unwrap().generation, 2);
    }

    #[test]
    fn audited_commit_gates_on_findings() {
        let (mut p, store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        // Removing a painting's data document breaks locator resolution at
        // weave time, so break navigation more subtly: stage a page-level
        // orphan (a raw text no page links to is fine, so use a bogus root).
        let err = p.commit_audited(&["no-such-root.html"]).unwrap_err();
        match err {
            CoreError::Audit(report) => assert!(!report.is_clean()),
            other => panic!("expected audit rejection, got {other}"),
        }
        assert_eq!(store.generation(), 1);
        // With honest roots the same batch goes live.
        let outcome = p.commit_audited(&["picasso.html", "braque.html"]).unwrap();
        assert_eq!(outcome.generation, 2);
    }

    #[test]
    fn spec_edits_do_not_grow_the_cache() {
        // A publisher that churns its linkbase forever must hold only the
        // live compiled set, not every historical version.
        let (mut p, _store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        let live = p.cache().entries();
        for access in [
            AccessStructureKind::IndexedGuidedTour,
            AccessStructureKind::GuidedTour,
            AccessStructureKind::Index,
        ] {
            let sources =
                separated_sources(&paper_museum(), &museum_navigation(), &paper_spec(access))
                    .unwrap();
            let links = sources.get(LINKBASE_PATH).unwrap().document().unwrap();
            p.stage(SourceEdit::put_document(LINKBASE_PATH, links.clone()));
            p.commit().unwrap();
            assert_eq!(p.cache().entries(), live, "cache must stay bounded");
        }
    }

    #[test]
    fn commits_make_session_history_stale_until_revalidated() {
        // The reweave-awareness policy end to end: a session's history
        // entry records the generation that served it; a publisher commit
        // that *changes the page* supersedes it; the conditional-navigation
        // check detects and repairs it.
        use navsep_web::{Freshness, NavigationSession, ShardedSiteHandler};
        use navsep_xml::Document;

        let (mut p, store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        let mut session = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
        session.visit("picasso.html").unwrap();
        session.follow("Guitar").unwrap();
        assert_eq!(session.history().stale_entries(store.generation()), 0);
        assert_eq!(session.revalidate().unwrap(), Freshness::Fresh);

        p.stage(SourceEdit::put_document(
            "guitar.xml",
            Document::parse(
                r#"<painting id="guitar"><title>The Guitar (retitled)</title><year>1913</year></painting>"#,
            )
            .unwrap(),
        ));
        p.commit().unwrap();
        assert_eq!(
            session.history().stale_entries(store.generation()),
            2,
            "both recorded entries predate the reweave (conservative count)"
        );
        assert_eq!(
            session.revalidate().unwrap(),
            Freshness::Stale {
                recorded: 1,
                current: 2
            }
        );
        // Revalidation refreshed the active entry (the other stays stale
        // by the conservative history-side count).
        assert_eq!(session.history().stale_entries(store.generation()), 1);
        assert_eq!(session.current_generation(), Some(2));
    }

    #[test]
    fn untouched_pages_stay_fresh_under_incremental_commits() {
        // The precise half of the staleness story: an incremental commit
        // that never touches a page leaves its shard stamp alone, so the
        // server-side conditional check answers "fresh" — the user's copy
        // of the page really is still current, even though the global
        // generation moved on.
        use navsep_web::{Freshness, NavigationSession, ShardedSiteHandler};

        let (mut p, store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        let mut session = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
        session.visit("picasso.html").unwrap();
        p.stage(SourceEdit::put_raw("museum.css", "/* restyle */"));
        p.commit().unwrap();
        assert_eq!(store.generation(), 2);
        // The conservative history-side count flags the entry…
        assert_eq!(session.history().stale_entries(store.generation()), 1);
        // …but the precise server-side check knows the page is unchanged.
        assert_eq!(session.revalidate().unwrap(), Freshness::Fresh);
    }

    #[test]
    fn data_edit_commits_reweave_only_the_edited_pages() {
        use navsep_xml::Document;

        let (mut p, store) = publisher(AccessStructureKind::IndexedGuidedTour);
        let first = p.commit().unwrap();
        assert!(first.pages_rewoven > 1, "first commit weaves everything");
        assert_eq!(first.pages_reused, 0);

        p.stage(SourceEdit::put_document(
            "guitar.xml",
            Document::parse(
                r#"<painting id="guitar"><title>The Guitar (1913)</title><year>1913</year></painting>"#,
            )
            .unwrap(),
        ));
        let outcome = p.commit().unwrap();
        assert_eq!(outcome.pages_rewoven, 1, "one data edit, one page woven");
        assert!(outcome.pages_reused >= 6);
        // The store saw the same O(K): one page rendered, the rest reused.
        assert_eq!(outcome.store_publish.pages_rendered, 1);
        assert!(outcome.store_publish.shards_skipped > 0);
        // And the edit is live.
        let body = store.get("guitar.html").unwrap().body();
        assert!(String::from_utf8_lossy(&body).contains("The Guitar (1913)"));
        // Pages in untouched shards keep their original stamp; the old
        // epoch is still servable.
        let kept: Vec<String> = store
            .paths()
            .into_iter()
            .filter(|p| store.get(p).unwrap().generation() == 1)
            .collect();
        assert!(!kept.is_empty(), "skipped shards keep their stamp");
        let old = store.get_at("guitar.html", 1).unwrap();
        assert!(!String::from_utf8_lossy(&old.body()).contains("(1913)"));
    }

    #[test]
    fn incremental_commit_equals_full_weave() {
        use crate::equiv::assert_site_equivalent;
        use navsep_xml::Document;

        // Drive the same edit script through an incremental publisher and
        // a from-scratch weave; the served sites must be equivalent.
        let (mut p, store) = publisher(AccessStructureKind::IndexedGuidedTour);
        p.commit().unwrap();
        let edits = [
            (
                "guitar.xml",
                r#"<painting id="guitar"><title>Guitar v2</title><year>1913</year></painting>"#,
            ),
            (
                "avignon.xml",
                r#"<painting id="avignon"><title>Avignon v2</title><year>1907</year></painting>"#,
            ),
        ];
        for (path, xml) in edits {
            p.stage(SourceEdit::put_document(
                path,
                Document::parse(xml).unwrap(),
            ));
            p.commit().unwrap();
        }
        p.stage(SourceEdit::put_raw("museum.css", "/* v2 */"))
            .stage(SourceEdit::remove("avignon.xml"));
        // Removing avignon.xml dangles its locator: the commit must fail
        // exactly as a full weave would, leaving the batch staged.
        assert!(p.commit().is_err());
        assert_eq!(p.staged_len(), 2);
        p.stage(SourceEdit::put_document(
            "avignon.xml",
            Document::parse(edits[1].1).unwrap(),
        ));
        p.commit().unwrap();

        let full = crate::pipeline::weave_separated(p.sources()).unwrap();
        assert_site_equivalent(&full.site, &store.to_site()).unwrap();
    }

    #[test]
    fn spec_edit_falls_back_to_full_weave() {
        let (mut p, _store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        let igt_sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let links = igt_sources.get(LINKBASE_PATH).unwrap().document().unwrap();
        p.stage(SourceEdit::put_document(LINKBASE_PATH, links.clone()));
        let outcome = p.commit().unwrap();
        assert!(
            outcome.pages_rewoven > 1,
            "a linkbase edit may touch any page: {outcome:?}"
        );
        assert_eq!(outcome.pages_reused, 0);
    }

    #[test]
    fn audited_commit_lints_sources_before_weaving() {
        use crate::lint::SourceLintFinding;

        let (mut p, store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        // Remove a data document the linkbase still points at: the
        // pre-weave lint names the dangling locator without weaving.
        p.stage(SourceEdit::remove("guitar.xml"));
        let err = p
            .commit_audited(&["picasso.html", "braque.html"])
            .unwrap_err();
        match err {
            CoreError::SourceLint(report) => {
                assert!(report.has_errors());
                assert!(report.errors().any(|f| matches!(
                    f,
                    SourceLintFinding::DanglingLocator { target, .. } if target == "guitar.xml"
                )));
            }
            other => panic!("expected source-lint rejection, got {other}"),
        }
        assert_eq!(store.generation(), 1, "nothing published");
        assert_eq!(p.staged_len(), 1, "batch stays staged");
        // The publisher's pre-flight lint reports the same thing.
        assert!(p.lint().has_errors());
    }

    #[test]
    fn cache_is_reused_across_commits() {
        let (mut p, _store) = publisher(AccessStructureKind::Index);
        p.commit().unwrap();
        let misses_after_first = p.cache().misses();
        p.stage(SourceEdit::put_raw("museum.css", "/* restyle */"));
        p.commit().unwrap();
        // CSS edits touch no spec: the reweave compiles nothing new.
        assert_eq!(p.cache().misses(), misses_after_first);
        assert!(p.cache().hits() >= 3);
    }
}
