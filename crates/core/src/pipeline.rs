//! The separation pipeline — the paper's Figure 6 made executable.
//!
//! ```text
//!   data (*.xml)      presentation (transform.xml + museum.css)
//!        \                   /
//!         base pages (transform)          navigation (links.xml)
//!                  \                            /
//!                   ASPECT WEAVER  (navsep-aspect)
//!                            |
//!                      the web application
//! ```
//!
//! Input is *only* the separated authoring produced by
//! [`crate::separated::separated_sources`] (or hand-written files of the
//! same shape); output is a served site that experiment F6 proves
//! DOM-equivalent to the tangled baseline.

use crate::error::CoreError;
use crate::fault::{self, FaultPlan};
use crate::fragments::{index_list, nav_block, IndexItem, NavAnchor};
use crate::layout::{data_to_page, is_spec_path, ASPECTS_PATH, LINKBASE_PATH, TRANSFORM_PATH};
use navsep_aspect::{
    AdvicePosition, Aspect, AspectCache, CompiledWeaver, Pointcut, SpecCache, WeaveReport, Weaver,
};
use navsep_hypermodel::NavLinkKind;
use navsep_style::Transform;
use navsep_web::{Resource, Site};
use navsep_xlink::{Endpoint, Linkbase, ResolvedEndpoint, Resolver, Traversal, XLinkError};
use navsep_xml::{fnv1a64, ElementBuilder};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Renders a `catch_unwind` payload for [`CoreError::WorkerPanic`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The navigation destined for one page, accumulated from the linkbase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageNav {
    /// Index entries (only group/entry pages have these).
    pub index_items: Vec<IndexItem>,
    /// Traversal anchors, in linkbase order (canonically sorted at render).
    pub anchors: Vec<NavAnchor>,
}

impl PageNav {
    /// Renders this page's navigation fragments: the index list (if any)
    /// followed by one `<div class="navigation">` per context.
    pub fn fragments(&self) -> Vec<ElementBuilder> {
        let mut out = Vec::new();
        if !self.index_items.is_empty() {
            out.push(index_list(&self.index_items));
        }
        // Group anchors by context, preserving first-appearance order.
        let mut order: Vec<&str> = Vec::new();
        for a in &self.anchors {
            if !order.contains(&a.context.as_str()) {
                order.push(&a.context);
            }
        }
        for ctx in order {
            let group: Vec<NavAnchor> = self
                .anchors
                .iter()
                .filter(|a| a.context == ctx)
                .cloned()
                .collect();
            out.push(nav_block(&group));
        }
        out
    }
}

/// The result of weaving: the final site plus per-page weave reports.
#[derive(Debug)]
pub struct WovenOutput {
    /// The served site (pages + passthrough raw resources).
    pub site: Site,
    /// One report per woven page.
    pub reports: Vec<WeaveReport>,
}

/// Derives the per-page navigation map from a linkbase.
///
/// Walks extended links (one per navigational context — the `xlink:role`
/// carries the context name), expands their arcs, and turns each traversal
/// into an index item or navigation anchor on its *starting* page.
///
/// # Errors
///
/// Rejects linkbases whose extended links lack a role, whose locators do not
/// address data documents, or whose arcroles aren't navsep navigation roles.
pub fn navigation_map(linkbase: &Linkbase) -> Result<BTreeMap<String, PageNav>, CoreError> {
    expand(linkbase).map(|(map, _)| map)
}

/// Expands `linkbase` in one pass into its [`navigation_map`] and its
/// traversal list: the traversals of [`Linkbase::traversals`], in the same
/// order, with every endpoint resolved against the linkbase's path.
fn expand(linkbase: &Linkbase) -> Result<(BTreeMap<String, PageNav>, Vec<Traversal>), CoreError> {
    let mut map: BTreeMap<String, PageNav> = BTreeMap::new();
    let mut traversals = Vec::new();
    for link in linkbase.extended_links() {
        let context = link.role.clone().ok_or_else(|| {
            CoreError::Pipeline("extended link missing xlink:role (the context name)".to_string())
        })?;
        for mut t in link.traversals().map_err(CoreError::XLink)? {
            let from_page = locator_page(&mut t.from, linkbase.path())?;
            let to_page = locator_page(&mut t.to, linkbase.path())?;
            let kind = t
                .arcrole
                .as_deref()
                .and_then(NavLinkKind::from_arcrole)
                .ok_or_else(|| {
                    CoreError::Pipeline(format!(
                        "arcrole {:?} is not a navsep navigation role",
                        t.arcrole
                    ))
                })?;
            let entry = map.entry(from_page).or_default();
            match kind {
                NavLinkKind::IndexEntry => {
                    let label = t
                        .title
                        .clone()
                        .unwrap_or_else(|| to_page.trim_end_matches(".html").to_string());
                    entry.index_items.push((to_page, label, context.clone()));
                }
                other => {
                    let label = t
                        .title
                        .clone()
                        .unwrap_or_else(|| other.default_label().to_string());
                    entry.anchors.push(NavAnchor {
                        rel: crate::fragments::rel_of(other),
                        href: to_page,
                        label,
                        context: context.clone(),
                    });
                }
            }
            traversals.push(t);
        }
    }
    Ok((map, traversals))
}

/// Resolves a locator endpoint against the linkbase path `base`, in place,
/// and returns the path of the page its data document becomes.
fn locator_page(endpoint: &mut Endpoint, base: &str) -> Result<String, CoreError> {
    match endpoint {
        Endpoint::Remote(href) => {
            let resolved = href.resolve_against(base);
            let page = data_to_page(resolved.document()).ok_or_else(|| {
                CoreError::Pipeline(format!(
                    "locator href {:?} does not address a data document",
                    href.to_string()
                ))
            })?;
            *href = resolved;
            Ok(page)
        }
        Endpoint::Local(_) => Err(CoreError::Pipeline(
            "navsep linkbases use locators, not local resources".to_string(),
        )),
    }
}

/// Builds the navigation aspect from a per-page navigation map.
///
/// One aspect, one rule: at every page `<body>`, append that page's
/// navigation fragments. This *is* the paper's navigational aspect.
pub fn navigation_aspect(map: BTreeMap<String, PageNav>) -> Aspect {
    navigation_aspect_shared(Arc::new(map))
}

/// Like [`navigation_aspect`], but over a shared (e.g. cached) map, so a
/// reweave does not re-expand the linkbase.
///
/// The rule is *page-generated*: its content depends only on which page is
/// being woven, never on the page's contents.
pub fn navigation_aspect_shared(map: Arc<BTreeMap<String, PageNav>>) -> Aspect {
    Aspect::new("navigation").page_generated_rule(
        Pointcut::Element("body".to_string()),
        AdvicePosition::Append,
        move |page| map.get(page).map(PageNav::fragments).unwrap_or_default(),
    )
}

/// Caches the compiled form of every spec the pipeline consumes, keyed by
/// spec content hash, so repeated weaves of unchanged specs skip parsing
/// and compilation entirely:
///
/// * `transform.xml` → a compiled [`Transform`];
/// * `links.xml` → the linkbase expanded once into the per-page navigation
///   map and the traversal list, indexed by the documents its endpoints
///   address. Every locator check walks that list: the full weave, which
///   resolves all of it, and the incremental commits after it, which
///   resolve only the traversals the index names for the edited documents;
/// * `aspects.xml` → parsed [`Aspect`]s (via [`AspectCache`]);
/// * the (linkbase, aspects) pair → the fully [`CompiledWeaver`], with
///   every rule pointcut pre-analyzed into its index candidate plan, so a
///   steady-state reweave goes straight to candidate resolution.
///
/// An uncached [`Weave`] compiles through a cache of its own that lives
/// for that weave only, so cached and uncached weaves run the same code.
///
/// Locator resolution against the data set is deliberately **not** cached:
/// it depends on the data documents, which may change between weaves even
/// when the linkbase does not.
///
/// [`hits`](Self::hits) and [`misses`](Self::misses) count lookups of
/// every kind above.
///
/// # Examples
///
/// ```
/// use navsep_core::museum::{museum_navigation, paper_museum};
/// use navsep_core::pipeline::{Weave, WeaveCache};
/// use navsep_core::separated::separated_sources;
/// use navsep_core::spec::paper_spec;
/// use navsep_hypermodel::AccessStructureKind;
///
/// let sources = separated_sources(
///     &paper_museum(),
///     &museum_navigation(),
///     &paper_spec(AccessStructureKind::Index),
/// )?;
/// let cache = WeaveCache::new();
/// let cached = Weave { cache: Some(&cache), ..Weave::default() };
/// let first = cached.run(&sources)?;   // compiles specs
/// let again = cached.run(&sources)?;   // pure cache hits
/// assert_eq!(first.site.len(), again.site.len());
/// assert_eq!(cache.hits(), 3); // transform, linkbase, compiled weaver
/// # Ok::<(), navsep_core::CoreError>(())
/// ```
#[derive(Debug, Default)]
pub struct WeaveCache {
    transforms: SpecCache<Transform>,
    linkbases: SpecCache<ExpandedLinkbase>,
    aspects: AspectCache,
    weavers: SpecCache<CompiledWeaver>,
}

impl WeaveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups that found a compiled spec.
    pub fn hits(&self) -> u64 {
        self.transforms.hits() + self.linkbases.hits() + self.aspects.hits() + self.weavers.hits()
    }

    /// Total lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.transforms.misses()
            + self.linkbases.misses()
            + self.aspects.misses()
            + self.weavers.misses()
    }

    /// Total compiled specs currently held, across all kinds. The cache
    /// never evicts on its own, so long-lived spec churners should watch
    /// this (or [`clear`](Self::clear) when a spec changes, as
    /// [`crate::publish::SitePublisher`] does).
    pub fn entries(&self) -> usize {
        self.transforms.len() + self.linkbases.len() + self.aspects.len() + self.weavers.len()
    }

    /// The expanded `links.xml` held for `links_doc`, parsed and expanded
    /// on a miss.
    pub(crate) fn linkbase(
        &self,
        links_doc: &navsep_xml::Document,
    ) -> Result<Arc<ExpandedLinkbase>, CoreError> {
        self.linkbases
            .get_or_try_insert(links_doc.content_hash(), || {
                ExpandedLinkbase::new(links_doc)
            })
    }

    /// Drops all cached compilations (counters are kept).
    pub fn clear(&self) {
        self.transforms.clear();
        self.linkbases.clear();
        self.aspects.clear();
        self.weavers.clear();
    }
}

/// The compiled specs one weave runs with, pulled from a [`WeaveCache`].
struct CompiledSpecs<'c> {
    cache: &'c WeaveCache,
    transform: Arc<Transform>,
    linkbase: Arc<ExpandedLinkbase>,
    site_aspects: Arc<Vec<Aspect>>,
    /// The cache key of the compiled weaver for (navigation aspect + site
    /// aspects).
    weaver_key: u64,
}

impl CompiledSpecs<'_> {
    /// The compiled weaver for these specs plus `extra` aspects: the cached
    /// one when there are no extras, a fresh compile otherwise. It is
    /// fetched only here, so a weave with extras compiles one weaver.
    fn weaver_with(&self, extra: &[Aspect]) -> Arc<CompiledWeaver> {
        let compile = || compile_weaver(&self.linkbase.nav_map, &self.site_aspects, extra);
        if !extra.is_empty() {
            return Arc::new(compile());
        }
        let Ok(weaver) = self
            .cache
            .weavers
            .get_or_try_insert(self.weaver_key, || Ok::<_, Infallible>(compile()));
        weaver
    }
}

/// Compiles the navigation aspect, the site-defined aspects and `extra`,
/// in that registration order.
fn compile_weaver(
    nav_map: &Arc<BTreeMap<String, PageNav>>,
    site_aspects: &[Aspect],
    extra: &[Aspect],
) -> CompiledWeaver {
    let mut weaver = Weaver::new().aspect(navigation_aspect_shared(Arc::clone(nav_map)));
    for a in site_aspects.iter().chain(extra) {
        weaver.add_aspect(a.clone());
    }
    weaver.compile()
}

/// Fetches (compiling on a miss) every spec in `sources` from `cache`, then
/// validates locator resolution against the current data set: every
/// locator, or — given the `touched` source paths — only those a batch
/// touching exactly those paths can have broken (see
/// [`ExpandedLinkbase::resolve_locators`]).
fn compile_specs<'c>(
    sources: &Site,
    cache: &'c WeaveCache,
    touched: Option<&BTreeSet<String>>,
) -> Result<CompiledSpecs<'c>, CoreError> {
    let transform_doc = sources
        .get(TRANSFORM_PATH)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {TRANSFORM_PATH}")))?;
    let links_doc = sources
        .get(LINKBASE_PATH)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {LINKBASE_PATH}")))?;

    // `content_hash` is memoized on the documents themselves, so a
    // steady-state reweave looks both keys up without serializing (let
    // alone re-hashing) either spec.
    let transform = cache
        .transforms
        .get_or_try_insert(transform_doc.content_hash(), || {
            Transform::from_document(transform_doc).map_err(CoreError::Template)
        })?;
    let linkbase = cache.linkbase(links_doc)?;

    // Validate locators against the *current* data set before weaving —
    // never cached; the data may have changed under a cached linkbase.
    if let Some(error) = linkbase
        .resolve_locators(sources, touched)
        .find_map(|(_, resolved)| resolved.err())
    {
        return Err(error.into());
    }

    // Site-defined aspects (paper §7 future work): aspects.xml, if present,
    // contributes further concerns to the weave.
    let aspects_doc = sources.get(ASPECTS_PATH).and_then(Resource::document);
    let site_aspects = match aspects_doc {
        Some(doc) => cache
            .aspects
            .get_or_parse(doc)
            .map_err(|e| CoreError::Pipeline(format!("bad {ASPECTS_PATH}: {e}")))?,
        None => Arc::new(Vec::new()),
    };

    // The compiled weaver is a function of the linkbase (navigation aspect)
    // and aspects.xml, so its cache key is derived from both content hashes
    // (with a marker distinguishing "no aspects.xml" from any hash value).
    let aspects_key = aspects_doc.map(navsep_xml::Document::content_hash);
    let mut key_bytes = Vec::with_capacity(17);
    key_bytes.extend_from_slice(&links_doc.content_hash().to_le_bytes());
    key_bytes.extend_from_slice(&aspects_key.unwrap_or(0).to_le_bytes());
    key_bytes.push(u8::from(aspects_key.is_some()));

    Ok(CompiledSpecs {
        cache,
        transform,
        linkbase,
        site_aspects,
        weaver_key: fnv1a64(&key_bytes),
    })
}

/// The site path a remote endpoint's document lives at, as
/// [`Resolver::resolve_endpoint`] looks it up (no leading `/`, the stored
/// form of a [`Site`] path).
fn endpoint_document(endpoint: &Endpoint) -> Option<&str> {
    match endpoint {
        Endpoint::Remote(href) if href.is_same_document() => Some(LINKBASE_PATH),
        Endpoint::Remote(href) => Some(href.document().trim_start_matches('/')),
        Endpoint::Local(_) => None,
    }
}

/// A `links.xml` expanded once, as the [`WeaveCache`] holds it: the
/// per-page navigation map the navigation aspect renders, and the
/// traversal list every locator check walks, with the positions in it of
/// the traversals that have an endpoint in each document.
#[derive(Debug)]
pub(crate) struct ExpandedLinkbase {
    nav_map: Arc<BTreeMap<String, PageNav>>,
    traversals: Vec<Traversal>,
    /// Document path → ascending positions in `traversals`.
    by_document: HashMap<String, Vec<usize>>,
}

impl ExpandedLinkbase {
    /// Parses `links_doc` as the linkbase at [`LINKBASE_PATH`] and expands
    /// it (see [`navigation_map`]).
    fn new(links_doc: &navsep_xml::Document) -> Result<Self, CoreError> {
        let linkbase = Linkbase::from_document(links_doc, LINKBASE_PATH)?;
        let (nav_map, traversals) = expand(&linkbase)?;
        let mut by_document: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, t) in traversals.iter().enumerate() {
            for doc in [&t.from, &t.to].into_iter().filter_map(endpoint_document) {
                let positions = by_document.entry(doc.to_string()).or_default();
                if positions.last() != Some(&i) {
                    positions.push(i);
                }
            }
        }
        Ok(ExpandedLinkbase {
            nav_map: Arc::new(nav_map),
            traversals,
            by_document,
        })
    }

    /// Resolves the endpoints of this linkbase's traversals against
    /// `sources`, in traversal order, `from` before `to`, yielding each
    /// endpoint with its resolution — the one locator check. The weave
    /// stops at the first failure; [`crate::lint::lint_sources`] collects
    /// them all.
    ///
    /// `touched: None` resolves every traversal, exactly the endpoints
    /// [`Resolver::resolve`] resolves, in the same order, so the first error
    /// is the same. `Some(touched)` resolves only the traversals with an
    /// endpoint in a touched document — the check of an incremental commit,
    /// whose positions the index names — under a precondition: this
    /// linkbase already passed the check against `sources` as they were
    /// before the `touched` paths were edited (a full check, or a touched
    /// check chained back to one). Every skipped endpoint was then resolved
    /// against the same document under the same linkbase, so the full check
    /// could fail only at a touched traversal, and walking those in list
    /// order meets the same first error.
    pub(crate) fn resolve_locators<'a>(
        &'a self,
        sources: &'a Site,
        touched: Option<&BTreeSet<String>>,
    ) -> impl Iterator<Item = (&'a Endpoint, Result<ResolvedEndpoint, XLinkError>)> + 'a {
        let walked: Box<dyn Iterator<Item = &Traversal>> = match touched {
            None => Box::new(self.traversals.iter()),
            Some(touched) => {
                let mut positions: Vec<usize> = touched
                    .iter()
                    .filter_map(|doc| self.by_document.get(doc))
                    .flatten()
                    .copied()
                    .collect();
                positions.sort_unstable();
                positions.dedup();
                Box::new(positions.into_iter().map(|i| &self.traversals[i]))
            }
        };
        let resolver = Resolver::new(sources, LINKBASE_PATH);
        walked
            .flat_map(|t| [&t.from, &t.to])
            .map(move |endpoint| (endpoint, resolver.resolve_endpoint(endpoint)))
    }
}

/// Passes the raw resources of `sources` (the CSS) through to `site`,
/// shared rather than copied, media type and all.
fn pass_raw_through(sources: &Site, site: &mut Site) {
    for (path, res) in sources.iter_shared() {
        if let Resource::Raw { .. } = **res {
            site.put_shared(path, Arc::clone(res));
        }
    }
}

/// Runs the full pipeline: separated sources in, woven site out — the
/// sequential, uncached [`Weave::default`].
///
/// # Errors
///
/// * [`CoreError::Pipeline`] when `transform.xml` or `links.xml` is missing
///   or a locator points outside the data set;
/// * template, XLink, and weave errors from the respective stages.
pub fn weave_separated(sources: &Site) -> Result<WovenOutput, CoreError> {
    Weave::default().run(sources)
}

/// How one weave runs: which aspects join the navigation aspect, which
/// cache supplies compiled specs, how many threads weave, and which faults
/// are injected. [`Weave::default`] is what [`weave_separated`] runs: no
/// extra aspects, no cache, one worker, no faults.
///
/// Every setting changes only the cost, never the result: the woven bytes,
/// the reports, and the error of a failing weave are the same for every
/// cache and worker count (the executor laws in `tests/executor_laws.rs`).
///
/// # Examples
///
/// ```
/// use navsep_core::museum::{museum_navigation, paper_museum};
/// use navsep_core::pipeline::{weave_separated, Weave, WeaveCache};
/// use navsep_core::separated::separated_sources;
/// use navsep_core::spec::paper_spec;
/// use navsep_hypermodel::AccessStructureKind;
/// use std::num::NonZeroUsize;
///
/// let sources = separated_sources(
///     &paper_museum(),
///     &museum_navigation(),
///     &paper_spec(AccessStructureKind::Index),
/// )?;
/// let cache = WeaveCache::new();
/// let woven = Weave {
///     cache: Some(&cache),
///     workers: NonZeroUsize::new(2).unwrap(),
///     ..Weave::default()
/// }
/// .run(&sources)?;
/// let plain = weave_separated(&sources)?;
/// assert_eq!(
///     woven.site.get("guitar.html").unwrap().to_bytes(),
///     plain.site.get("guitar.html").unwrap().to_bytes(),
/// );
/// # Ok::<(), navsep_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Weave<'a> {
    /// Aspects composed after the navigation aspect and `aspects.xml`
    /// (e.g. a banner or audit concern). A non-empty list compiles a fresh
    /// weaver; the cached one covers only the site's own aspect set.
    pub aspects: &'a [Aspect],
    /// Where compiled specs (transform, expanded linkbase, aspects,
    /// compiled weaver) are fetched from and stored into; `None` compiles
    /// them into a cache that is dropped with the weave.
    pub cache: Option<&'a WeaveCache>,
    /// Threads that transform and weave pages, the calling thread
    /// included.
    pub workers: NonZeroUsize,
    /// Consulted at [`fault::sites::WEAVE_PAGE`] once per page, keyed by
    /// the page path, before the page is transformed.
    pub faults: Option<&'a FaultPlan>,
}

impl Default for Weave<'_> {
    fn default() -> Self {
        Weave {
            aspects: &[],
            cache: None,
            workers: NonZeroUsize::MIN,
            faults: None,
        }
    }
}

impl Weave<'_> {
    /// Weaves `sources` into the served site: every data document is
    /// transformed into a base page and woven, raw resources (the CSS)
    /// pass through. Pages and reports come out in page-path order.
    ///
    /// # Errors
    ///
    /// See [`weave_separated`]. When pages fail, the error is the one of
    /// the first failing page in page-path order, whatever stage failed
    /// and whatever the worker count: a page panic becomes
    /// [`CoreError::WorkerPanic`], an injected fault [`CoreError::Fault`].
    pub fn run(&self, sources: &Site) -> Result<WovenOutput, CoreError> {
        let own_cache = WeaveCache::new();
        let specs = compile_specs(sources, self.cache.unwrap_or(&own_cache), None)?;
        let weaver = specs.weaver_with(self.aspects);
        let work = sources
            .iter()
            .filter(|(path, _)| !is_spec_path(path))
            .filter_map(|(path, res)| Some((data_to_page(path)?, res.document()?)))
            .collect();
        let mut site = Site::new();
        let reports = weave_pages(
            work,
            &specs.transform,
            &weaver,
            self.workers,
            self.faults,
            &mut site,
        )?;
        pass_raw_through(sources, &mut site);
        Ok(WovenOutput { site, reports })
    }
}

/// Weaves **only** the pages derived from `data_paths` (data-document
/// paths like `guitar.xml`) into `site`, fetching compiled specs from
/// `cache` — the page-level reweave behind
/// [`crate::publish::SitePublisher`]'s incremental commit path: a K-page
/// edit transforms and weaves K pages, not the whole site, through the same
/// executor as [`Weave::run`] at one worker. Returns the pages' reports in
/// page-path order.
///
/// Spec compilation behaves exactly as in a cached [`Weave`]. Locator
/// validation covers only the traversals with an endpoint in a `touched`
/// source path, under the precondition of
/// [`ExpandedLinkbase::resolve_locators`].
///
/// # Errors
///
/// As [`weave_separated`], plus [`CoreError::Pipeline`] when a requested
/// path is not a data document in `sources`.
pub(crate) fn weave_pages_cached(
    sources: &Site,
    cache: &WeaveCache,
    data_paths: &[String],
    touched: &BTreeSet<String>,
    site: &mut Site,
) -> Result<Vec<WeaveReport>, CoreError> {
    let specs = compile_specs(sources, cache, Some(touched))?;
    let work = data_paths
        .iter()
        .map(|path| {
            let page = data_to_page(path).ok_or_else(|| {
                CoreError::Pipeline(format!("{path:?} is not a data-document path"))
            })?;
            let doc = sources
                .get(path)
                .and_then(Resource::document)
                .ok_or_else(|| CoreError::Pipeline(format!("no data document at {path:?}")))?;
            Ok((page, doc))
        })
        .collect::<Result<_, CoreError>>()?;
    let weaver = specs.weaver_with(&[]);
    weave_pages(
        work,
        &specs.transform,
        &weaver,
        NonZeroUsize::MIN,
        None,
        site,
    )
}

/// The weave executor: transforms and weaves every `(page path, data
/// document)` in `work` on `workers` threads, stores the woven pages into
/// `site`, and returns their reports in page-path order.
///
/// The calling thread is worker 0; `workers - 1` scoped threads join it,
/// and each pulls the next page off one atomic cursor over the
/// path-sorted list. Every page runs under `catch_unwind` (see
/// [`weave_page_isolated`]), so a panicking page is that page's error and
/// no worker dies.
///
/// The error returned is the first failing page's in path order, whatever
/// the worker count or finish order. A failure stops every worker from
/// taking *new* pages, but the cursor hands pages out in path order, so
/// every page before the failing one was already taken and still finishes.
fn weave_pages(
    mut work: Vec<(String, &navsep_xml::Document)>,
    transform: &Transform,
    weaver: &CompiledWeaver,
    workers: NonZeroUsize,
    faults: Option<&FaultPlan>,
    site: &mut Site,
) -> Result<Vec<WeaveReport>, CoreError> {
    work.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    // `Relaxed` is enough: the cursor publishes no data (`work` is shared
    // read-only, results come back through `join`), and every operation on
    // it is ordered in its one modification order, which is all the
    // first-error argument above needs.
    let cursor = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some((page, doc)) = work.get(i) else {
                return done;
            };
            let result = weave_page_isolated(page, doc, transform, weaver, faults);
            if result.is_err() {
                cursor.fetch_max(work.len(), Ordering::Relaxed);
            }
            done.push((i, result));
        }
    };
    let mut results = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.get()).map(|_| scope.spawn(pull)).collect();
        let mut all = pull();
        for helper in helpers {
            // Pages panic inside `catch_unwind`; a helper itself cannot.
            all.extend(
                helper
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        all
    });
    results.sort_unstable_by_key(|(i, _)| *i);
    let mut reports = Vec::with_capacity(results.len());
    for (i, result) in results {
        let (doc, report) = result?;
        site.put_page(std::mem::take(&mut work[i].0), doc);
        reports.push(report);
    }
    Ok(reports)
}

/// Transforms and weaves one page with panic isolation: a panic anywhere in
/// the transform or weave (organic or injected) becomes
/// [`CoreError::WorkerPanic`] for this page instead of unwinding the
/// worker.
///
/// The woven page comes back compacted: the weaver leaves spare arena
/// capacity that retained epochs would otherwise keep alive.
fn weave_page_isolated(
    page_path: &str,
    data_doc: &navsep_xml::Document,
    transform: &Transform,
    weaver: &CompiledWeaver,
    faults: Option<&FaultPlan>,
) -> Result<(navsep_xml::Document, WeaveReport), CoreError> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        fault::fire(faults, fault::sites::WEAVE_PAGE, page_path).map_err(CoreError::from)?;
        let base = transform.apply(data_doc)?;
        let (mut woven, report) = weaver.weave_page(page_path, &base)?;
        woven.shrink_to_fit();
        Ok((woven, report))
    }));
    match attempt {
        Ok(result) => result,
        Err(payload) => Err(CoreError::WorkerPanic {
            path: page_path.to_string(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::museum::{museum_navigation, paper_museum};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    fn woven(access: AccessStructureKind) -> WovenOutput {
        let sources =
            separated_sources(&paper_museum(), &museum_navigation(), &paper_spec(access)).unwrap();
        weave_separated(&sources).unwrap()
    }

    fn cached(cache: &WeaveCache) -> Weave<'_> {
        Weave {
            cache: Some(cache),
            ..Weave::default()
        }
    }

    fn page_xml(out: &WovenOutput, path: &str) -> String {
        out.site
            .get(path)
            .unwrap()
            .document()
            .unwrap()
            .to_pretty_xml()
    }

    #[test]
    fn weaves_navigation_into_pages() {
        let out = woven(AccessStructureKind::IndexedGuidedTour);
        let guitar = page_xml(&out, "guitar.html");
        assert!(guitar.contains("<h1>Guitar</h1>"), "{guitar}");
        assert!(guitar.contains("rel=\"next\""), "{guitar}");
        assert!(guitar.contains("rel=\"up\""), "{guitar}");
        assert!(guitar.contains("guernica.html"), "{guitar}");
    }

    #[test]
    fn index_page_lists_members_in_context_order() {
        let out = woven(AccessStructureKind::Index);
        let picasso = page_xml(&out, "picasso.html");
        let guitar = picasso.find("guitar.html").unwrap();
        let guernica = picasso.find("guernica.html").unwrap();
        let avignon = picasso.find("avignon.html").unwrap();
        assert!(guitar < guernica && guernica < avignon, "{picasso}");
    }

    #[test]
    fn css_passes_through() {
        let out = woven(AccessStructureKind::Index);
        let css = out.site.get(crate::layout::CSS_PATH).unwrap();
        // Media type is preserved through the passthrough.
        assert_eq!(css.media_type(), navsep_web::MediaType::Css);
    }

    #[test]
    fn reports_cover_every_page() {
        let out = woven(AccessStructureKind::Index);
        // 6 pages (4 paintings + 2 painters).
        assert_eq!(out.reports.len(), 6);
        // Every page with navigation had exactly one application.
        for r in &out.reports {
            assert_eq!(r.applications(), 1, "{}", r.page);
        }
    }

    #[test]
    fn missing_linkbase_is_pipeline_error() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.remove(LINKBASE_PATH);
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::Pipeline(msg)) if msg.contains("links.xml")
        ));
    }

    #[test]
    fn dangling_locator_detected_before_weaving() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.remove("guitar.xml");
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::XLink(_))
        ));
    }

    #[test]
    fn extra_aspects_compose_with_navigation() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let banner = Aspect::new("banner").with_precedence(-1).rule(
            Pointcut::Element("body".into()),
            AdvicePosition::Prepend,
            vec![ElementBuilder::new("div")
                .attr("class", "banner")
                .text("Museum of navsep")],
        );
        let out = Weave {
            aspects: &[banner],
            ..Weave::default()
        }
        .run(&sources)
        .unwrap();
        let xml = page_xml(&out, "guitar.html");
        assert!(xml.contains("Museum of navsep"));
        // Banner prepended, navigation appended.
        let banner_pos = xml.find("banner").unwrap();
        let nav_pos = xml.find("navigation").unwrap();
        assert!(banner_pos < nav_pos);
    }

    #[test]
    fn cached_weave_equals_uncached() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let cache = WeaveCache::new();
        let uncached = weave_separated(&sources).unwrap();
        let first = cached(&cache).run(&sources).unwrap();
        let again = cached(&cache).run(&sources).unwrap();
        crate::equiv::assert_site_equivalent(&uncached.site, &first.site).unwrap();
        crate::equiv::assert_site_equivalent(&uncached.site, &again.site).unwrap();
        // First cached run compiles (transform + expanded linkbase +
        // compiled weaver), the second is pure hits.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cache_distinguishes_linkbases() {
        let store = paper_museum();
        let nav = museum_navigation();
        let cache = WeaveCache::new();
        let index =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        let igt = separated_sources(
            &store,
            &nav,
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let a = cached(&cache).run(&index).unwrap();
        let b = cached(&cache).run(&igt).unwrap();
        // Same transform (1 hit on the second weave); different linkbase
        // (fresh expanded-linkbase + weaver compilations, no poisoned
        // reuse).
        assert!(!crate::equiv::dom_equivalent(
            a.site.get("guitar.html").unwrap().document().unwrap(),
            b.site.get("guitar.html").unwrap().document().unwrap(),
        ));
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn cached_weave_still_validates_data_set() {
        // A cached linkbase must not skip locator validation: remove a data
        // document after priming the cache and the reweave must fail.
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let cache = WeaveCache::new();
        cached(&cache).run(&sources).unwrap();
        sources.remove("guitar.xml");
        assert!(matches!(
            cached(&cache).run(&sources),
            Err(CoreError::XLink(_))
        ));
    }

    #[test]
    fn cached_weave_composes_extra_aspects() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        let banner = Aspect::new("banner").with_precedence(-1).rule(
            Pointcut::Element("body".into()),
            AdvicePosition::Prepend,
            vec![ElementBuilder::new("div").attr("class", "banner").text("B")],
        );
        let cache = WeaveCache::new();
        let out = Weave {
            aspects: &[banner],
            ..cached(&cache)
        }
        .run(&sources)
        .unwrap();
        assert!(page_xml(&out, "guitar.html").contains("class=\"banner\""));
    }

    fn index_sources() -> Site {
        separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap()
    }

    /// The paper museum under the Index, with `edit` applied to the text of
    /// its linkbase.
    fn with_links(edit: impl Fn(String) -> String) -> Site {
        let mut sources = index_sources();
        let links = sources
            .get(LINKBASE_PATH)
            .unwrap()
            .document()
            .unwrap()
            .to_xml_string();
        let edited = edit(links.clone());
        assert_ne!(edited, links, "the edit must change the linkbase");
        sources.put_document(LINKBASE_PATH, navsep_xml::Document::parse(&edited).unwrap());
        sources
    }

    #[test]
    fn cached_locator_check_reports_the_uncached_first_error() {
        // Every weave walks the expanded traversal list; `Resolver::resolve`
        // is the oracle. The uncached weave and the cached one, cold cache
        // or warm, must stop at the traversal the oracle stops at, with the
        // same message.
        let dangling_pointer = |links: String| {
            links.replacen(
                "xlink:href=\"guitar.xml\"",
                "xlink:href=\"guitar.xml#xpointer(//painting[@id='nope'])\"",
                1,
            )
        };
        let mut unknown_document = index_sources();
        unknown_document.remove("avignon.xml");
        let mut both = with_links(dangling_pointer);
        both.remove("avignon.xml");
        let cases = [
            ("dangling XPointer", with_links(dangling_pointer)),
            ("unknown document", unknown_document),
            (
                "malformed arc",
                with_links(|links| {
                    links.replacen("xlink:from=\"index\"", "xlink:from=\"nowhere\"", 1)
                }),
            ),
            ("two errors", both),
        ];
        for (case, sources) in cases {
            let links = sources.get(LINKBASE_PATH).unwrap().document().unwrap();
            let oracle = Linkbase::from_document(links, LINKBASE_PATH)
                .and_then(|linkbase| Resolver::new(&sources, LINKBASE_PATH).resolve(&linkbase))
                .map(|_| ())
                .map_err(CoreError::XLink)
                .expect_err(case)
                .to_string();
            let uncached = weave_separated(&sources).map(|_| ()).expect_err(case);
            assert_eq!(uncached.to_string(), oracle, "{case}, uncached");
            let cache = WeaveCache::new();
            let cold = cached(&cache).run(&sources).map(|_| ()).expect_err(case);
            assert_eq!(cold.to_string(), oracle, "{case}, cold cache");
            let warm = cached(&cache).run(&sources).map(|_| ()).expect_err(case);
            assert_eq!(warm.to_string(), oracle, "{case}, warm cache");
        }
    }

    #[test]
    fn full_weave_fills_the_traversal_list_for_the_next_commit() {
        use crate::publish::{SitePublisher, SourceEdit};
        use navsep_web::ShardedSiteStore;

        let sources = index_sources();
        let igt = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let mut publisher = SitePublisher::new(sources, Arc::new(ShardedSiteStore::new(4)));
        publisher.commit().unwrap();
        // The linkbase swap weaves the whole site under the new linkbase.
        let links = igt.get(LINKBASE_PATH).unwrap().document().unwrap().clone();
        publisher.stage(SourceEdit::put_document(LINKBASE_PATH, links));
        publisher.commit().unwrap();
        let after_swap = publisher.cache().entries();
        // The first data commit under it finds the traversal list cached.
        let guitar = publisher
            .sources()
            .get("guitar.xml")
            .unwrap()
            .document()
            .unwrap()
            .to_xml_string()
            .replace("Guitar", "Guitar (retitled)");
        publisher.stage(SourceEdit::put_document(
            "guitar.xml",
            navsep_xml::Document::parse(&guitar).unwrap(),
        ));
        let outcome = publisher.commit().unwrap();
        assert_eq!(outcome.pages_rewoven, 1, "{outcome:?}");
        assert_eq!(publisher.cache().entries(), after_swap);
    }

    #[test]
    fn first_data_commit_after_a_swap_counts_one_traversal_hit() {
        use crate::publish::{SitePublisher, SourceEdit};
        use navsep_web::ShardedSiteStore;

        let igt = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let mut publisher = SitePublisher::new(index_sources(), Arc::new(ShardedSiteStore::new(4)));
        publisher.commit().unwrap();
        let links = igt.get(LINKBASE_PATH).unwrap().document().unwrap().clone();
        publisher.stage(SourceEdit::put_document(LINKBASE_PATH, links));
        publisher.commit().unwrap();
        let cache = publisher.cache();
        let (hits, misses) = (cache.hits(), cache.misses());
        let traversal_hits = cache.linkbases.hits();
        let guitar = publisher
            .sources()
            .get("guitar.xml")
            .unwrap()
            .document()
            .unwrap();
        let guitar = guitar.to_xml_string().replace("Guitar", "Guitar (v2)");
        publisher.stage(SourceEdit::put_document(
            "guitar.xml",
            navsep_xml::Document::parse(&guitar).unwrap(),
        ));
        publisher.commit().unwrap();
        let cache = publisher.cache();
        assert_eq!(cache.linkbases.hits(), traversal_hits + 1);
        assert_eq!(cache.misses(), misses, "a data commit compiles nothing");
        // Transform, expanded linkbase (the traversal index), weaver.
        assert_eq!(cache.hits(), hits + 3);
    }

    #[test]
    fn navigation_map_shape() {
        let sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let doc = sources.get(LINKBASE_PATH).unwrap().document().unwrap();
        let lb = Linkbase::from_document(doc, LINKBASE_PATH).unwrap();
        let map = navigation_map(&lb).unwrap();
        // Entry pages hold the index items.
        assert_eq!(map["picasso.html"].index_items.len(), 3);
        // Guitar (first member): next + up, no prev.
        let guitar = &map["guitar.html"];
        assert!(guitar.anchors.iter().any(|a| a.rel == "next"));
        assert!(guitar.anchors.iter().any(|a| a.rel == "up"));
        assert!(!guitar.anchors.iter().any(|a| a.rel == "prev"));
        // Guernica (middle): prev + next + up.
        let guernica = &map["guernica.html"];
        assert_eq!(guernica.anchors.len(), 3);
    }
}

#[cfg(test)]
mod aspects_xml_tests {
    use super::*;
    use crate::museum::{museum_navigation, paper_museum};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;
    use navsep_xml::Document;

    #[test]
    fn aspects_xml_is_loaded_and_woven() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.put_document(
            ASPECTS_PATH,
            Document::parse(
                r#"<aspects>
  <aspect name="banner" precedence="-5">
    <rule pointcut='element("body")' position="prepend">
      <div class="banner">Museum of navsep</div>
    </rule>
  </aspect>
</aspects>"#,
            )
            .unwrap(),
        );
        let out = weave_separated(&sources).unwrap();
        let xml = out
            .site
            .get("guitar.html")
            .unwrap()
            .document()
            .unwrap()
            .to_xml_string();
        assert!(xml.contains("Museum of navsep"));
        // aspects.xml must not be transformed into a page.
        assert!(out.site.get("aspects.html").is_none());
    }

    #[test]
    fn malformed_aspects_xml_is_reported() {
        let mut sources = separated_sources(
            &paper_museum(),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::Index),
        )
        .unwrap();
        sources.put_document(
            ASPECTS_PATH,
            Document::parse("<aspects><aspect/></aspects>").unwrap(),
        );
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::Pipeline(msg)) if msg.contains("aspects.xml")
        ));
    }
}

#[cfg(test)]
mod executor_tests {
    use super::*;
    use crate::equiv::assert_site_equivalent;
    use crate::museum::{generated_museum, museum_navigation};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    fn museum_sources() -> Site {
        separated_sources(
            &generated_museum(3, 7, 2, 11),
            &museum_navigation(),
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap()
    }

    fn on(workers: usize) -> Weave<'static> {
        Weave {
            workers: NonZeroUsize::new(workers).unwrap(),
            ..Weave::default()
        }
    }

    #[test]
    fn parallel_output_equals_sequential() {
        let sources = museum_sources();
        let seq = weave_separated(&sources).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let par = on(workers).run(&sources).unwrap();
            assert_site_equivalent(&seq.site, &par.site)
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            for (path, res) in seq.site.iter() {
                assert_eq!(par.site.get(path).unwrap().to_bytes(), res.to_bytes());
            }
            assert_eq!(par.reports.len(), seq.reports.len());
        }
    }

    #[test]
    fn reports_are_page_ordered() {
        let sources = museum_sources();
        for workers in [1usize, 3] {
            let par = on(workers).run(&sources).unwrap();
            let pages: Vec<&str> = par.reports.iter().map(|r| r.page.as_str()).collect();
            let mut sorted = pages.clone();
            sorted.sort();
            assert_eq!(pages, sorted, "workers={workers}");
        }
    }

    #[test]
    fn parallel_propagates_errors() {
        let mut sources = museum_sources();
        sources.remove(TRANSFORM_PATH);
        assert!(matches!(
            on(4).run(&sources),
            Err(CoreError::Pipeline(msg)) if msg.contains("transform.xml")
        ));
    }

    #[test]
    fn parallel_cached_reuses_compiled_specs() {
        let sources = museum_sources();
        let cache = WeaveCache::new();
        let weave = Weave {
            cache: Some(&cache),
            ..on(2)
        };
        let first = weave.run(&sources).unwrap();
        let again = weave.run(&sources).unwrap();
        assert_eq!(first.site.len(), again.site.len());
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn first_failing_page_wins_whatever_stage_failed() {
        // The first page fails in the weave (two aspects replace the same
        // element), the last one in the transform (nested past the
        // recursion limit): the first page's error is the one reported, at
        // every worker count.
        let mut sources = museum_sources();
        let pages: Vec<String> = weave_separated(&sources)
            .unwrap()
            .reports
            .into_iter()
            .map(|r| r.page)
            .collect();
        let clash = |name: &str| {
            Aspect::new(name).text_rule(
                Pointcut::Page(pages[0].clone()).and(Pointcut::Element("h1".into())),
                AdvicePosition::ReplaceContent,
                name,
            )
        };
        let aspects = [clash("rc1"), clash("rc2")];
        let with_clash = Weave {
            aspects: &aspects,
            ..Weave::default()
        };
        let weave_error = match with_clash.run(&sources) {
            Err(error @ CoreError::Weave(_)) => error.to_string(),
            other => panic!("expected a weave error, got {other:?}"),
        };
        let deep = (0..300).fold(ElementBuilder::new("x"), |inner, _| {
            ElementBuilder::new("x").child(inner)
        });
        let last = pages[pages.len() - 1].replace(".html", ".xml");
        sources.put_document(last, deep.build_document());
        assert!(matches!(
            weave_separated(&sources),
            Err(CoreError::Template(_))
        ));
        for workers in [1usize, 2, 8] {
            let err = Weave {
                aspects: &aspects,
                ..on(workers)
            }
            .run(&sources)
            .unwrap_err();
            assert_eq!(err.to_string(), weave_error, "workers={workers}");
        }
    }
}
