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
use crate::layout::{data_to_page, ASPECTS_PATH, LINKBASE_PATH, TRANSFORM_PATH};
use bytes::Bytes;
use navsep_aspect::{
    AdvicePosition, Aspect, AspectCache, CompiledWeaver, Pointcut, SpecCache, StreamReport,
    WeaveError, WeaveReport, Weaver,
};
use navsep_hypermodel::NavLinkKind;
use navsep_style::Transform;
use navsep_web::{MediaType, Resource, Site};
use navsep_xlink::{Endpoint, Linkbase, Resolver, Traversal};
use navsep_xml::{fnv1a64, ElementBuilder, WriteOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    let mut map: BTreeMap<String, PageNav> = BTreeMap::new();
    for link in linkbase.extended_links() {
        let context = link.role.clone().ok_or_else(|| {
            CoreError::Pipeline("extended link missing xlink:role (the context name)".to_string())
        })?;
        for t in link.traversals().map_err(CoreError::XLink)? {
            let from_page = endpoint_page(&t.from, linkbase)?;
            let to_page = endpoint_page(&t.to, linkbase)?;
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
            let entry = map.entry(from_page.clone()).or_default();
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
        }
    }
    Ok(map)
}

fn endpoint_page(ep: &Endpoint, linkbase: &Linkbase) -> Result<String, CoreError> {
    match ep {
        Endpoint::Remote(href) => {
            let resolved = href.resolve_against(linkbase.path());
            data_to_page(resolved.document()).ok_or_else(|| {
                CoreError::Pipeline(format!(
                    "locator href {:?} does not address a data document",
                    href.to_string()
                ))
            })
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
/// being woven, never on the page's contents, so the navigation aspect is
/// streamable ([`weave_separated_streaming`] weaves it without building a
/// DOM per page).
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
/// * `links.xml` → the parsed [`Linkbase`] *and* the expanded per-page
///   navigation map;
/// * `aspects.xml` → parsed [`Aspect`]s (via [`AspectCache`]);
/// * the (linkbase, aspects) pair → the fully [`CompiledWeaver`], with
///   every rule pointcut pre-analyzed into its index candidate plan, so a
///   steady-state reweave goes straight to candidate resolution;
/// * `links.xml` → its expanded traversal list, built on the first
///   incremental commit under that linkbase and used to re-check only the
///   locators that point into edited documents.
///
/// Locator resolution against the data set is deliberately **not** cached:
/// it depends on the data documents, which may change between weaves even
/// when the linkbase does not.
///
/// [`hits`](Self::hits) and [`misses`](Self::misses) count the compiled
/// specs; the traversal list is an expansion of an already cached linkbase
/// and shows up in [`entries`](Self::entries) only.
///
/// # Examples
///
/// ```
/// use navsep_core::museum::{museum_navigation, paper_museum};
/// use navsep_core::pipeline::{weave_separated_cached, WeaveCache};
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
/// let first = weave_separated_cached(&sources, &cache)?;   // compiles specs
/// let again = weave_separated_cached(&sources, &cache)?;   // pure cache hits
/// assert_eq!(first.site.len(), again.site.len());
/// assert!(cache.hits() >= 3); // transform + linkbase + navigation map
/// # Ok::<(), navsep_core::CoreError>(())
/// ```
#[derive(Debug, Default)]
pub struct WeaveCache {
    transforms: SpecCache<Transform>,
    linkbases: SpecCache<Linkbase>,
    navigation: SpecCache<BTreeMap<String, PageNav>>,
    aspects: AspectCache,
    weavers: SpecCache<CompiledWeaver>,
    traversals: SpecCache<Vec<Traversal>>,
}

impl WeaveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups that found a compiled spec.
    pub fn hits(&self) -> u64 {
        self.transforms.hits()
            + self.linkbases.hits()
            + self.navigation.hits()
            + self.aspects.hits()
            + self.weavers.hits()
    }

    /// Total lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.transforms.misses()
            + self.linkbases.misses()
            + self.navigation.misses()
            + self.aspects.misses()
            + self.weavers.misses()
    }

    /// Total compiled specs currently held, across all kinds. The cache
    /// never evicts on its own, so long-lived spec churners should watch
    /// this (or [`clear`](Self::clear) when a spec changes, as
    /// [`crate::publish::SitePublisher`] does).
    pub fn entries(&self) -> usize {
        self.transforms.len()
            + self.linkbases.len()
            + self.navigation.len()
            + self.aspects.len()
            + self.weavers.len()
            + self.traversals.len()
    }

    /// Drops all cached compilations (counters are kept).
    pub fn clear(&self) {
        self.transforms.clear();
        self.linkbases.clear();
        self.navigation.clear();
        self.aspects.clear();
        self.weavers.clear();
        self.traversals.clear();
    }
}

/// The compiled specs one weave runs with — either freshly compiled or
/// pulled from a [`WeaveCache`].
struct CompiledSpecs {
    transform: Arc<Transform>,
    nav_map: Arc<BTreeMap<String, PageNav>>,
    site_aspects: Arc<Vec<Aspect>>,
    /// The compiled weaver for (navigation aspect + site aspects), fetched
    /// from the cache when one was supplied.
    weaver: Option<Arc<CompiledWeaver>>,
}

/// The weaver every weave starts from: the navigation aspect plus the
/// site-defined aspects, in that registration order.
fn base_weaver(nav_map: &Arc<BTreeMap<String, PageNav>>, site_aspects: &[Aspect]) -> Weaver {
    let mut weaver = Weaver::new().aspect(navigation_aspect_shared(Arc::clone(nav_map)));
    for a in site_aspects {
        weaver.add_aspect(a.clone());
    }
    weaver
}

/// Compiles (or fetches) every spec in `sources`, then validates locator
/// resolution against the current data set: every locator, or — given a
/// cache and the `touched` source paths — only those a batch touching
/// exactly those paths can have broken (see [`check_touched_locators`]).
fn compile_specs(
    sources: &Site,
    cache: Option<&WeaveCache>,
    touched: Option<&BTreeSet<String>>,
) -> Result<CompiledSpecs, CoreError> {
    let transform_doc = sources
        .get(TRANSFORM_PATH)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {TRANSFORM_PATH}")))?;
    let links_doc = sources
        .get(LINKBASE_PATH)
        .and_then(Resource::document)
        .ok_or_else(|| CoreError::Pipeline(format!("missing {LINKBASE_PATH}")))?;

    let (transform, linkbase, nav_map) = match cache {
        Some(cache) => {
            // `content_hash` is memoized on the documents themselves, so a
            // steady-state reweave looks both keys up without serializing
            // (let alone re-hashing) either spec.
            let transform_key = transform_doc.content_hash();
            let transform = cache.transforms.get_or_try_insert(transform_key, || {
                Transform::from_document(transform_doc).map_err(CoreError::Template)
            })?;
            let links_key = links_doc.content_hash();
            let linkbase = cache.linkbases.get_or_try_insert(links_key, || {
                Linkbase::from_document(links_doc, LINKBASE_PATH).map_err(CoreError::XLink)
            })?;
            let nav_map = cache
                .navigation
                .get_or_try_insert(links_key, || navigation_map(&linkbase))?;
            (transform, linkbase, nav_map)
        }
        None => {
            let transform = Arc::new(Transform::from_document(transform_doc)?);
            let linkbase = Arc::new(Linkbase::from_document(links_doc, LINKBASE_PATH)?);
            let nav_map = Arc::new(navigation_map(&linkbase)?);
            (transform, linkbase, nav_map)
        }
    };

    // Validate locators against the *current* data set before weaving —
    // never cached; the data may have changed under a cached linkbase.
    match (cache, touched) {
        (Some(cache), Some(touched)) => {
            check_touched_locators(sources, links_doc, &linkbase, cache, touched)?;
        }
        _ => {
            Resolver::new(sources, LINKBASE_PATH).resolve(&linkbase)?;
        }
    }

    // Site-defined aspects (paper §7 future work): aspects.xml, if present,
    // contributes further concerns to the weave.
    let site_aspects = match sources.get(ASPECTS_PATH).and_then(Resource::document) {
        Some(doc) => match cache {
            Some(cache) => cache
                .aspects
                .get_or_parse(doc)
                .map_err(|e| CoreError::Pipeline(format!("bad {ASPECTS_PATH}: {e}")))?,
            None => Arc::new(
                navsep_aspect::parse_aspects(doc)
                    .map_err(|e| CoreError::Pipeline(format!("bad {ASPECTS_PATH}: {e}")))?,
            ),
        },
        None => Arc::new(Vec::new()),
    };

    // The compiled weaver is a function of the linkbase (navigation aspect)
    // and aspects.xml, so its cache key is derived from both content hashes
    // (with a marker distinguishing "no aspects.xml" from any hash value).
    let weaver = match cache {
        Some(cache) => {
            let aspects_key = sources
                .get(ASPECTS_PATH)
                .and_then(Resource::document)
                .map(navsep_xml::Document::content_hash);
            let mut key_bytes = Vec::with_capacity(17);
            key_bytes.extend_from_slice(&links_doc.content_hash().to_le_bytes());
            key_bytes.extend_from_slice(&aspects_key.unwrap_or(0).to_le_bytes());
            key_bytes.push(u8::from(aspects_key.is_some()));
            let weaver = cache.weavers.get_or_try_insert(fnv1a64(&key_bytes), || {
                Ok::<_, CoreError>(base_weaver(&nav_map, &site_aspects).compile())
            })?;
            Some(weaver)
        }
        None => None,
    };

    Ok(CompiledSpecs {
        transform,
        nav_map,
        site_aspects,
        weaver,
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

/// Resolves only the traversals with an endpoint in a `touched` document,
/// in the linkbase's traversal order — the locator check of an incremental
/// commit.
///
/// Precondition: this linkbase already passed the locator check against
/// `sources` as they were before the `touched` paths were edited (a full
/// [`Resolver::resolve`], or a touched check chained back to one). Every
/// skipped endpoint was then resolved against the same document under the
/// same linkbase, so the full check could fail only at a touched traversal
/// — and walking those in the same order, `from` before `to`, meets the
/// same first error.
fn check_touched_locators(
    sources: &Site,
    links_doc: &navsep_xml::Document,
    linkbase: &Linkbase,
    cache: &WeaveCache,
    touched: &BTreeSet<String>,
) -> Result<(), CoreError> {
    let traversals = cache
        .traversals
        .get_or_try_insert(links_doc.content_hash(), || linkbase.traversals())?;
    let in_touched = |ep: &Endpoint| endpoint_document(ep).is_some_and(|doc| touched.contains(doc));
    let resolver = Resolver::new(sources, LINKBASE_PATH);
    for t in traversals
        .iter()
        .filter(|t| in_touched(&t.from) || in_touched(&t.to))
    {
        resolver.resolve_endpoint(&t.from)?;
        resolver.resolve_endpoint(&t.to)?;
    }
    Ok(())
}

/// Stores a freshly woven page into an output site, compacted first: the
/// weaver leaves spare arena capacity that retained epochs would otherwise
/// keep alive.
pub(crate) fn put_woven_page(site: &mut Site, path: String, mut doc: navsep_xml::Document) {
    doc.shrink_to_fit();
    site.put_page(path, doc);
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

/// Runs the full pipeline: separated sources in, woven site out.
///
/// # Errors
///
/// * [`CoreError::Pipeline`] when `transform.xml` or `links.xml` is missing
///   or a locator points outside the data set;
/// * template, XLink, and weave errors from the respective stages.
pub fn weave_separated(sources: &Site) -> Result<WovenOutput, CoreError> {
    weave_separated_with(sources, &[])
}

/// Like [`weave_separated`], but composes `extra_aspects` (e.g. a banner or
/// audit concern) with the navigation aspect.
///
/// # Errors
///
/// See [`weave_separated`].
pub fn weave_separated_with(
    sources: &Site,
    extra_aspects: &[Aspect],
) -> Result<WovenOutput, CoreError> {
    weave_impl(sources, extra_aspects, None)
}

/// Like [`weave_separated`], but compiled specs (transform, linkbase,
/// navigation map, aspects) are fetched from — and on first use stored
/// into — `cache`, so a reweave of unchanged specs skips every parse.
///
/// The output is identical to [`weave_separated`] (asserted by tests);
/// only the constant factor changes.
///
/// # Errors
///
/// See [`weave_separated`].
pub fn weave_separated_cached(
    sources: &Site,
    cache: &WeaveCache,
) -> Result<WovenOutput, CoreError> {
    weave_impl(sources, &[], Some(cache))
}

/// Weaves **only** the pages derived from `data_paths` (data-document
/// paths like `guitar.xml`), fetching compiled specs from `cache` — the
/// page-level reweave behind [`crate::publish::SitePublisher`]'s
/// incremental commit path: a K-page edit transforms and weaves K pages,
/// not the whole site.
///
/// Spec compilation behaves exactly as in [`weave_separated_cached`].
/// Locator validation covers only the traversals with an endpoint in a
/// `touched` source path, under the precondition of
/// [`check_touched_locators`]. Each output triple is
/// `(page_path, woven_page, report)`.
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
) -> Result<Vec<(String, navsep_xml::Document, WeaveReport)>, CoreError> {
    let specs = compile_specs(sources, Some(cache), Some(touched))?;
    let weaver = specs
        .weaver
        .clone()
        .unwrap_or_else(|| Arc::new(base_weaver(&specs.nav_map, &specs.site_aspects).compile()));
    let mut out = Vec::with_capacity(data_paths.len());
    for path in data_paths {
        let page_path = data_to_page(path)
            .ok_or_else(|| CoreError::Pipeline(format!("{path:?} is not a data-document path")))?;
        let doc = sources
            .get(path)
            .and_then(Resource::document)
            .ok_or_else(|| CoreError::Pipeline(format!("no data document at {path:?}")))?;
        let base = specs.transform.apply(doc)?;
        let (woven, report) = weaver.weave_page(&page_path, &base)?;
        out.push((page_path, woven, report));
    }
    Ok(out)
}

/// Cached variant of [`weave_separated_with`].
///
/// # Errors
///
/// See [`weave_separated`].
pub fn weave_separated_cached_with(
    sources: &Site,
    extra_aspects: &[Aspect],
    cache: &WeaveCache,
) -> Result<WovenOutput, CoreError> {
    weave_impl(sources, extra_aspects, Some(cache))
}

fn weave_impl(
    sources: &Site,
    extra_aspects: &[Aspect],
    cache: Option<&WeaveCache>,
) -> Result<WovenOutput, CoreError> {
    let specs = compile_specs(sources, cache, None)?;

    // Stage 1 — presentation: transform each data document into a base page.
    let mut pages: BTreeMap<String, navsep_xml::Document> = BTreeMap::new();
    for (path, res) in sources.iter() {
        if path == LINKBASE_PATH || path == TRANSFORM_PATH || path == ASPECTS_PATH {
            continue;
        }
        let Some(doc) = res.document() else { continue };
        let Some(page_path) = data_to_page(path) else {
            continue;
        };
        pages.insert(page_path, specs.transform.apply(doc)?);
    }

    // Stage 2 — navigation: linkbase → per-page fragments → one aspect.
    // The cached compiled weaver is reusable only for the base aspect set;
    // extra aspects change the weave, so they force a fresh compile.
    let weaver = match (&specs.weaver, extra_aspects.is_empty()) {
        (Some(w), true) => Arc::clone(w),
        _ => {
            let mut weaver = base_weaver(&specs.nav_map, &specs.site_aspects);
            for a in extra_aspects {
                weaver.add_aspect(a.clone());
            }
            Arc::new(weaver.compile())
        }
    };

    // Stage 3 — weave.
    let (woven, reports) = weaver.weave_site(&pages)?;
    let mut site = Site::new();
    for (path, doc) in woven {
        put_woven_page(&mut site, path, doc);
    }
    // Raw resources (the CSS) pass through untouched, media type and all.
    pass_raw_through(sources, &mut site);
    Ok(WovenOutput { site, reports })
}

/// Like [`weave_separated`], but transforms and weaves pages on `workers`
/// threads. Output is identical to the sequential pipeline (asserted by
/// tests); reports are returned in page order.
///
/// Every page weave runs under `catch_unwind`: a panicking page becomes
/// [`CoreError::WorkerPanic`] for that page only — the other workers
/// finish their slices and the scope drains normally.
///
/// # Errors
///
/// See [`weave_separated`]. When several pages fail (error or panic), the
/// error reported is the one for the first failing page in page order —
/// the same page the sequential pipeline would have stopped at.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_parallel(sources: &Site, workers: usize) -> Result<WovenOutput, CoreError> {
    weave_separated_parallel_faulted(sources, workers, None)
}

/// Transforms and weaves one page with panic isolation: a panic anywhere in
/// the transform or weave (organic or injected) becomes
/// [`CoreError::WorkerPanic`] for this page instead of unwinding the
/// worker.
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
        weaver.weave_page(page_path, &base).map_err(CoreError::from)
    }));
    match attempt {
        Ok(result) => result,
        Err(payload) => Err(CoreError::WorkerPanic {
            path: page_path.to_string(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// [`weave_separated_parallel`] with a [`FaultPlan`] threaded through: each
/// page consults `faults` at [`fault::sites::WEAVE_PAGE`] before weaving.
/// With `None` the behavior (and output, byte for byte) is exactly
/// [`weave_separated_parallel`].
///
/// # Errors
///
/// See [`weave_separated_parallel`]; injected `Error`/`Disconnect` faults
/// surface as [`CoreError::Fault`], injected panics as
/// [`CoreError::WorkerPanic`], both with first-failing-page ordering.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_parallel_faulted(
    sources: &Site,
    workers: usize,
    faults: Option<&FaultPlan>,
) -> Result<WovenOutput, CoreError> {
    assert!(workers > 0, "need at least one worker");
    let specs = compile_specs(sources, None, None)?;
    let transform = &specs.transform;
    // Compile once, share across workers (CompiledWeaver is Send + Sync).
    let weaver = base_weaver(&specs.nav_map, &specs.site_aspects).compile();

    // Partition the data documents round-robin across workers; each worker
    // transforms and weaves its slice independently (pages are independent).
    let work: Vec<(String, &navsep_xml::Document)> = sources
        .iter()
        .filter(|(path, _)| {
            *path != LINKBASE_PATH && *path != TRANSFORM_PATH && *path != ASPECTS_PATH
        })
        .filter_map(|(path, res)| {
            let page = data_to_page(path)?;
            res.document().map(|d| (page, d))
        })
        .collect();

    type PageResult = (
        String,
        Result<(navsep_xml::Document, WeaveReport), CoreError>,
    );
    let results: Vec<PageResult> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let transform = &transform;
            let weaver = &weaver;
            let chunk: Vec<&(String, &navsep_xml::Document)> =
                work.iter().skip(w).step_by(workers).collect();
            handles.push(scope.spawn(move || {
                let mut out: Vec<PageResult> = Vec::with_capacity(chunk.len());
                for (page_path, data_doc) in chunk {
                    let woven = weave_page_isolated(page_path, data_doc, transform, weaver, faults);
                    out.push((page_path.clone(), woven));
                }
                out
            }));
        }
        let mut all = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(part) => all.extend(part),
                // Unreachable while the per-page catch_unwind holds, but a
                // worker lost some other way must not abort the process:
                // surface it as a (first-ordered) error and keep draining.
                Err(payload) => all.push((
                    String::new(),
                    Err(CoreError::WorkerPanic {
                        path: "<worker>".to_string(),
                        message: panic_message(payload.as_ref()),
                    }),
                )),
            }
        }
        all
    });

    let mut pages: BTreeMap<String, (navsep_xml::Document, WeaveReport)> = BTreeMap::new();
    let mut first_error: Option<(String, CoreError)> = None;
    for (path, result) in results {
        match result {
            Ok(woven) => {
                pages.insert(path, woven);
            }
            Err(error) => match &first_error {
                // Keep the error of the first failing page in page order —
                // the page the sequential pipeline would have stopped at.
                Some((seen, _)) if *seen <= path => {}
                _ => first_error = Some((path, error)),
            },
        }
    }
    if let Some((_, error)) = first_error {
        return Err(error);
    }
    let mut site = Site::new();
    let mut reports = Vec::with_capacity(pages.len());
    for (path, (doc, report)) in pages {
        put_woven_page(&mut site, path, doc);
        reports.push(report);
    }
    pass_raw_through(sources, &mut site);
    Ok(WovenOutput { site, reports })
}

/// Output of the **streaming** pipeline: like [`WovenOutput`], but pages
/// that streamed were never materialized as a DOM — they are published as
/// [`Resource::Raw`] bytes (media type `application/xhtml+xml`), already in
/// exactly the form [`Resource::to_bytes`] would serialize a woven
/// [`navsep_xml::Document`] to. Pages whose spec needs whole-document
/// context fell back to the DOM weaver and are published as documents.
///
/// The equivalence law (asserted by `tests/streaming_equiv.rs` and the CI
/// gate) is that for every page, `to_bytes()` here is byte-identical to
/// `to_bytes()` of the sequential [`weave_separated`] output.
#[derive(Debug)]
pub struct StreamedOutput {
    /// The served site (streamed pages raw, fallback pages as documents,
    /// plus raw passthroughs).
    pub site: Site,
    /// One report per page, in page order. Streamed pages record events in
    /// element order (a permutation of the DOM weaver's rule-major order);
    /// join-point and application counts are identical.
    pub reports: Vec<WeaveReport>,
    /// Pages woven by the streaming path (no intermediate DOM).
    pub pages_streamed: usize,
    /// Pages routed through the DOM weaver by streamability analysis.
    pub pages_fallback: usize,
    /// Pages that *failed* in the streaming weaver (organic error or
    /// injected fault) and were degraded to the DOM weaver instead of
    /// erroring. Disjoint from `pages_fallback` (an analysis decision) and
    /// `pages_streamed`; zero whenever no fault plan is armed and the
    /// sources are healthy.
    pub pages_degraded: usize,
    /// Deepest open-element stack across all streamed pages.
    pub peak_depth: usize,
    /// Largest advice window (bytes buffered for open elements) across all
    /// streamed pages — bounded by depth × rule window, not document size.
    pub peak_window_bytes: usize,
}

/// How one page left the streaming pipeline.
enum PageOut {
    Streamed {
        bytes: String,
        report: StreamReport,
    },
    Dom {
        doc: navsep_xml::Document,
        report: WeaveReport,
    },
    /// The streaming weave failed (organic error or injected fault) and the
    /// page was re-woven through the DOM weaver instead.
    Degraded {
        doc: navsep_xml::Document,
        report: WeaveReport,
    },
}

/// Transforms and weaves one page, streaming when the spec allows it.
///
/// A failure *inside the streaming weaver* — a [`StreamError`] or an
/// injected [`fault::sites::STREAM_PAGE`] fault — degrades the page to the
/// DOM weaver instead of erroring: the DOM weaver is the spec side of the
/// streaming ≡ DOM equivalence law, so the degraded output is exactly what
/// the law demands, and only a DOM-weave failure surfaces as the page's
/// error (preserving error parity with the sequential pipeline).
fn stream_or_weave_page(
    page_path: &str,
    data_doc: &navsep_xml::Document,
    transform: &Transform,
    weaver: &CompiledWeaver,
    faults: Option<&FaultPlan>,
) -> Result<PageOut, CoreError> {
    fault::fire(faults, fault::sites::WEAVE_PAGE, page_path).map_err(CoreError::from)?;
    let base = transform.apply(data_doc)?;
    if weaver.streamable_for_page(page_path) {
        // Error parity with the DOM weaver: it rejects rootless pages
        // before touching any rule, so the streaming path must too (the
        // reader would otherwise report a parse error instead).
        if base.root_element().is_none() {
            return Err(WeaveError::EmptyPage(page_path.to_string()).into());
        }
        let injected: Result<(), fault::FaultError> =
            fault::fire(faults, fault::sites::STREAM_PAGE, page_path);
        if injected.is_ok() {
            let source = base.to_xml(&WriteOptions::default().declaration(false));
            match weaver.streaming().weave_to_string(page_path, &source) {
                Ok((bytes, report)) => return Ok(PageOut::Streamed { bytes, report }),
                Err(_stream_error) => {
                    // Fall through to the DOM weaver below.
                }
            }
        }
        let (doc, report) = weaver.weave_page(page_path, &base)?;
        Ok(PageOut::Degraded { doc, report })
    } else {
        let (doc, report) = weaver.weave_page(page_path, &base)?;
        Ok(PageOut::Dom { doc, report })
    }
}

/// Runs the full pipeline **streaming**: pages whose compiled spec passes
/// streamability analysis go reader-events → woven bytes with no
/// intermediate DOM; the rest fall back to [`CompiledWeaver::weave_page`].
/// Pages fan out across `workers` threads over bounded crossbeam channels
/// (the bound is backpressure: a fast feeder cannot outrun the weavers by
/// more than the channel capacity).
///
/// Output bytes are identical to [`weave_separated`]'s page for page, and
/// deterministic regardless of `workers`: results are keyed by page path
/// and assembled in `BTreeMap` order, so scheduling jitter never reorders
/// the site or the reports.
///
/// # Errors
///
/// See [`weave_separated`]. When several pages fail, the error reported is
/// the one for the first failing page in page order (the same page the
/// sequential pipeline would have stopped at).
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_streaming(
    sources: &Site,
    workers: usize,
) -> Result<StreamedOutput, CoreError> {
    streaming_impl(sources, &[], None, workers, None)
}

/// [`weave_separated_streaming`] with a [`FaultPlan`] threaded through:
/// pages consult `faults` at [`fault::sites::WEAVE_PAGE`] (panic / slow /
/// error before any weave), [`fault::sites::STREAM_PAGE`] (streaming-weave
/// failure, degraded to the DOM weaver), and
/// [`fault::sites::CHANNEL_DISCONNECT`] (a worker abandons its channels;
/// the in-hand page is lost and reported). With `None` the behavior is
/// exactly [`weave_separated_streaming`].
///
/// # Errors
///
/// See [`weave_separated_streaming`]; additionally [`CoreError::WorkerPanic`]
/// for injected panics (first-failing-page ordering preserved) and
/// [`CoreError::Pipeline`] when disconnected workers lost pages.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_streaming_faulted(
    sources: &Site,
    workers: usize,
    faults: Option<&FaultPlan>,
) -> Result<StreamedOutput, CoreError> {
    streaming_impl(sources, &[], None, workers, faults)
}

/// Cached variant of [`weave_separated_streaming_faulted`] (what
/// [`SitePublisher::commit_streaming`](crate::SitePublisher::commit_streaming)
/// runs under an armed plan).
///
/// # Errors
///
/// See [`weave_separated_streaming_faulted`].
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_streaming_cached_faulted(
    sources: &Site,
    cache: &WeaveCache,
    workers: usize,
    faults: Option<&FaultPlan>,
) -> Result<StreamedOutput, CoreError> {
    streaming_impl(sources, &[], Some(cache), workers, faults)
}

/// Like [`weave_separated_streaming`], but composes `extra_aspects` with
/// the navigation aspect (forcing a fresh compile, as
/// [`weave_separated_with`] does).
///
/// # Errors
///
/// See [`weave_separated_streaming`].
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_streaming_with(
    sources: &Site,
    extra_aspects: &[Aspect],
    workers: usize,
) -> Result<StreamedOutput, CoreError> {
    streaming_impl(sources, extra_aspects, None, workers, None)
}

/// Cached variant of [`weave_separated_streaming`] — compiled specs come
/// from (and are stored into) `cache`, exactly as in
/// [`weave_separated_cached`].
///
/// # Errors
///
/// See [`weave_separated_streaming`].
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn weave_separated_streaming_cached(
    sources: &Site,
    cache: &WeaveCache,
    workers: usize,
) -> Result<StreamedOutput, CoreError> {
    streaming_impl(sources, &[], Some(cache), workers, None)
}

fn streaming_impl(
    sources: &Site,
    extra_aspects: &[Aspect],
    cache: Option<&WeaveCache>,
    workers: usize,
    faults: Option<&FaultPlan>,
) -> Result<StreamedOutput, CoreError> {
    assert!(workers > 0, "need at least one worker");
    let specs = compile_specs(sources, cache, None)?;
    let transform = Arc::clone(&specs.transform);
    let weaver = match (&specs.weaver, extra_aspects.is_empty()) {
        (Some(w), true) => Arc::clone(w),
        _ => {
            let mut weaver = base_weaver(&specs.nav_map, &specs.site_aspects);
            for a in extra_aspects {
                weaver.add_aspect(a.clone());
            }
            Arc::new(weaver.compile())
        }
    };

    let work: Vec<(String, &navsep_xml::Document)> = sources
        .iter()
        .filter(|(path, _)| {
            *path != LINKBASE_PATH && *path != TRANSFORM_PATH && *path != ASPECTS_PATH
        })
        .filter_map(|(path, res)| {
            let page = data_to_page(path)?;
            res.document().map(|d| (page, d))
        })
        .collect();

    // Worker pool over bounded channels. The feeder paces itself against
    // the pool (job channel capacity = 2 × workers); the collector drains
    // results concurrently so a full result channel can never deadlock the
    // feeder. Results carry their page path, so assembly is deterministic
    // whatever order workers finish in.
    type Job<'d> = (String, &'d navsep_xml::Document);
    let expected = work.len();
    let results: BTreeMap<String, Result<PageOut, CoreError>> = std::thread::scope(|scope| {
        let (job_tx, job_rx) = crossbeam::channel::bounded::<Job<'_>>(workers * 2);
        let (res_tx, res_rx) =
            crossbeam::channel::bounded::<(String, Result<PageOut, CoreError>)>(workers * 2);
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let transform = &transform;
            let weaver = &weaver;
            scope.spawn(move || {
                while let Ok((page, doc)) = job_rx.recv() {
                    if let Some(plan) = faults {
                        if plan
                            .decide(fault::sites::CHANNEL_DISCONNECT, &page)
                            .is_some()
                        {
                            // A crashed worker: drop both channel ends and
                            // exit with the in-hand job unreported. The
                            // remaining workers absorb the queue; the
                            // collector detects the lost page by count.
                            return;
                        }
                    }
                    // Isolate panics per page, not per worker: the worker
                    // survives to take the next job either way.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        stream_or_weave_page(&page, doc, transform, weaver, faults)
                    }))
                    .unwrap_or_else(|payload| {
                        Err(CoreError::WorkerPanic {
                            path: page.clone(),
                            message: panic_message(payload.as_ref()),
                        })
                    });
                    if res_tx.send((page, out)).is_err() {
                        break; // collector gone: the run is already over
                    }
                }
            });
        }
        drop(job_rx);
        drop(res_tx);
        scope.spawn(move || {
            for job in work {
                if job_tx.send(job).is_err() {
                    break; // every worker exited early
                }
            }
        });
        let mut results = BTreeMap::new();
        while let Ok((page, out)) = res_rx.recv() {
            results.insert(page, out);
        }
        results
    });

    // Workers that disconnected took their in-hand pages with them (and if
    // *all* workers disconnected, the feeder dropped the rest). Unless a
    // page-level error will already surface below, report the loss
    // explicitly rather than returning a silently smaller site.
    if results.len() != expected && !results.values().any(|r| r.is_err()) {
        return Err(CoreError::Pipeline(format!(
            "{} page(s) lost to disconnected weave workers",
            expected - results.len()
        )));
    }

    let mut site = Site::new();
    let mut reports = Vec::with_capacity(results.len());
    let mut pages_streamed = 0usize;
    let mut pages_fallback = 0usize;
    let mut pages_degraded = 0usize;
    let mut peak_depth = 0usize;
    let mut peak_window_bytes = 0usize;
    for (path, out) in results {
        // BTreeMap order makes the first error deterministic: it is the
        // error of the first failing page in page order.
        match out? {
            PageOut::Streamed { bytes, report } => {
                pages_streamed += 1;
                peak_depth = peak_depth.max(report.peak_depth);
                peak_window_bytes = peak_window_bytes.max(report.peak_window_bytes);
                reports.push(report.weave);
                site.put_resource(
                    path,
                    Resource::Raw {
                        media_type: MediaType::Html,
                        body: Bytes::from(bytes),
                    },
                );
            }
            PageOut::Dom { doc, report } => {
                pages_fallback += 1;
                reports.push(report);
                put_woven_page(&mut site, path, doc);
            }
            PageOut::Degraded { doc, report } => {
                pages_degraded += 1;
                reports.push(report);
                put_woven_page(&mut site, path, doc);
            }
        }
    }
    pass_raw_through(sources, &mut site);
    Ok(StreamedOutput {
        site,
        reports,
        pages_streamed,
        pages_fallback,
        pages_degraded,
        peak_depth,
        peak_window_bytes,
    })
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
        let out = weave_separated_with(&sources, &[banner]).unwrap();
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
        let first = weave_separated_cached(&sources, &cache).unwrap();
        let again = weave_separated_cached(&sources, &cache).unwrap();
        crate::equiv::assert_site_equivalent(&uncached.site, &first.site).unwrap();
        crate::equiv::assert_site_equivalent(&uncached.site, &again.site).unwrap();
        // First cached run compiles (transform + linkbase + nav map +
        // compiled weaver), the second is pure hits.
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 4);
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
        let a = weave_separated_cached(&index, &cache).unwrap();
        let b = weave_separated_cached(&igt, &cache).unwrap();
        // Same transform (1 hit on the second weave); different linkbase
        // (fresh linkbase + nav-map + weaver compilations, no poisoned
        // reuse).
        assert!(!crate::equiv::dom_equivalent(
            a.site.get("guitar.html").unwrap().document().unwrap(),
            b.site.get("guitar.html").unwrap().document().unwrap(),
        ));
        assert_eq!(cache.misses(), 7);
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
        weave_separated_cached(&sources, &cache).unwrap();
        sources.remove("guitar.xml");
        assert!(matches!(
            weave_separated_cached(&sources, &cache),
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
        let out = weave_separated_cached_with(&sources, &[banner], &cache).unwrap();
        assert!(page_xml(&out, "guitar.html").contains("class=\"banner\""));
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
mod parallel_tests {
    use super::*;
    use crate::equiv::assert_site_equivalent;
    use crate::museum::{generated_museum, museum_navigation};
    use crate::separated::separated_sources;
    use crate::spec::paper_spec;
    use navsep_hypermodel::AccessStructureKind;

    #[test]
    fn parallel_output_equals_sequential() {
        let store = generated_museum(3, 7, 2, 11);
        let nav = museum_navigation();
        let sources = separated_sources(
            &store,
            &nav,
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap();
        let seq = weave_separated(&sources).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let par = weave_separated_parallel(&sources, workers).unwrap();
            assert_site_equivalent(&seq.site, &par.site)
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(par.reports.len(), seq.reports.len());
        }
    }

    #[test]
    fn parallel_reports_are_page_ordered() {
        let store = generated_museum(2, 3, 2, 1);
        let nav = museum_navigation();
        let sources =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        let par = weave_separated_parallel(&sources, 3).unwrap();
        let pages: Vec<&str> = par.reports.iter().map(|r| r.page.as_str()).collect();
        let mut sorted = pages.clone();
        sorted.sort();
        assert_eq!(pages, sorted);
    }

    #[test]
    fn parallel_propagates_errors() {
        let store = generated_museum(1, 2, 2, 1);
        let nav = museum_navigation();
        let mut sources =
            separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap();
        sources.remove(TRANSFORM_PATH);
        assert!(weave_separated_parallel(&sources, 4).is_err());
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
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

    #[test]
    fn streaming_site_is_byte_identical_to_sequential() {
        let sources = museum_sources();
        let seq = weave_separated(&sources).unwrap();
        for workers in [1usize, 2, 8] {
            let streamed = weave_separated_streaming(&sources, workers).unwrap();
            assert_eq!(streamed.site.len(), seq.site.len());
            for (path, res) in seq.site.iter() {
                let got = streamed.site.get(path).unwrap();
                assert_eq!(
                    got.to_bytes(),
                    res.to_bytes(),
                    "served bytes differ at {path} with {workers} workers"
                );
                assert_eq!(got.media_type(), res.media_type());
            }
            // The navigation aspect is page-generated, so the standard
            // pipeline streams every page — no DOM is ever built.
            assert_eq!(streamed.pages_fallback, 0);
            assert_eq!(streamed.pages_streamed, seq.reports.len());
            assert_eq!(streamed.reports.len(), seq.reports.len());
            assert!(streamed.peak_depth > 0);
        }
    }

    #[test]
    fn streamed_reports_match_sequential_counts() {
        let sources = museum_sources();
        let seq = weave_separated(&sources).unwrap();
        let streamed = weave_separated_streaming(&sources, 3).unwrap();
        for (s, d) in streamed.reports.iter().zip(&seq.reports) {
            assert_eq!(s.page, d.page, "reports must come back in page order");
            assert_eq!(s.join_points, d.join_points);
            assert_eq!(s.applications(), d.applications());
        }
    }

    #[test]
    fn dynamic_extra_aspect_falls_back_to_dom_weaver() {
        let sources = museum_sources();
        let stamp =
            Aspect::new("stamp").generated_rule(Pointcut::Root, AdvicePosition::Prepend, |jp| {
                vec![ElementBuilder::new("span").text(jp.page.to_string())]
            });
        let seq = weave_separated_with(&sources, std::slice::from_ref(&stamp)).unwrap();
        let streamed =
            weave_separated_streaming_with(&sources, std::slice::from_ref(&stamp), 2).unwrap();
        // Document-dependent advice on every page: streamability analysis
        // routes all of them through the DOM weaver…
        assert_eq!(streamed.pages_streamed, 0);
        assert_eq!(streamed.pages_fallback, seq.reports.len());
        // …and the output is still identical.
        for (path, res) in seq.site.iter() {
            let got = streamed.site.get(path).unwrap();
            assert_eq!(got.to_bytes(), res.to_bytes(), "{path}");
        }
    }

    #[test]
    fn streaming_propagates_errors() {
        let mut sources = museum_sources();
        sources.remove(TRANSFORM_PATH);
        assert!(matches!(
            weave_separated_streaming(&sources, 4),
            Err(CoreError::Pipeline(msg)) if msg.contains("transform.xml")
        ));
    }

    #[test]
    fn streaming_cached_reuses_compiled_specs() {
        let sources = museum_sources();
        let cache = WeaveCache::new();
        let first = weave_separated_streaming_cached(&sources, &cache, 2).unwrap();
        let again = weave_separated_streaming_cached(&sources, &cache, 2).unwrap();
        assert_eq!(first.site.len(), again.site.len());
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 4);
    }
}
