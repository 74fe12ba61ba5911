//! The traced breakdowns. Nothing inside the crates is instrumented:
//! each layer's public calls are re-timed from here on the same inputs
//! the live run used.
//!
//! * Publish: after every commit, [`PublishReplay::commit`] repeats the
//!   stages `SitePublisher::commit` runs (clone, resolve, compile,
//!   transform, weave, assemble, hash, serialize, store diff) on that
//!   commit's sources, against a shadow woven site and a mirror store
//!   that mirror the publisher's. Whatever the stages do not cover is
//!   `publish.unattributed`.
//! * Serving: [`replay_serving`] pushes a sample of the run's request
//!   sequence through the parser, the handler, the store, the response
//!   serializer and a `ServerPool` hop.

use crate::author::Prepared;
use crate::trace::{self_time_ns, Tracer};
use navsep_aspect::{CompiledWeaver, Weaver};
use navsep_core::layout::{
    data_path, data_to_page, slug_of_page, ASPECTS_PATH, CSS_PATH, LINKBASE_PATH, TRANSFORM_PATH,
};
use navsep_core::pipeline::{navigation_aspect_shared, navigation_map, weave_separated};
use navsep_core::{PublishOutcome, SitePublisher};
use navsep_style::Transform;
use navsep_web::wire::RequestParser;
use navsep_web::wire::{serialize_request, serialize_response};
use navsep_web::{
    Handler, Request, Resource, Response, ServerPool, ShardedSiteHandler, ShardedSiteStore, Site,
    WireLimits,
};
use navsep_xlink::{Linkbase, Resolver};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The publish stages in pipeline order, as `(span name, metric name)`.
/// Their per-commit times plus `publish.unattributed` add up to the
/// commit.
pub const PUBLISH_STAGES: [(&str, &str); 12] = [
    ("sources.clone", "sources.clone_ms"),
    ("site.clone", "site.clone_ms"),
    ("style.compile", "style.compile_ms"),
    ("xlink.parse", "xlink.parse_ms"),
    ("xlink.resolve", "xlink.resolve_ms"),
    ("aspect.compile", "aspect.compile_ms"),
    ("style.transform", "style.transform_ms"),
    ("aspect.weave", "aspect.weave_ms"),
    ("site.assemble", "site.assemble_ms"),
    ("xml.content_hash", "xml.content_hash_ms"),
    ("xml.serialize", "xml.serialize_ms"),
    ("store.publish_incremental", "store.publish_incremental_ms"),
];

/// One traced commit.
#[derive(Debug, Clone)]
pub struct CommitRow {
    /// `painting`, `css` or `spec`.
    pub kind: &'static str,
    /// `SitePublisher::commit`, ns.
    pub commit_ns: u64,
    /// Per stage of [`PUBLISH_STAGES`], ns.
    pub stage_ns: [u64; 12],
    /// `commit_ns` minus the stages (negative when the re-timed stages
    /// ran slower than the commit did).
    pub unattributed_ns: i64,
    /// The commit's own counters.
    pub outcome: PublishOutcome,
}

/// Mirrors a [`SitePublisher`] stage by stage.
pub struct PublishReplay {
    /// Spans of every replayed commit.
    pub tracer: Tracer,
    /// One row per traced commit.
    pub rows: Vec<CommitRow>,
    /// Commits whose replayed store diff disagreed with the real one.
    pub mismatches: Vec<String>,
    transform: Transform,
    linkbase: Linkbase,
    weaver: CompiledWeaver,
    shadow: Site,
    mirror: ShardedSiteStore,
}

impl std::fmt::Debug for PublishReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishReplay")
            .field("rows", &self.rows.len())
            .finish()
    }
}

fn spec_doc<'a>(sources: &'a Site, path: &str) -> Result<&'a navsep_xml::Document, String> {
    sources
        .get(path)
        .and_then(Resource::document)
        .ok_or_else(|| format!("sources lack {path}"))
}

fn compile_weaver(linkbase: &Linkbase) -> Result<CompiledWeaver, String> {
    let map = navigation_map(linkbase).map_err(|e| e.to_string())?;
    Ok(Weaver::new()
        .aspect(navigation_aspect_shared(Arc::new(map)))
        .compile())
}

impl PublishReplay {
    /// A replay in step with `publisher`, whose last commit produced the
    /// site the store serves now.
    pub fn new(publisher: &SitePublisher, tracer: Tracer) -> Result<Self, String> {
        let sources = publisher.sources();
        if sources.get(ASPECTS_PATH).is_some() {
            return Err("the replay does not model aspects.xml".to_string());
        }
        let transform = Transform::from_document(spec_doc(sources, TRANSFORM_PATH)?)
            .map_err(|e| e.to_string())?;
        let linkbase = Linkbase::from_document(spec_doc(sources, LINKBASE_PATH)?, LINKBASE_PATH)
            .map_err(|e| e.to_string())?;
        let weaver = compile_weaver(&linkbase)?;
        let shadow = publisher.store().to_site();
        let mirror = ShardedSiteStore::with_retention(publisher.store().shard_count(), 1);
        mirror.publish_incremental(&shadow);
        Ok(PublishReplay {
            tracer,
            rows: Vec::new(),
            mismatches: Vec::new(),
            transform,
            linkbase,
            weaver,
            shadow,
            mirror,
        })
    }

    /// Re-times the stages of the commit that just published `prepared`.
    pub fn commit(
        &mut self,
        prepared: &Prepared,
        publisher: &SitePublisher,
        commit: Duration,
        outcome: &PublishOutcome,
    ) -> Result<(), String> {
        let sources = publisher.sources();
        let mut ns = [0u64; 12];
        let root = self.tracer.open();
        let start = Instant::now();
        let t = &mut self.tracer;

        let (_, d) = t.time("sources.clone", root, || sources.clone());
        ns[0] = d;
        let spec = matches!(prepared, Prepared::Spec { .. });
        let mut next = if spec {
            let (transform, d) = t.time("style.compile", root, || {
                Transform::from_document(spec_doc(sources, TRANSFORM_PATH)?)
                    .map_err(|e| e.to_string())
            });
            ns[2] = d;
            self.transform = transform?;
            let (parsed, d) = t.time("xlink.parse", root, || -> Result<_, String> {
                let lb = Linkbase::from_document(spec_doc(sources, LINKBASE_PATH)?, LINKBASE_PATH)
                    .map_err(|e| e.to_string())?;
                let map = navigation_map(&lb).map_err(|e| e.to_string())?;
                Ok((lb, map))
            });
            ns[3] = d;
            let (linkbase, map) = parsed?;
            self.linkbase = linkbase;
            let (resolved, d) = t.time("xlink.resolve", root, || {
                Resolver::new(sources, LINKBASE_PATH)
                    .resolve(&self.linkbase)
                    .map(|_| ())
            });
            ns[4] = d;
            resolved.map_err(|e| e.to_string())?;
            let (weaver, d) = t.time("aspect.compile", root, || {
                Weaver::new()
                    .aspect(navigation_aspect_shared(Arc::new(map)))
                    .compile()
            });
            ns[5] = d;
            self.weaver = weaver;
            let mut bases = Vec::new();
            let mut woven = BTreeMap::new();
            for (path, res) in sources.iter() {
                if path == LINKBASE_PATH || path == TRANSFORM_PATH {
                    continue;
                }
                let (Some(doc), Some(page)) = (res.document(), data_to_page(path)) else {
                    continue;
                };
                let (base, d) = t.time("style.transform", root, || self.transform.apply(doc));
                ns[6] += d;
                bases.push((page, base.map_err(|e| e.to_string())?));
            }
            for (page, base) in bases {
                let (result, d) = t.time("aspect.weave", root, || {
                    self.weaver.weave_page(&page, &base)
                });
                ns[7] += d;
                woven.insert(page, result.map_err(|e| e.to_string())?.0);
            }
            let (site, d) = t.time("site.assemble", root, || {
                let mut site = Site::new();
                for (page, doc) in woven {
                    site.put_page(page, doc);
                }
                for (path, res) in sources.iter() {
                    if let Resource::Raw { .. } = res {
                        site.put_resource(path, res.clone());
                    }
                }
                site
            });
            ns[8] = d;
            site
        } else {
            let (mut site, d) = t.time("site.clone", root, || self.shadow.clone());
            ns[1] = d;
            let (resolved, d) = t.time("xlink.resolve", root, || {
                Resolver::new(sources, LINKBASE_PATH)
                    .resolve(&self.linkbase)
                    .map(|_| ())
            });
            ns[4] = d;
            resolved.map_err(|e| e.to_string())?;
            match prepared {
                Prepared::Data { page, .. } => {
                    let data_path = slug_of_page(page).map(data_path).unwrap_or_default();
                    let doc = spec_doc(sources, &data_path)?;
                    let (base, d) = t.time("style.transform", root, || self.transform.apply(doc));
                    ns[6] = d;
                    let base = base.map_err(|e| e.to_string())?;
                    let (result, d) =
                        t.time("aspect.weave", root, || self.weaver.weave_page(page, &base));
                    ns[7] = d;
                    site.remove(page);
                    site.put_page(page.clone(), result.map_err(|e| e.to_string())?.0);
                }
                Prepared::Css { .. } => {
                    let css = sources.get(CSS_PATH).ok_or("sources lack museum.css")?;
                    site.put_resource(CSS_PATH, css.clone());
                }
                Prepared::Spec { .. } => unreachable!("spec commits take the full path"),
            }
            site
        };

        // Hash the fresh pages (the store's content key), then serialize
        // exactly the resources whose key changed, as the store will.
        let (_, d) = t.time("xml.content_hash", root, || {
            for (_, res) in next.iter() {
                if let Resource::Document { doc, .. } = res {
                    std::hint::black_box(doc.content_hash());
                }
            }
        });
        ns[9] = d;
        let changed: Vec<String> = next
            .iter()
            .filter(|(path, res)| match (self.shadow.get(path), res) {
                (Some(Resource::Document { doc: old, .. }), Resource::Document { doc, .. }) => {
                    old.content_hash() != doc.content_hash()
                }
                (Some(old @ Resource::Raw { .. }), Resource::Raw { .. }) => {
                    old.to_bytes() != res.to_bytes()
                }
                _ => true,
            })
            .map(|(path, _)| path.to_string())
            .collect();
        let (_, d) = t.time("xml.serialize", root, || {
            for path in &changed {
                if let Some(res) = next.get(path) {
                    std::hint::black_box(res.to_bytes());
                }
            }
        });
        ns[10] = d;
        let (stats, d) = t.time("store.publish_incremental", root, || {
            self.mirror.publish_incremental(&next)
        });
        // The store serializes what it renders; that share is xml.serialize.
        ns[11] = d.saturating_sub(ns[10]);
        let end = Instant::now();
        t.close(root, "replay.commit", 0, start, end);

        if stats.pages_rendered != outcome.store_publish.pages_rendered
            || stats.shards_swapped != outcome.store_publish.shards_swapped
        {
            self.mismatches.push(format!(
                "generation {}: replay rendered {} / swapped {}, commit rendered {} / swapped {}",
                outcome.generation,
                stats.pages_rendered,
                stats.shards_swapped,
                outcome.store_publish.pages_rendered,
                outcome.store_publish.shards_swapped
            ));
        }
        std::mem::swap(&mut self.shadow, &mut next);
        let commit_ns = commit.as_nanos() as u64;
        let attributed: u64 = ns.iter().sum();
        self.rows.push(CommitRow {
            kind: match prepared {
                Prepared::Data { .. } => "painting",
                Prepared::Css { .. } => "css",
                Prepared::Spec { .. } => "spec",
            },
            commit_ns,
            stage_ns: ns,
            unattributed_ns: commit_ns as i64 - attributed as i64,
            outcome: outcome.clone(),
        });
        Ok(())
    }
}

/// A sampled request of the run, replayed through the serving layers.
#[derive(Debug, Clone)]
pub struct ReplayRequest {
    /// Served path.
    pub path: String,
    /// HEAD instead of GET.
    pub head: bool,
    /// Back-button target generation.
    pub at: Option<u64>,
    /// The generation the live response was stamped with.
    pub generation: u64,
}

/// Per-request layer times of the serving replay.
#[derive(Debug, Default)]
pub struct ServeBreakdown {
    /// `RequestParser::push` + `next_request`, ns.
    pub parse_ns: Vec<f64>,
    /// `ShardedSiteHandler::handle`, ns.
    pub handle_ns: Vec<f64>,
    /// `ShardedSiteStore::get`, ns.
    pub get_ns: Vec<f64>,
    /// `ShardedSiteStore::get_at`, ns.
    pub get_at_ns: Vec<f64>,
    /// `serialize_response`, ns.
    pub serialize_ns: Vec<f64>,
    /// `ServerPool::submit` → callback minus the handle span it covers, ns.
    pub hop_ns: Vec<f64>,
}

/// Wraps the site handler to time `handle` on the pool's worker thread.
struct TimedHandler {
    inner: ShardedSiteHandler,
    last: Mutex<Option<(Instant, Instant)>>,
}

impl Handler for TimedHandler {
    fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        let response = self.inner.handle(request);
        let end = Instant::now();
        *self.last.lock().expect("handle span lock poisoned") = Some((start, end));
        response
    }
}

fn ns_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// Replays `requests` one at a time through each serving layer.
pub fn replay_serving(
    tracer: &mut Tracer,
    store: &Arc<ShardedSiteStore>,
    requests: &[ReplayRequest],
) -> Result<ServeBreakdown, String> {
    let direct = ShardedSiteHandler::new(Arc::clone(store));
    let timed = Arc::new(TimedHandler {
        inner: ShardedSiteHandler::new(Arc::clone(store)),
        last: Mutex::new(None),
    });
    let pool = ServerPool::start(Arc::clone(&timed), crate::stack::WORKERS);
    let mut out = ServeBreakdown::default();
    let (tx, rx) = mpsc::channel::<Instant>();
    let result = (|| {
        for r in requests {
            let root = tracer.open();
            let start = Instant::now();
            let mut request = if r.head {
                Request::head(&r.path)
            } else {
                Request::get(&r.path)
            };
            if let Some(g) = r.at {
                request = crate::client::replay_request(&r.path, g);
            }
            let bytes = serialize_request(&request);

            let p0 = Instant::now();
            let mut parser = RequestParser::new(WireLimits::default());
            parser.push(&bytes);
            let parsed = parser.next_request();
            let p1 = Instant::now();
            tracer.record("wire.parse", root, p0, p1);
            out.parse_ns.push(ns_between(p0, p1));
            let request = parsed
                .map_err(|e| format!("replay parse: {e:?}"))?
                .ok_or("replay parse: incomplete request")?
                .to_request();

            let h0 = Instant::now();
            let response = direct.handle(&request);
            let h1 = Instant::now();
            tracer.record("handler.handle", root, h0, h1);
            out.handle_ns.push(ns_between(h0, h1));
            if !response.status().is_success() {
                return Err(format!("replay {}: status {}", r.path, response.status()));
            }

            // Both lookups for every request: the latest read, and the
            // time-travel read of the generation it asked for (a fresh
            // read asks for the one it was served).
            let g0 = Instant::now();
            let latest = store.get(&r.path);
            let g1 = Instant::now();
            let at = store.get_at(&r.path, r.at.unwrap_or(r.generation));
            let g2 = Instant::now();
            tracer.record("store.get", root, g0, g1);
            tracer.record("store.get_at", root, g1, g2);
            out.get_ns.push(ns_between(g0, g1));
            out.get_at_ns.push(ns_between(g1, g2));
            std::hint::black_box((latest, at));

            let s0 = Instant::now();
            let wire = serialize_response(&response, r.head, true);
            let s1 = Instant::now();
            tracer.record("wire.serialize", root, s0, s1);
            out.serialize_ns.push(ns_between(s0, s1));
            std::hint::black_box(wire);

            let tx = tx.clone();
            let submit = tracer.open();
            let q0 = Instant::now();
            pool.submit(request, move |response| {
                let _ = tx.send(Instant::now());
                drop(response);
            });
            let q1 = rx.recv().map_err(|_| "pool dropped a reply".to_string())?;
            let (hs, he) = timed
                .last
                .lock()
                .expect("handle span lock poisoned")
                .take()
                .ok_or("pool answered without handling")?;
            let handle_span = tracer.record("handler.handle", submit, hs, he);
            tracer.close(submit, "server.submit", root, q0, q1);
            let spans = tracer.spans();
            let submit_span = spans
                .iter()
                .rev()
                .find(|s| s.id == submit)
                .expect("just closed");
            let child = spans
                .iter()
                .rev()
                .find(|s| s.id == handle_span)
                .expect("just recorded");
            out.hop_ns.push(self_time_ns(submit_span, &[child]) as f64);
            tracer.close(root, "replay.request", 0, start, Instant::now());
        }
        Ok(())
    })();
    pool.shutdown();
    result.map(|()| out)
}

/// Checks a spec commit's sampled pages against an uncached weave of the
/// sources it published.
pub fn check_against_uncached(sources: &Site, pages: &[(String, u64)]) -> Result<(), String> {
    let woven = weave_separated(sources).map_err(|e| format!("uncached weave: {e}"))?;
    for (page, hash) in pages {
        let bytes = woven
            .site
            .get(page)
            .map(Resource::to_bytes)
            .ok_or_else(|| format!("uncached weave lacks {page}"))?;
        if navsep_xml::fnv1a64(&bytes) != *hash {
            return Err(format!(
                "{page}: served bytes differ from an uncached weave"
            ));
        }
    }
    Ok(())
}
