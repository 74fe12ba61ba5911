//! The system under test: `SitePublisher` → `ShardedSiteStore` →
//! `HttpListener` over loopback, built from the 1k-page woven museum.

use crate::client::{read_request, Conn};
use navsep_core::layout::LINKBASE_PATH;
use navsep_core::museum::{generated_museum, museum_navigation};
use navsep_core::spec::paper_spec;
use navsep_core::{assert_site_equivalent, separated_sources, tangled_site, SitePublisher};
use navsep_hypermodel::{AccessStructureKind, InstanceStore};
use navsep_web::{HttpListener, ListenerConfig, ShardedSiteHandler, ShardedSiteStore};
use navsep_xml::Document;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Painters in the generated museum.
pub const PAINTERS: usize = 40;
/// Paintings per painter (40 × 24 = 960 paintings, ~1003 pages).
pub const PAINTINGS_PER_PAINTER: usize = 24;
/// Movements partitioning the paintings.
pub const MOVEMENTS: usize = 3;
/// Store shards.
pub const SHARDS: usize = 16;
/// Retained epochs (the live one included).
pub const RETENTION: usize = 4;
/// Pool workers behind the listener.
pub const WORKERS: usize = 2;
/// Event-loop threads.
pub const LOOPS: usize = 2;
/// Pipelined requests admitted per connection.
pub const MAX_PIPELINE: usize = 32;
/// Idle keep-alive timeout: longer than any phase, so the author's
/// connection survives the read phases.
pub const KEEP_ALIVE: Duration = Duration::from_secs(120);

/// The fixed listener configuration every run serves with.
pub fn listener_config() -> ListenerConfig {
    ListenerConfig::new(WORKERS)
        .loops(LOOPS)
        .max_pipeline(MAX_PIPELINE)
        .keep_alive_timeout(KEEP_ALIVE)
}

/// The configuration as printed in every run's header.
pub fn describe_config() -> String {
    let config = listener_config();
    format!(
        "listener workers={} queue={} loops={} max_pipeline={} keep_alive={}s max_connections={}; \
         store shards={SHARDS} retention={RETENTION}; corpus generated_museum({PAINTERS}, \
         {PAINTINGS_PER_PAINTER}, {MOVEMENTS}, seed) with paper_spec(Index)",
        config.pool.workers,
        config.pool.queue_capacity,
        config.loops,
        config.max_pipeline,
        config.keep_alive_timeout.as_secs(),
        config.max_connections
    )
}

/// A running stack plus the inputs the workloads draw on.
pub struct Stack {
    /// The instance model the sources were derived from.
    pub model: InstanceStore,
    /// Owns the sources; every commit goes through it.
    pub publisher: SitePublisher,
    /// The store the listener serves.
    pub store: Arc<ShardedSiteStore>,
    /// The HTTP front end on 127.0.0.1.
    pub listener: HttpListener,
    /// Every served path, sorted.
    pub paths: Vec<String>,
    /// `links.xml` under the Index access structure.
    pub index_links: Document,
    /// `links.xml` under the Indexed Guided Tour.
    pub igt_links: Document,
    /// Requests the warm-up sent.
    pub warmup_sent: u64,
}

/// Builds the stack for `seed`: derive the separated sources (and the
/// alternative linkbase), make the first full commit, bind the listener,
/// and warm up by reading every path once (each body checked against the
/// store).
pub fn build(seed: u64) -> Result<Stack, String> {
    let model = generated_museum(PAINTERS, PAINTINGS_PER_PAINTER, MOVEMENTS, seed);
    let nav = museum_navigation();
    let sources = separated_sources(&model, &nav, &paper_spec(AccessStructureKind::Index))
        .map_err(|e| format!("deriving sources: {e}"))?;
    let igt_sources = separated_sources(
        &model,
        &nav,
        &paper_spec(AccessStructureKind::IndexedGuidedTour),
    )
    .map_err(|e| format!("deriving the IGT sources: {e}"))?;
    let links = |site: &navsep_web::Site| {
        site.get(LINKBASE_PATH)
            .and_then(|r| r.document())
            .cloned()
            .ok_or_else(|| "sources lack links.xml".to_string())
    };
    let index_links = links(&sources)?;
    let igt_links = links(&igt_sources)?;
    drop(igt_sources);

    let store = Arc::new(ShardedSiteStore::with_retention(SHARDS, RETENTION));
    let mut publisher = SitePublisher::new(sources, Arc::clone(&store));
    publisher
        .commit()
        .map_err(|e| format!("first commit: {e}"))?;
    let handler = Arc::new(ShardedSiteHandler::new(Arc::clone(&store)));
    let listener = HttpListener::bind("127.0.0.1:0", handler, listener_config())
        .map_err(|e| format!("binding the listener: {e}"))?;

    let paths = store.paths();
    let mut conn =
        Conn::connect(listener.local_addr()).map_err(|e| format!("warm-up connect: {e}"))?;
    for path in &paths {
        let response = conn
            .exchange(&read_request(path, false), false)
            .map_err(|e| format!("warm-up GET {path}: {e}"))?;
        let expected = store.get(path).map(|r| r.body());
        if response.status != 200 || expected.as_deref() != Some(&response.body[..]) {
            return Err(format!(
                "warm-up GET {path}: status {} or wrong bytes",
                response.status
            ));
        }
    }
    let warmup_sent = paths.len() as u64;
    Ok(Stack {
        model,
        publisher,
        store,
        listener,
        paths,
        index_links,
        igt_links,
        warmup_sent,
    })
}

impl Stack {
    /// Stops the listener (draining in-flight requests) and drops the rest.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

/// Builds the stack `setups` times, keeping the last; returns it with
/// every set-up's wall time in seconds.
pub fn build_timed(seed: u64, setups: usize) -> Result<(Stack, Vec<f64>), String> {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = kept.take() {
            Stack::shutdown(previous);
        }
        let start = Instant::now();
        let stack = build(seed)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(stack);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The paper's invariant on the live site: the woven site the store
/// serves after the first commit is DOM-equivalent to the tangled site
/// derived from the same model.
pub fn check_invariant(stack: &Stack) -> Result<(), String> {
    let tangled = tangled_site(
        &stack.model,
        &museum_navigation(),
        &paper_spec(AccessStructureKind::Index),
    )
    .map_err(|e| format!("tangled derivation: {e}"))?;
    assert_site_equivalent(&tangled, &stack.store.to_site())
}
