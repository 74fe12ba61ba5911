//! The sharded, epoch-published site store — serving without a site-wide
//! lock.
//!
//! [`ShardedSiteStore`] keeps a publish (re-weave) from locking every
//! reader out at once and keeps readers off one shared lock word:
//!
//! * **Sharding** — resources are partitioned across N shards by a stable
//!   hash of the page id (the path), so concurrent readers of different
//!   pages touch different locks;
//! * **Epoch publishing** — each shard holds an `Arc<Shard>` snapshot
//!   stamped with the *generation* that published it. A publish builds the
//!   new shards while reads proceed on the old ones, then swaps the
//!   changed `Arc` pointers under a brief write lock each. Readers never
//!   wait on a weave — only on a pointer swap.
//!
//! A read clones the shard's `Arc` and then works lock-free on the
//! immutable snapshot, so every response is served from exactly one
//! generation: the data and its generation stamp travel in the same
//! snapshot and cannot tear. The concurrent test
//! `crates/web/tests/concurrent_store.rs` hammers this invariant.
//!
//! Immutability buys a second win: response bodies are **serialized once
//! at publish time** and served as refcounted [`bytes::Bytes`] clones, so
//! a `GET` allocates nothing.
//!
//! ## Publishing
//!
//! Every publish applies a [`ChangeSet`] (path → new resource, or removal)
//! to the live epoch, keyed by a stable content key
//! ([`navsep_xml::Document::content_hash`] for documents, an FNV of the raw
//! bytes otherwise): a put whose key is unchanged reuses the previous
//! epoch's `Arc<Published>` verbatim (no render, no allocation), a changed
//! shard's path map is copied once and patched, and shards with no changed
//! page are neither rebuilt nor swapped — they keep their old snapshot and
//! its old generation stamp. A caller that knows what it changed publishes
//! the change set directly
//! ([`try_publish_changes`](ShardedSiteStore::try_publish_changes)), which
//! looks only at the shards it lands in;
//! [`try_publish_incremental`](ShardedSiteStore::try_publish_incremental)
//! diffs a whole site into one first and applies it the same way. Both run
//! one write routine, which consults an [armed](ShardedSiteStore::arm_faults)
//! fault plan before anything goes live. `cargo bench -p navsep-bench
//! --bench server_throughput` (`incremental_publish` group) quantifies the
//! gap to re-rendering the whole site.
//!
//! ## Retained epochs and time travel
//!
//! The store retains a bounded ring of the last R epochs' shard snapshots
//! (sharing unchanged `Arc<Shard>`s between epochs, so retention after
//! incremental publishes costs only the changed shards).
//! [`get_at`](ShardedSiteStore::get_at) serves a path exactly as the
//! requested generation served it; over HTTP the client asks with the
//! [`AT_GENERATION_HEADER`] request header. A generation past the
//! retention horizon **degrades to latest** with the explicit
//! [`DEGRADED_HEADER`] response header — never a silent substitution.
//! Eviction is biased by what live sessions' histories still reference:
//! a [`pin`](ShardedSiteStore::pin) keeps that generation's epoch in the
//! ring while older *unpinned* epochs are evicted first (the ring stays
//! bounded: if every candidate is pinned the oldest goes anyway).
//!
//! ## Eviction and retirement
//!
//! A publish goes live in this order:
//!
//! 1. under the ring's write lock, push the new epoch and unlink the
//!    victims past capacity — nothing is freed while `get_at` readers
//!    wait on that lock;
//! 2. swap the changed shard pointers, then store the new generation;
//! 3. retire the victims: each of their shards that the store owned alone
//!    (no newer epoch shares it, no read holds it) goes to the back of a
//!    retired backlog, and the publishing thread drops backlog entries
//!    newest first, on a **page budget**: an entry something else still
//!    shares (a live epoch, another retired shard) costs one decrement and
//!    is always dropped, while pages only the backlog holds are freed up to
//!    the number of pages the publish rendered, at least one. Then the
//!    oldest shard is freed whole if it was retired `shard_count` or more
//!    publishes ago, and so is, oldest first, whatever exceeds one site's
//!    worth (`shard_count` shards).
//!
//! Evicting the last epoch that holds a superseded full weave (the
//! epochs after a `links.xml` swap) therefore costs the one-page edit that
//! evicts it one page's free, not a shard's or the whole weave's, and never
//! before that publish is visible. A caller about to build a whole new
//! site frees the rest with
//! [`free_retired`](ShardedSiteStore::free_retired) first, so the old site
//! is not alive beside the new one; without one, every retired shard is
//! freed within `2 × shard_count` publishes. Dropping the store frees the
//! backlog at once.

use crate::fault::{self, FaultError, FaultKind, FaultPlan};
use crate::http::{Method, Request, Response};
use crate::server::Handler;
use crate::site::{Resource, Site};
use crate::sync::{lock, read, write};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Response header carrying the generation that served a request.
pub const GENERATION_HEADER: &str = "x-navsep-generation";

/// Request header for a **conditional-navigation check**: the client sends
/// the generation a history entry recorded, and the response's
/// [`STALE_HEADER`] says whether the site has been rewoven since.
pub const IF_GENERATION_HEADER: &str = "x-navsep-if-generation";

/// Response header answering a conditional-navigation check: `"stale"`
/// when the serving generation is newer than the one the client recorded,
/// `"fresh"` otherwise. Only present when the request carried
/// [`IF_GENERATION_HEADER`].
pub const STALE_HEADER: &str = "x-navsep-stale";

/// Request header for **time travel**: serve the path exactly as the named
/// generation served it (a real back button, not a refetch). Answered from
/// the retained-epoch ring; see [`DEGRADED_HEADER`] for the past-horizon
/// case.
pub const AT_GENERATION_HEADER: &str = "x-navsep-at-generation";

/// Response header (value `"latest"`) marking that a requested generation
/// has been evicted past the retention horizon and the response degraded
/// to the latest epoch instead. [`GENERATION_HEADER`] then carries the
/// generation actually served.
pub const DEGRADED_HEADER: &str = "x-navsep-degraded";

/// Epochs the store retains by default (the latest plus seven history
/// epochs). Override with [`ShardedSiteStore::with_retention`].
pub const DEFAULT_RETENTION: usize = 8;

/// Stable 64-bit hash ([`navsep_xml::fnv1a64`]) of the slash-normalized
/// path, used to assign page ids to shards.
///
/// Deterministic across processes (unlike `std`'s `RandomState`), so shard
/// assignment is reproducible in tests and figures.
pub fn page_shard_hash(path: &str) -> u64 {
    navsep_xml::fnv1a64(path.trim_start_matches('/').as_bytes())
}

/// Stable content key of a resource, the identity the incremental diff
/// compares across epochs: the document's memoized
/// [`content_hash`](navsep_xml::Document::content_hash) (or an FNV of the
/// raw bytes), mixed with the media type so a re-typed body never aliases.
///
/// A document whose memo is unset (a freshly woven page) is serialized to
/// compute the key; those bytes come back too, so publishing the page
/// renders it once, and the memo holds the hash of the very bytes served.
fn content_key(res: &Resource) -> (u64, Option<bytes::Bytes>) {
    let (body_key, rendered) = match res {
        Resource::Document { doc, .. } => {
            let (hash, xml) = doc.content_hash_with_render();
            (hash, xml.map(bytes::Bytes::from))
        }
        Resource::Raw { body, .. } => (navsep_xml::fnv1a64(body), None),
    };
    let key = body_key ^ navsep_xml::fnv1a64(res.media_type().as_str().as_bytes());
    (key, rendered)
}

/// One resource as published into an epoch: the parsed form plus its
/// serialization, rendered **once** at publish time, plus the content key
/// the incremental diff compares.
///
/// Epoch snapshots are immutable, so the transmitted bytes of a resource
/// cannot change until the next publish — serializing per `GET` would
/// redo identical work on every request.
///
/// The resource is the same `Arc` the published [`Site`] held, so an epoch
/// shares its parsed documents with the publisher instead of copying them.
#[derive(Debug)]
struct Published {
    resource: Arc<Resource>,
    body: bytes::Bytes,
    content_key: u64,
}

impl Published {
    /// Publishes `resource` under `content_key`, serving `rendered` (what
    /// [`content_key`] rendered, if anything) or a fresh render.
    fn new(resource: &Arc<Resource>, content_key: u64, rendered: Option<bytes::Bytes>) -> Self {
        Published {
            body: rendered.unwrap_or_else(|| resource.to_bytes()),
            content_key,
            resource: Arc::clone(resource),
        }
    }
}

/// One immutable shard snapshot: the resources it owns plus the generation
/// that published them. Never mutated after publish — readers share it via
/// `Arc`, and epochs that did not change the shard share the same `Arc`.
#[derive(Debug)]
struct Shard {
    generation: u64,
    resources: BTreeMap<String, Arc<Published>>,
}

impl Shard {
    fn empty() -> Self {
        Shard {
            generation: 0,
            resources: BTreeMap::new(),
        }
    }
}

/// One retained epoch: the complete, coherent shard set a publish went
/// live with. Unchanged shards are the same `Arc` as in the neighbouring
/// epochs, so retention is cheap under incremental publishing.
#[derive(Debug)]
struct Epoch {
    generation: u64,
    shards: Vec<Arc<Shard>>,
}

/// A resource read out of the store: the resource plus the generation of
/// the snapshot that served it.
///
/// Everything comes from one shard snapshot, so `generation` is exactly
/// the generation that published `resource` — they cannot disagree. Under
/// incremental publishing the stamp is the generation that last *changed*
/// the resource's shard, which may trail the store's global
/// [`generation`](ShardedSiteStore::generation).
#[derive(Debug, Clone)]
pub struct ResourceRead {
    generation: u64,
    published: Arc<Published>,
}

impl ResourceRead {
    /// The generation of the snapshot this read came from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The resource itself (parsed form).
    pub fn resource(&self) -> &Resource {
        &self.published.resource
    }

    /// The transmitted bytes, pre-serialized at publish time. Cloning
    /// `Bytes` is a reference-count bump, so serving a response allocates
    /// nothing.
    pub fn body(&self) -> bytes::Bytes {
        self.published.body.clone()
    }
}

/// What one incremental publish did, page by page and shard by shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalPublish {
    /// The generation the publish went live as.
    pub generation: u64,
    /// Entries reused verbatim (`Arc` clone, no render) from the previous
    /// epoch.
    pub pages_reused: usize,
    /// Entries rendered fresh (new or changed content).
    pub pages_rendered: usize,
    /// Shards whose snapshot pointer was swapped.
    pub shards_swapped: usize,
    /// Shards left entirely untouched (old snapshot, old generation).
    pub shards_skipped: usize,
}

/// Output changes to publish: each path maps to its new resource, or to a
/// removal. Later changes to a path replace earlier ones. Paths are stored
/// without a leading `/`, as in a [`Site`].
///
/// [`ShardedSiteStore::try_publish_changes`] applies one to the live epoch;
/// [`apply_to`](Self::apply_to) applies the same changes to a [`Site`].
///
/// # Examples
///
/// ```
/// use navsep_web::{ChangeSet, ShardedSiteStore, Site};
/// use navsep_xml::Document;
/// use std::sync::Arc;
///
/// let mut site = Site::new();
/// site.put_text("a.txt", "one");
/// site.put_text("b.txt", "two");
/// let store = ShardedSiteStore::from_site(4, &site);
///
/// let mut changes = ChangeSet::new();
/// changes.put_shared("a.txt", Arc::new(navsep_web::Resource::Document {
///     media_type: navsep_web::MediaType::Xml,
///     doc: Document::parse("<a>edited</a>")?,
/// }));
/// changes.remove("b.txt");
/// let stats = store.try_publish_changes(&changes).expect("no faults armed");
/// assert_eq!((stats.pages_rendered, stats.pages_reused), (1, 0));
/// assert!(store.get("b.txt").is_none());
///
/// changes.apply_to(&mut site);
/// assert_eq!(site.len(), store.len());
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    changes: BTreeMap<String, Option<Arc<Resource>>>,
}

impl ChangeSet {
    /// An empty change set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Puts `resource` at `path`.
    pub fn put_shared(&mut self, path: &str, resource: Arc<Resource>) {
        self.set(path, Some(resource));
    }

    /// Removes whatever is at `path` (a no-op where nothing is).
    pub fn remove(&mut self, path: &str) {
        self.set(path, None);
    }

    fn set(&mut self, path: &str, change: Option<Arc<Resource>>) {
        self.changes
            .insert(path.trim_start_matches('/').to_string(), change);
    }

    /// The changes, sorted by path: `Some` is a put, `None` a removal.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Option<&Arc<Resource>>)> {
        self.changes
            .iter()
            .map(|(path, change)| (path.as_str(), change.as_ref()))
    }

    /// Applies the changes to `site` in place, sharing every put resource.
    pub fn apply_to(&self, site: &mut Site) {
        for (path, change) in self.iter() {
            match change {
                Some(res) => site.put_shared(path, Arc::clone(res)),
                None => {
                    site.remove_shared(path);
                }
            }
        }
    }
}

/// What an incremental publish applies to the live epoch.
#[derive(Clone, Copy)]
enum Changes<'a> {
    /// The whole next site, diffed against the live epoch.
    Site(&'a Site),
    /// The changes alone.
    Set(&'a ChangeSet),
}

/// One change by path: a put (`Some`) or a removal.
type Change<'a> = (&'a str, Option<&'a Arc<Resource>>);

/// An RAII pin keeping one generation's epoch in the retention ring while
/// live sessions' histories still reference it (see
/// [`ShardedSiteStore::pin`]). Dropping the pin releases the bias.
#[derive(Debug)]
pub struct EpochPin<'a> {
    store: &'a ShardedSiteStore,
    generation: u64,
}

impl EpochPin<'_> {
    /// The pinned generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        let mut pins = lock(&self.store.pins);
        if let Some(count) = pins.get_mut(&self.generation) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.generation);
            }
        }
    }
}

/// A sharded site store with atomic, incremental epoch publishing and a
/// bounded ring of retained generations.
///
/// # Examples
///
/// ```
/// use navsep_web::{ShardedSiteStore, Site};
/// use navsep_xml::Document;
///
/// let mut site = Site::new();
/// site.put_document("a.xml", Document::parse("<a>one</a>")?);
/// site.put_document("b.xml", Document::parse("<b>two</b>")?);
///
/// let store = ShardedSiteStore::new(4);
/// assert_eq!(store.generation(), 0);
/// let stats = store.publish_incremental(&site);
/// assert_eq!((stats.generation, stats.pages_rendered), (1, 2));
///
/// let read = store.get("a.xml").expect("published");
/// assert_eq!(read.generation(), 1);
/// // Bodies are pre-serialized at publish time; this clone is refcounted.
/// assert!(read.body().starts_with(b"<?xml"));
///
/// // A one-page edit republishes one page, and the old epoch stays
/// // servable through the retention ring.
/// site.put_document("a.xml", Document::parse("<a>edited</a>")?);
/// let stats = store.publish_incremental(&site);
/// assert_eq!((stats.pages_rendered, stats.pages_reused), (1, 1));
/// let old = store.get_at("a.xml", 1).expect("retained");
/// assert!(old.body().ends_with(b"<a>one</a>"));
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug)]
pub struct ShardedSiteStore {
    shards: Vec<RwLock<Arc<Shard>>>,
    /// Highest generation ever published (monotone).
    generation: AtomicU64,
    /// Serializes publishes so shard generations stay monotone in publish
    /// order (incremental publishes also diff under it, so the epoch they
    /// diff against is the epoch they replace).
    publish_lock: Mutex<()>,
    /// The retained epochs, oldest first; the back entry is always the
    /// live epoch.
    retained: RwLock<VecDeque<Epoch>>,
    /// generation → number of live pins ([`pin`](Self::pin)).
    pins: Mutex<BTreeMap<u64, usize>>,
    /// Shards of evicted epochs that the store owned alone, each with the
    /// generation that retired it, oldest first, waiting to be freed by
    /// later publishes a page at a time (see the module docs). At most one
    /// site's worth — `shards.len()` — once a publish returns.
    retired: Mutex<VecDeque<(u64, Shard)>>,
    /// Ring capacity (≥ 1).
    retain: usize,
    /// Fast-path flag for [`arm_faults`](Self::arm_faults); when false the
    /// fault subsystem costs one relaxed load per publish.
    faults_armed: AtomicBool,
    /// The armed plan, consulted at `fault::sites::STORE_PUBLISH` by every
    /// publish.
    faults: RwLock<Option<Arc<FaultPlan>>>,
}

impl ShardedSiteStore {
    /// An empty store with `shards` partitions, at generation 0, retaining
    /// [`DEFAULT_RETENTION`] epochs — sessions get snapshot-backed
    /// `back()` out of the box. See [`with_retention`](Self::with_retention)
    /// for the memory trade-off; a store that never serves time-travel
    /// reads should use `with_retention(shards, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_retention(shards, DEFAULT_RETENTION)
    }

    /// An empty store retaining up to `retain` epochs (the live epoch
    /// counts, so `retain = 1` keeps no history at all).
    ///
    /// Retention costs memory proportional to what *changed* between the
    /// retained epochs: publishes share unchanged shards between epochs,
    /// so a store whose every publish changes every page holds up to
    /// `retain` complete site copies. A store that never serves
    /// time-travel reads should use `retain = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `retain` is zero.
    pub fn with_retention(shards: usize, retain: usize) -> Self {
        assert!(shards > 0, "a sharded store needs at least one shard");
        assert!(retain > 0, "the live epoch must be retained");
        ShardedSiteStore {
            shards: (0..shards)
                .map(|_| RwLock::new(Arc::new(Shard::empty())))
                .collect(),
            generation: AtomicU64::new(0),
            publish_lock: Mutex::new(()),
            retained: RwLock::new(VecDeque::new()),
            pins: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(VecDeque::new()),
            retain,
            faults_armed: AtomicBool::new(false),
            faults: RwLock::new(None),
        }
    }

    /// Arms `plan`: every subsequent publish consults it at
    /// [`fault::sites::STORE_PUBLISH`]. Disarmed stores pay a single
    /// relaxed atomic load.
    pub fn arm_faults(&self, plan: Arc<FaultPlan>) {
        *write(&self.faults) = Some(plan);
        self.faults_armed.store(true, Ordering::SeqCst);
    }

    /// Disarms any armed fault plan.
    pub fn disarm_faults(&self) {
        self.faults_armed.store(false, Ordering::SeqCst);
        *write(&self.faults) = None;
    }

    /// Consults the armed plan (if any) at the `store.publish` site. Called
    /// under the publish lock after rendering, before any epoch retention
    /// or shard swap — so an injected failure aborts a publish with the old
    /// epoch fully intact.
    fn consult_publish_faults(&self) -> Result<(), FaultError> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let plan = read(&self.faults).clone();
        let Some(plan) = plan else { return Ok(()) };
        match plan.decide(fault::sites::STORE_PUBLISH, "commit") {
            None => Ok(()),
            Some(FaultKind::Panic) => {
                panic!(
                    "injected fault: panic at {} [commit]",
                    fault::sites::STORE_PUBLISH
                )
            }
            Some(FaultKind::Slow(delay)) => {
                std::thread::sleep(delay);
                Ok(())
            }
            Some(FaultKind::Error(message)) => Err(FaultError::new(
                fault::sites::STORE_PUBLISH,
                "commit",
                message,
            )),
            Some(FaultKind::Disconnect) => Err(FaultError::new(
                fault::sites::STORE_PUBLISH,
                "commit",
                "disconnect",
            )),
        }
    }

    /// A store seeded with `site` as generation 1.
    pub fn from_site(shards: usize, site: &Site) -> Self {
        let store = Self::new(shards);
        store.publish_incremental(site);
        store
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ring capacity: how many epochs (including the live one) the store
    /// retains.
    pub fn retention(&self) -> usize {
        self.retain
    }

    /// The shard index a path maps to.
    pub fn shard_of(&self, path: &str) -> usize {
        (page_shard_hash(path) % self.shards.len() as u64) as usize
    }

    /// The latest *fully published* generation (0 before the first
    /// publish): every shard has been swapped to it before it is reported
    /// here, so a `get` after reading this can never observe an older
    /// epoch. (During a swap, individual reads may briefly run *ahead* of
    /// this value — never behind.)
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Publishes `site` as the next generation by **diffing against the
    /// previous epoch**: the site is diffed into a [`ChangeSet`] (every
    /// path whose resource is not the very `Arc` the previous epoch
    /// serves, plus a removal for every path the site dropped), which is
    /// then applied exactly as [`try_publish_changes`] applies one.
    /// Entries whose content key is unchanged reuse the previous
    /// `Arc<Published>` verbatim (no render, no allocation), and shards
    /// with no changed, added, or removed entries are not swapped at all —
    /// they keep their old snapshot and its old generation stamp.
    ///
    /// The diff runs under the publish lock (so it is against exactly the
    /// epoch being replaced); readers are never blocked — they keep being
    /// served the previous epoch until each shard's pointer swap. The diff
    /// walks the whole site; a caller that knows what it changed (what
    /// [`SitePublisher`](https://docs.rs/navsep-core) does) publishes that
    /// change set directly instead.
    ///
    /// A publish that changes nothing still advances the global
    /// generation (the epoch ring records it), but no shard is touched.
    ///
    /// This is [`try_publish_incremental`](Self::try_publish_incremental)
    /// for a store with no [armed](Self::arm_faults) fault plan, where it
    /// cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if an armed fault plan fails the publish.
    ///
    /// [`try_publish_changes`]: Self::try_publish_changes
    pub fn publish_incremental(&self, site: &Site) -> IncrementalPublish {
        self.try_publish_incremental(site)
            .expect("an armed fault plan failed publish_incremental")
    }

    /// [`publish_incremental`](Self::publish_incremental), but returning
    /// the failure of an [armed](Self::arm_faults) fault plan, consulted at
    /// [`fault::sites::STORE_PUBLISH`] — under the publish lock, after the
    /// diff and render, **before** any epoch retention or shard swap. An
    /// `Err` therefore guarantees the store still serves the old epoch:
    /// same generation, same retained ring, no shard touched. Generations
    /// stay monotone across any mix of failed and successful publishes.
    pub fn try_publish_incremental(&self, site: &Site) -> Result<IncrementalPublish, FaultError> {
        self.apply_changes(Changes::Site(site))
    }

    /// Publishes the live epoch with `changes` applied as the next
    /// generation — the incremental publish of a caller that knows what
    /// it changed. Only the shards a change lands in are looked at: a put
    /// whose content key equals the live entry's reuses that entry, and a
    /// shard left with no rendered, added or removed entry keeps its
    /// snapshot and stamp. A changed shard's path map is copied once and
    /// patched. The counts are those [`publish_incremental`] reports for
    /// the site the change set produces.
    ///
    /// Consults an [armed](Self::arm_faults) fault plan exactly as
    /// [`try_publish_incremental`](Self::try_publish_incremental) does; an
    /// `Err` leaves the old epoch fully intact.
    ///
    /// [`publish_incremental`]: Self::publish_incremental
    pub fn try_publish_changes(
        &self,
        changes: &ChangeSet,
    ) -> Result<IncrementalPublish, FaultError> {
        self.apply_changes(Changes::Set(changes))
    }

    /// The one publish: under the publish lock, `changes` is taken as a
    /// change set against the live epoch (a whole site is diffed into one:
    /// every path whose resource is not the very `Arc` the live epoch
    /// serves, plus a removal of every path it dropped), applied shard by
    /// shard, then (after the fault check) retained and swapped in.
    fn apply_changes(&self, changes: Changes<'_>) -> Result<IncrementalPublish, FaultError> {
        let n = self.shards.len();
        let swap_guard = lock(&self.publish_lock);
        // The publish lock serializes publishers, so load+store is race-free
        // here; the counter is advanced only AFTER every shard serves the
        // new epoch, keeping `generation()`'s contract (see its doc).
        let generation = self.generation.load(Ordering::Acquire) + 1;
        let previous: Vec<Arc<Shard>> = self.shards.iter().map(|s| Arc::clone(&read(s))).collect();
        // The changes by shard, borrowing every path: a whole-site diff
        // allocates no path copies that the publish would free at its end.
        let mut buckets: Vec<Vec<Change<'_>>> = vec![Vec::new(); n];
        match changes {
            Changes::Set(set) => {
                for (path, change) in set.iter() {
                    buckets[self.shard_of(path)].push((path, change));
                }
            }
            Changes::Site(site) => {
                for (path, res) in site.iter_shared() {
                    let idx = self.shard_of(path);
                    let live = previous[idx].resources.get(path);
                    if !live.is_some_and(|published| Arc::ptr_eq(&published.resource, res)) {
                        buckets[idx].push((path, Some(res)));
                    }
                }
                for (idx, shard) in previous.iter().enumerate() {
                    for path in shard.resources.keys() {
                        if site.get_shared(path).is_none() {
                            buckets[idx].push((path, None));
                        }
                    }
                }
            }
        }
        let mut pages_rendered = 0;
        let mut epoch_shards = previous.clone();
        let mut changed = vec![false; n];
        for (idx, bucket) in buckets.into_iter().enumerate() {
            let prev = &previous[idx];
            // Copied from the live shard on its first real change only.
            let mut patched: Option<BTreeMap<String, Arc<Published>>> = None;
            for (path, change) in bucket {
                match change {
                    Some(res) => {
                        let (key, rendered) = content_key(res);
                        let live = prev.resources.get(path);
                        if live.is_some_and(|published| published.content_key == key) {
                            continue;
                        }
                        pages_rendered += 1;
                        let entry = Arc::new(Published::new(res, key, rendered));
                        let resources = patched.get_or_insert_with(|| prev.resources.clone());
                        match resources.get_mut(path) {
                            Some(slot) => *slot = entry,
                            None => {
                                resources.insert(path.to_string(), entry);
                            }
                        }
                    }
                    None if prev.resources.contains_key(path) => {
                        patched
                            .get_or_insert_with(|| prev.resources.clone())
                            .remove(path);
                    }
                    None => {}
                }
            }
            if let Some(resources) = patched {
                changed[idx] = true;
                epoch_shards[idx] = Arc::new(Shard {
                    generation,
                    resources,
                });
            }
        }
        let entries: usize = epoch_shards.iter().map(|s| s.resources.len()).sum();
        let shards_swapped = changed.iter().filter(|&&c| c).count();
        // The last moment a publish can abort cleanly: nothing below this
        // point may fail, because retention and shard swaps must land
        // together.
        self.consult_publish_faults()?;
        // Retain the epoch BEFORE swapping the live shards: a reader that
        // observes a generation-N stamp must already be able to `get_at`
        // it (serving an epoch slightly before its swap completes is
        // harmless — it is real published data).
        let evicted = self.push_epoch(Epoch {
            generation,
            shards: epoch_shards.clone(),
        });
        for (idx, snapshot) in epoch_shards.into_iter().enumerate() {
            if changed[idx] {
                *write(&self.shards[idx]) = snapshot;
            }
        }
        self.generation.store(generation, Ordering::Release);
        drop(swap_guard);
        // A shard this publish replaced may also sit in an evicted epoch:
        // released here, the ring's reference is its last, so retirement
        // frees it on the page budget instead of this snapshot freeing it
        // whole at the end of the publish.
        drop(previous);
        self.retire(evicted, pages_rendered, generation);
        Ok(IncrementalPublish {
            generation,
            pages_reused: entries - pages_rendered,
            pages_rendered,
            shards_swapped,
            shards_skipped: n - shards_swapped,
        })
    }

    /// Appends the epoch to the ring and returns the epochs evicted past
    /// capacity, still alive: the caller [retires](Self::retire) them once
    /// its shard swap is done, so nothing is freed under the ring's write
    /// lock (which every `get_at` waits on). Eviction is biased by live
    /// pins: the oldest *unpinned* epoch goes first; if everything old is
    /// pinned the oldest goes anyway (the ring is a hard bound). The live
    /// (newest) epoch is never the victim.
    fn push_epoch(&self, epoch: Epoch) -> Vec<Epoch> {
        let mut ring = write(&self.retained);
        #[cfg(test)]
        let _held = tests::RetainedWriteHeld::enter();
        ring.push_back(epoch);
        let mut evicted = Vec::new();
        while ring.len() > self.retain {
            let candidates = ring.len() - 1; // never evict the live epoch
            let victim = {
                let pins = lock(&self.pins);
                ring.iter()
                    .take(candidates)
                    .position(|e| !pins.contains_key(&e.generation))
                    .unwrap_or(0)
            };
            evicted.extend(ring.remove(victim));
        }
        evicted
    }

    /// Retires the epochs that the publish of `generation` evicted, after
    /// that publish went live. Their shards that the store owned alone join
    /// the back of the retired backlog (a shard a newer epoch or an
    /// in-flight read still holds is only released). Then this thread
    /// drops backlog entries newest first: an entry something else still
    /// shares (a live epoch, another retired shard) costs one decrement and
    /// is always dropped, while pages only the backlog holds are freed up
    /// to `rendered` (the pages this publish rendered), at least one; a
    /// drained shard leaves the backlog. Finally the oldest shard is freed
    /// whole if it is overdue (retired `shard_count` or more publishes
    /// ago), and so is, oldest first, whatever exceeds one site's worth
    /// (`shard_count` shards).
    ///
    /// The page budget keeps a just-superseded full weave out of the edits
    /// that follow it: each frees as many old pages as it rendered new
    /// ones, and the next full weave frees the rest up front (see
    /// [`free_retired`](Self::free_retired)). Overdue-first bounds how
    /// long any shard waits when no full weave comes.
    fn retire(&self, evicted: Vec<Epoch>, rendered: usize, generation: u64) {
        let site_worth = self.shards.len();
        let mut backlog = lock(&self.retired);
        backlog.extend(
            evicted
                .into_iter()
                .flat_map(|epoch| epoch.shards)
                .filter_map(Arc::into_inner)
                .map(|shard| (generation, shard)),
        );
        let mut budget = rendered.max(1);
        while let Some((_, shard)) = backlog.back_mut() {
            let Some((_, entry)) = shard.resources.last_key_value() else {
                backlog.pop_back();
                continue;
            };
            if Arc::strong_count(entry) == 1 {
                if budget == 0 {
                    break;
                }
                budget -= 1;
            }
            shard.resources.pop_last();
        }
        let overdue = backlog.front().is_some_and(|(retired_at, _)| {
            generation.saturating_sub(*retired_at) >= site_worth as u64
        });
        if overdue {
            backlog.pop_front();
        }
        while backlog.len() > site_worth {
            backlog.pop_front();
        }
    }

    /// Frees every retired shard now, returning how many there were. A
    /// caller about to build a whole new site (a full weave) calls this
    /// first, so the retired backlog is not still alive beside the new
    /// site at its peak.
    pub fn free_retired(&self) -> usize {
        let freed = std::mem::take(&mut *lock(&self.retired));
        freed.len()
    }

    /// Shard snapshots evicted from the ring and not yet (fully) freed: at most
    /// [`shard_count`](Self::shard_count) once a publish has returned.
    pub fn retired_shards(&self) -> usize {
        lock(&self.retired).len()
    }

    /// Pins `generation`'s epoch in the retention ring: while any pin on a
    /// generation is live, eviction prefers other epochs. Sessions pin the
    /// generations their histories reference so `back()` stays servable
    /// while the publisher churns. Pinning cannot resurrect an epoch that
    /// was already evicted — pin before the churn, not after.
    pub fn pin(&self, generation: u64) -> EpochPin<'_> {
        *lock(&self.pins).entry(generation).or_insert(0) += 1;
        EpochPin {
            store: self,
            generation,
        }
    }

    /// The generations currently retained, oldest first. The last entry is
    /// the live epoch's generation (equal to
    /// [`generation`](Self::generation) once the publish that produced it
    /// has completed).
    pub fn retained_generations(&self) -> Vec<u64> {
        read(&self.retained).iter().map(|e| e.generation).collect()
    }

    /// Looks up `path`, returning the resource together with the generation
    /// of the snapshot that served it.
    pub fn get(&self, path: &str) -> Option<ResourceRead> {
        let key = path.trim_start_matches('/');
        let snapshot = Arc::clone(&read(&self.shards[self.shard_of(path)]));
        snapshot.resources.get(key).map(|published| ResourceRead {
            generation: snapshot.generation,
            published: Arc::clone(published),
        })
    }

    /// Looks up `path` **as generation `generation` served it**: the
    /// time-travel read behind a real back button. `generation` is the
    /// stamp a previous read reported ([`ResourceRead::generation`] /
    /// [`GENERATION_HEADER`]) — i.e. the generation that last changed the
    /// path's shard at the time of that read.
    ///
    /// Returns `None` when the epoch has been evicted past the retention
    /// horizon (callers degrade to [`get`](Self::get), explicitly — see
    /// [`DEGRADED_HEADER`]) or when the path did not exist then.
    pub fn get_at(&self, path: &str, generation: u64) -> Option<ResourceRead> {
        let key = path.trim_start_matches('/');
        let idx = self.shard_of(path);
        let ring = read(&self.retained);
        // Newest first; per-shard generations are monotone across epochs,
        // so once they drop below the target no older epoch can match.
        for epoch in ring.iter().rev() {
            let shard = &epoch.shards[idx];
            if shard.generation == generation {
                return shard.resources.get(key).map(|published| ResourceRead {
                    generation,
                    published: Arc::clone(published),
                });
            }
            if shard.generation < generation {
                break;
            }
        }
        None
    }

    /// The live epoch's shard set — one coherent snapshot for whole-store
    /// reads.
    fn latest_epoch(&self) -> Option<Vec<Arc<Shard>>> {
        read(&self.retained).back().map(|e| e.shards.clone())
    }

    /// Total resources in the latest published epoch.
    ///
    /// Counted over one retained epoch snapshot, so the answer is always
    /// coherent — a publish concurrent with this call is either fully
    /// counted or not at all, never half-seen across shards.
    pub fn len(&self) -> usize {
        self.latest_epoch()
            .map(|shards| shards.iter().map(|s| s.resources.len()).sum())
            .unwrap_or(0)
    }

    /// `true` when nothing has been published (or the last epoch is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All paths of the latest published epoch, sorted. Like
    /// [`len`](Self::len), taken from one coherent epoch snapshot.
    pub fn paths(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .latest_epoch()
            .map(|shards| {
                shards
                    .iter()
                    .flat_map(|s| s.resources.keys().cloned().collect::<Vec<_>>())
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }

    /// Reassembles the latest epoch's resources into a [`Site`] (e.g. for
    /// auditing). The site shares every resource with the epoch; only the
    /// path map is built.
    pub fn to_site(&self) -> Site {
        let mut site = Site::new();
        if let Some(shards) = self.latest_epoch() {
            for snapshot in shards {
                for (path, published) in &snapshot.resources {
                    site.put_shared(path.clone(), Arc::clone(&published.resource));
                }
            }
        }
        site
    }
}

/// Serves a [`ShardedSiteStore`], stamping each response with the
/// generation that produced it (header [`GENERATION_HEADER`]) and
/// honouring the time-travel ([`AT_GENERATION_HEADER`]) and
/// conditional-navigation ([`IF_GENERATION_HEADER`]) request headers.
///
/// An answer is one shard read (or one retained-ring read for time
/// travel) and a few `Arc` clones, with no I/O; publishers take those
/// locks for write only to swap pointers, never while weaving. That is
/// what lets an [`HttpListener`](crate::HttpListener) call it on its
/// event loops.
///
/// # Examples
///
/// ```
/// use navsep_web::{Request, ShardedSiteHandler, ShardedSiteStore, Site};
/// use navsep_web::store::GENERATION_HEADER;
/// use navsep_web::Handler;
/// use navsep_xml::Document;
/// use std::sync::Arc;
///
/// let mut site = Site::new();
/// site.put_document("a.xml", Document::parse("<a/>")?);
/// let store = Arc::new(ShardedSiteStore::from_site(8, &site));
/// let handler = ShardedSiteHandler::new(Arc::clone(&store));
///
/// let response = handler.handle(&Request::get("a.xml"));
/// assert!(response.status().is_success());
/// assert_eq!(response.header_value(GENERATION_HEADER), Some("1"));
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug)]
pub struct ShardedSiteHandler {
    store: Arc<ShardedSiteStore>,
    served: AtomicU64,
}

impl ShardedSiteHandler {
    /// Creates a handler over `store`.
    pub fn new(store: Arc<ShardedSiteStore>) -> Self {
        ShardedSiteHandler {
            store,
            served: AtomicU64::new(0),
        }
    }

    /// The underlying store (e.g. to publish new generations).
    pub fn store(&self) -> &Arc<ShardedSiteStore> {
        &self.store
    }

    /// Total requests handled since construction.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

impl Handler for ShardedSiteHandler {
    fn handle(&self, request: &Request) -> Response {
        self.served.fetch_add(1, Ordering::Relaxed);
        if !request.method().is_supported() {
            return Response::method_not_allowed();
        }
        // Normalize at the handler boundary: wire requests arrive as
        // `/a.xml`, store keys are bare (`a.xml`). Lookups and the 404
        // body both see the bare key, so the two spellings produce
        // byte-identical responses.
        let path = request.path().trim_start_matches('/');
        // Time travel: a client replaying a history entry names the
        // generation it recorded. Served from the retained-epoch ring;
        // past the horizon — or on a value we cannot even parse — we
        // degrade to latest with an explicit header, never silently.
        let (read, degraded) = match request.header_value(AT_GENERATION_HEADER) {
            Some(value) => match value
                .parse::<u64>()
                .ok()
                .and_then(|generation| self.store.get_at(path, generation))
            {
                Some(read) => (Some(read), false),
                None => (self.store.get(path), true),
            },
            None => (self.store.get(path), false),
        };
        match read {
            Some(read) => {
                let mut response = Response::ok(read.resource().media_type().as_str(), read.body())
                    .with_header(GENERATION_HEADER, read.generation().to_string());
                if degraded {
                    response = response.with_header(DEGRADED_HEADER, "latest");
                }
                // Conditional navigation: a client revisiting a history
                // entry tells us which generation it recorded; we answer
                // whether a reweave has superseded it since.
                if let Some(recorded) = request
                    .header_value(IF_GENERATION_HEADER)
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    let verdict = if read.generation() > recorded {
                        "stale"
                    } else {
                        "fresh"
                    };
                    response = response.with_header(STALE_HEADER, verdict);
                }
                match request.method() {
                    Method::Head => response.without_body(),
                    _ => response,
                }
            }
            None => Response::not_found(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navsep_xml::Document;
    use std::cell::Cell;

    thread_local! {
        /// Set while this thread holds the `retained` write lock.
        static RETAINED_WRITE_HELD: Cell<bool> = const { Cell::new(false) };
        /// Shards this thread freed, and how many of them it freed while
        /// holding the `retained` write lock.
        static SHARDS_FREED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// Marks the `retained` write lock held by this thread until dropped.
    pub(super) struct RetainedWriteHeld;

    impl RetainedWriteHeld {
        pub(super) fn enter() -> Self {
            RETAINED_WRITE_HELD.set(true);
            RetainedWriteHeld
        }
    }

    impl Drop for RetainedWriteHeld {
        fn drop(&mut self) {
            RETAINED_WRITE_HELD.set(false);
        }
    }

    impl Drop for Shard {
        fn drop(&mut self) {
            let (freed, under_lock) = SHARDS_FREED.get();
            SHARDS_FREED.set((
                freed + 1,
                under_lock + usize::from(RETAINED_WRITE_HELD.get()),
            ));
        }
    }

    fn site(stamp: &str) -> Site {
        let mut s = Site::new();
        s.put_document(
            "a.xml",
            Document::parse(&format!("<a>{stamp}</a>")).unwrap(),
        );
        s.put_document(
            "b.xml",
            Document::parse(&format!("<b>{stamp}</b>")).unwrap(),
        );
        s.put_css("style.css", format!("/* {stamp} */"));
        s
    }

    #[test]
    fn publish_bumps_generation_and_serves() {
        let store = ShardedSiteStore::new(4);
        assert_eq!(store.generation(), 0);
        assert!(store.get("a.xml").is_none());
        assert_eq!(store.publish_incremental(&site("v1")).generation, 1);
        assert_eq!(store.publish_incremental(&site("v2")).generation, 2);
        let read = store.get("a.xml").unwrap();
        assert_eq!(read.generation(), 2);
        assert!(String::from_utf8_lossy(&read.resource().to_bytes()).contains("v2"));
    }

    #[test]
    fn lookup_normalizes_leading_slash() {
        let store = ShardedSiteStore::from_site(3, &site("x"));
        assert!(store.get("/a.xml").is_some());
        assert_eq!(store.shard_of("/a.xml"), store.shard_of("a.xml"));
    }

    #[test]
    fn shards_partition_all_paths() {
        let mut s = Site::new();
        for i in 0..50 {
            s.put_text(format!("p{i}.txt"), format!("{i}"));
        }
        let store = ShardedSiteStore::from_site(8, &s);
        assert_eq!(store.len(), 50);
        assert_eq!(store.paths().len(), 50);
        for i in 0..50 {
            assert!(store.get(&format!("p{i}.txt")).is_some(), "p{i}");
        }
        // With 50 paths over 8 shards, more than one shard must be in use.
        let used: std::collections::BTreeSet<usize> = (0..50)
            .map(|i| store.shard_of(&format!("p{i}.txt")))
            .collect();
        assert!(used.len() > 1);
    }

    #[test]
    fn round_trips_through_site() {
        let original = site("rt");
        let store = ShardedSiteStore::from_site(5, &original);
        let rebuilt = store.to_site();
        assert_eq!(rebuilt.len(), original.len());
        assert_eq!(
            rebuilt.get("a.xml").unwrap().to_bytes(),
            original.get("a.xml").unwrap().to_bytes()
        );
    }

    #[test]
    fn handler_stamps_generation_header() {
        let store = Arc::new(ShardedSiteStore::from_site(4, &site("h")));
        let handler = ShardedSiteHandler::new(Arc::clone(&store));
        let r = handler.handle(&Request::get("a.xml"));
        assert_eq!(r.header_value(GENERATION_HEADER), Some("1"));
        assert_eq!(r.content_type(), Some("application/xml"));
        store.publish_incremental(&site("h2"));
        let r = handler.handle(&Request::get("a.xml"));
        assert_eq!(r.header_value(GENERATION_HEADER), Some("2"));
        assert!(r.body_text().contains("h2"));
        assert_eq!(handler.requests_served(), 2);
        let head = handler.handle(&Request::head("b.xml"));
        assert!(head.body().is_empty());
        assert_eq!(head.header_value(GENERATION_HEADER), Some("2"));
    }

    #[test]
    fn conditional_navigation_check_classifies_staleness() {
        let store = Arc::new(ShardedSiteStore::from_site(4, &site("v1")));
        let handler = ShardedSiteHandler::new(Arc::clone(&store));
        // Plain requests carry no staleness verdict.
        let plain = handler.handle(&Request::get("a.xml"));
        assert_eq!(plain.header_value(STALE_HEADER), None);
        // Recorded at the current generation: fresh.
        let fresh = handler.handle(&Request::get("a.xml").header(IF_GENERATION_HEADER, "1"));
        assert_eq!(fresh.header_value(STALE_HEADER), Some("fresh"));
        // A reweave supersedes the recorded generation: stale.
        store.publish_incremental(&site("v2"));
        let stale = handler.handle(&Request::get("a.xml").header(IF_GENERATION_HEADER, "1"));
        assert_eq!(stale.header_value(STALE_HEADER), Some("stale"));
        assert_eq!(stale.header_value(GENERATION_HEADER), Some("2"));
        // Unparsable conditionals are ignored, not errors.
        let junk = handler.handle(&Request::get("a.xml").header(IF_GENERATION_HEADER, "soon"));
        assert_eq!(junk.header_value(STALE_HEADER), None);
    }

    #[test]
    fn missing_resource_is_404() {
        let store = Arc::new(ShardedSiteStore::from_site(4, &site("x")));
        let handler = ShardedSiteHandler::new(store);
        assert_eq!(
            handler.handle(&Request::get("ghost.xml")).status().code(),
            404
        );
    }

    #[test]
    fn slashed_and_bare_paths_serve_identically() {
        let store = Arc::new(ShardedSiteStore::from_site(4, &site("norm")));
        store.publish_incremental(&site("norm2"));
        let handler = ShardedSiteHandler::new(store);
        let shapes = [
            Request::get("a.xml"),
            Request::head("a.xml"),
            Request::get("ghost.xml"),
            Request::get("a.xml").header(AT_GENERATION_HEADER, "1"),
            Request::get("a.xml").header(IF_GENERATION_HEADER, "1"),
        ];
        for bare in shapes {
            let slashed = {
                let mut r = Request::new(bare.method(), format!("/{}", bare.path()));
                for (name, value) in bare.headers() {
                    r = r.header(name.clone(), value.clone());
                }
                r
            };
            assert_eq!(
                handler.handle(&bare),
                handler.handle(&slashed),
                "{} {}",
                bare.method(),
                bare.path()
            );
        }
    }

    #[test]
    fn unsupported_methods_answer_405() {
        let store = Arc::new(ShardedSiteStore::from_site(4, &site("m")));
        let handler = ShardedSiteHandler::new(store);
        for method in [
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Options,
            Method::Other,
        ] {
            let r = handler.handle(&Request::new(method, "/a.xml"));
            assert_eq!(r.status().code(), 405, "{method}");
            assert_eq!(r.header_value("allow"), Some("GET, HEAD"));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedSiteStore::new(0);
    }

    #[test]
    #[should_panic(expected = "live epoch must be retained")]
    fn zero_retention_rejected() {
        let _ = ShardedSiteStore::with_retention(4, 0);
    }

    #[test]
    fn body_matches_resource_serialization() {
        let store = ShardedSiteStore::from_site(4, &site("pre"));
        let read = store.get("a.xml").unwrap();
        assert_eq!(read.body(), read.resource().to_bytes());
    }

    #[test]
    fn publishing_renders_a_fresh_page_once_and_seeds_its_hash_from_the_body() {
        let fresh = site("fresh");
        let store = ShardedSiteStore::new(4);
        store.publish_incremental(&fresh);
        let body = store.get("a.xml").unwrap().body();
        let doc = fresh.get("a.xml").unwrap().document().unwrap();
        assert_eq!(&body[..], doc.to_xml_string().as_bytes());
        // The memo is set, to the hash of the served bytes.
        assert_eq!(
            doc.content_hash_with_render(),
            (navsep_xml::fnv1a64(&body), None)
        );
    }

    #[test]
    fn hash_is_stable() {
        // Shard assignment must not drift between runs or platforms.
        assert_eq!(page_shard_hash("a.xml"), page_shard_hash("a.xml"));
        assert_eq!(page_shard_hash("/a.xml"), page_shard_hash("a.xml"));
        assert_ne!(page_shard_hash("a.xml"), page_shard_hash("b.xml"));
    }

    #[test]
    fn incremental_reuses_unchanged_entries_verbatim() {
        let store = ShardedSiteStore::from_site(4, &site("v1"));
        let before = store.get("b.xml").unwrap();
        // Edit only a.xml; b.xml and style.css must be the same Arc.
        let mut edited = site("v1");
        edited.put_document("a.xml", Document::parse("<a>v2</a>").unwrap());
        let stats = store.publish_incremental(&edited);
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.pages_rendered, 1);
        assert_eq!(stats.pages_reused, 2);
        assert!(stats.shards_swapped >= 1);
        let after = store.get("b.xml").unwrap();
        assert!(
            Arc::ptr_eq(&before.published, &after.published),
            "unchanged entry must be reused, not re-rendered"
        );
        assert!(store.get("a.xml").unwrap().body().ends_with(b"<a>v2</a>"));
    }

    #[test]
    fn incremental_skips_unchanged_shards_and_keeps_their_stamp() {
        // One shard per page, so an unchanged page means an unchanged
        // shard that keeps its old generation.
        let store = ShardedSiteStore::from_site(16, &site("v1"));
        let b_shard_gen = store.get("b.xml").unwrap().generation();
        assert_eq!(b_shard_gen, 1);
        let mut edited = site("v1");
        edited.put_document("a.xml", Document::parse("<a>v2</a>").unwrap());
        let stats = store.publish_incremental(&edited);
        assert!(stats.shards_skipped > 0, "{stats:?}");
        assert_eq!(store.generation(), 2);
        assert_eq!(store.get("a.xml").unwrap().generation(), 2);
        // The untouched shard still reports the generation that last
        // changed it.
        assert_eq!(store.get("b.xml").unwrap().generation(), 1);
    }

    #[test]
    fn incremental_handles_adds_and_removals() {
        let store = ShardedSiteStore::from_site(4, &site("v1"));
        let mut next = site("v1");
        next.remove("b.xml");
        next.put_text("new.txt", "fresh");
        let stats = store.publish_incremental(&next);
        assert_eq!(stats.pages_rendered, 1, "only the new page renders");
        assert!(store.get("b.xml").is_none());
        assert_eq!(store.get("new.txt").unwrap().generation(), 2);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn noop_incremental_publish_still_advances_generation() {
        let store = ShardedSiteStore::from_site(4, &site("v1"));
        let stats = store.publish_incremental(&site("v1"));
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.pages_rendered, 0);
        assert_eq!(stats.shards_swapped, 0);
        assert_eq!(store.generation(), 2);
        // Reads keep the stamp of the last change.
        assert_eq!(store.get("a.xml").unwrap().generation(), 1);
        assert_eq!(store.retained_generations(), [1, 2]);
    }

    #[test]
    fn failed_try_publish_leaves_old_epoch_fully_intact() {
        use crate::fault::{sites, FaultRule};

        let store = ShardedSiteStore::from_site(4, &site("v1"));
        let before_body = store.get("a.xml").unwrap().body().to_vec();
        store.arm_faults(Arc::new(FaultPlan::new(7).rule(
            FaultRule::at(sites::STORE_PUBLISH, FaultKind::Error("disk full".into())).times(1),
        )));

        let err = store.try_publish_incremental(&site("v2")).unwrap_err();
        assert_eq!(err.site, sites::STORE_PUBLISH);
        // Old epoch intact: generation, ring, and served bytes unchanged.
        assert_eq!(store.generation(), 1);
        assert_eq!(store.retained_generations(), [1]);
        assert_eq!(store.get("a.xml").unwrap().body().to_vec(), before_body);

        // The injected budget is spent: the retry succeeds and generations
        // stay monotone across the failed attempt.
        let stats = store.try_publish_incremental(&site("v2")).unwrap();
        assert_eq!(stats.generation, 2);
        assert!(String::from_utf8_lossy(&store.get("a.xml").unwrap().body()).contains("v2"));

        // Disarmed: the publish goes through unconsulted.
        store.disarm_faults();
        assert_eq!(store.publish_incremental(&site("v3")).generation, 3);
    }

    #[test]
    #[should_panic(expected = "an armed fault plan failed publish_incremental")]
    fn publish_incremental_consults_an_armed_plan() {
        use crate::fault::{sites, FaultRule};

        let store = ShardedSiteStore::from_site(4, &site("v1"));
        store.arm_faults(Arc::new(FaultPlan::new(7).rule(FaultRule::at(
            sites::STORE_PUBLISH,
            FaultKind::Error("disk full".into()),
        ))));
        store.publish_incremental(&site("v2"));
    }

    #[test]
    fn get_at_serves_retained_epochs_byte_identically() {
        let store = ShardedSiteStore::from_site(4, &site("v1"));
        let original = store.get("a.xml").unwrap().body();
        for round in 2..=4u64 {
            let mut s = site("v1");
            s.put_document(
                "a.xml",
                Document::parse(&format!("<a>v{round}</a>")).unwrap(),
            );
            store.publish_incremental(&s);
        }
        // Generation 1's body is still exactly what generation 1 served.
        let old = store.get_at("a.xml", 1).unwrap();
        assert_eq!(old.generation(), 1);
        assert_eq!(old.body(), original);
        // The live read serves the newest.
        assert!(store.get("a.xml").unwrap().body().ends_with(b"<a>v4</a>"));
        // A generation that never stamped this shard yields nothing.
        assert!(store.get_at("a.xml", 99).is_none());
    }

    #[test]
    fn retention_evicts_oldest_and_pins_bias_eviction() {
        let store = ShardedSiteStore::with_retention(2, 3);
        store.publish_incremental(&site("v1"));
        let _pin = store.pin(1);
        for round in 2..=5u64 {
            store.publish_incremental(&site(&format!("v{round}")));
        }
        // Capacity 3: generation 1 survives because it is pinned; the
        // unpinned middle generations were evicted instead.
        let retained = store.retained_generations();
        assert_eq!(retained.len(), 3);
        assert!(retained.contains(&1), "{retained:?}");
        assert!(retained.contains(&5), "{retained:?}");
        assert!(store.get_at("a.xml", 1).is_some());
        assert!(store.get_at("a.xml", 2).is_none(), "evicted past horizon");
        drop(_pin);
        store.publish_incremental(&site("v6"));
        // Unpinned now: generation 1 is the eviction victim.
        assert!(!store.retained_generations().contains(&1));
        assert!(store.get_at("a.xml", 1).is_none());
    }

    #[test]
    fn handler_serves_at_generation_and_degrades_explicitly() {
        let store = Arc::new(ShardedSiteStore::with_retention(4, 2));
        store.publish_incremental(&site("v1"));
        store.publish_incremental(&site("v2"));
        let handler = ShardedSiteHandler::new(Arc::clone(&store));
        // A retained generation is served as-was, no degradation header.
        let old = handler.handle(&Request::get("a.xml").header(AT_GENERATION_HEADER, "1"));
        assert_eq!(old.header_value(GENERATION_HEADER), Some("1"));
        assert_eq!(old.header_value(DEGRADED_HEADER), None);
        assert!(old.body_text().contains("v1"));
        // Push generation 1 past the horizon: the same request degrades to
        // latest, explicitly.
        store.publish_incremental(&site("v3"));
        let degraded = handler.handle(&Request::get("a.xml").header(AT_GENERATION_HEADER, "1"));
        assert_eq!(degraded.header_value(DEGRADED_HEADER), Some("latest"));
        assert_eq!(degraded.header_value(GENERATION_HEADER), Some("3"));
        assert!(degraded.body_text().contains("v3"));
        // Unknown paths are 404 regardless of time travel.
        let missing = handler.handle(&Request::get("ghost.xml").header(AT_GENERATION_HEADER, "1"));
        assert_eq!(missing.status().code(), 404);
        // An unparsable generation is still answered from latest — but
        // flagged, never passed off as the requested snapshot.
        for junk in ["soon", "20000000000000000000"] {
            let r = handler.handle(&Request::get("a.xml").header(AT_GENERATION_HEADER, junk));
            assert_eq!(r.header_value(DEGRADED_HEADER), Some("latest"), "{junk}");
            assert_eq!(r.header_value(GENERATION_HEADER), Some("3"));
        }
    }

    /// A site of `pages` pages, each stamped `stamp`.
    fn pages(pages: usize, stamp: &str) -> Site {
        let mut s = Site::new();
        for i in 0..pages {
            s.put_text(format!("p{i}.txt"), format!("{stamp} {i}"));
        }
        s
    }

    #[test]
    fn eviction_frees_nothing_under_the_retained_write_lock() {
        SHARDS_FREED.set((0, 0));
        let store = ShardedSiteStore::with_retention(4, 2);
        for round in 0..12 {
            let mut site = pages(40, &format!("v{round}"));
            if round % 3 != 0 {
                site.put_text("p0.txt", format!("edited {round}"));
            }
            store.publish_incremental(&site);
        }
        let (freed, under_lock) = SHARDS_FREED.get();
        assert!(freed > 0, "the churn must free evicted shards");
        assert_eq!(
            under_lock, 0,
            "{under_lock} of {freed} shards freed under the ring lock"
        );
    }

    /// `(entries, entries something besides the backlog still shares)`
    /// across the retired backlog.
    fn backlog_entries(store: &ShardedSiteStore) -> (usize, usize) {
        let backlog = lock(&store.retired);
        let entries = backlog
            .iter()
            .flat_map(|(_, shard)| shard.resources.values());
        entries.fold((0, 0), |(all, shared), entry| {
            (all + 1, shared + usize::from(Arc::strong_count(entry) > 1))
        })
    }

    #[test]
    fn one_page_publishes_free_retired_pages_one_at_a_time() {
        let store = ShardedSiteStore::with_retention(4, 2);
        for round in 0..3 {
            store.publish_incremental(&pages(40, &format!("v{round}")));
            assert_eq!(
                store.retired_shards(),
                0,
                "a whole-site publish frees what it retires"
            );
        }
        // Evicting a full epoch retires its four shards and their forty
        // pages, which only the backlog holds; a one-page publish frees
        // one of them.
        let mut site = pages(40, "v2");
        site.put_text("p0.txt", "edited 0");
        assert_eq!(store.publish_incremental(&site).pages_rendered, 1);
        assert_eq!(store.retired_shards(), 4);
        assert_eq!(backlog_entries(&store), (39, 0));
        // The next one evicts the other full epoch: every shard it shared
        // with the live epoch is only released, and the one it held alone
        // retires with one page of its own and entries the live epoch
        // still serves. The shared entries are all dropped, and one page
        // is freed: the backlog keeps the 39 pages and no shared entry.
        site.put_text("p0.txt", "edited 1");
        assert_eq!(store.publish_incremental(&site).pages_rendered, 1);
        assert_eq!(store.retired_shards(), 4);
        assert_eq!(backlog_entries(&store), (39, 0));
        // Freeing the backlog outright leaves the ring and its replays.
        let retained = store.retained_generations();
        let before = store.get_at("p0.txt", retained[0]).unwrap().body();
        assert_eq!(store.free_retired(), 4);
        assert_eq!(store.retired_shards(), 0);
        assert_eq!(backlog_entries(&store), (0, 0));
        assert_eq!(store.retained_generations(), retained);
        assert_eq!(store.get_at("p0.txt", retained[0]).unwrap().body(), before);
    }

    #[test]
    fn len_and_paths_read_one_coherent_epoch() {
        let store = ShardedSiteStore::new(4);
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert!(store.paths().is_empty());
        store.publish_incremental(&site("v1"));
        assert_eq!(store.len(), 3);
        assert_eq!(store.paths(), ["a.xml", "b.xml", "style.css"]);
    }
}
