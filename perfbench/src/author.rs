//! The closed-loop author: stage one edit, commit, and read the edited
//! page back over HTTP until the response carries the new bytes.

use crate::client::{observe, read_request, Conn, Obs};
use crate::gen::{retitle, EditKind, Rng};
use crate::replay::PublishReplay;
use navsep_core::layout::{data_to_page, CSS_PATH, LINKBASE_PATH};
use navsep_core::{SitePublisher, SourceEdit};
use navsep_web::{ShardedSiteStore, Site};
use navsep_xml::{fnv1a64, Document};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::Instant;

/// A script entry with its document built, ready to stage.
#[derive(Debug)]
pub enum Prepared {
    /// A painting retitle.
    Data {
        /// The staged edit.
        edit: SourceEdit,
        /// The page the edit shows up on.
        page: String,
        /// The new title, which the page must carry.
        title: String,
    },
    /// A stylesheet edit.
    Css {
        /// The staged edit.
        edit: SourceEdit,
        /// The comment the stylesheet must carry.
        marker: String,
    },
    /// The linkbase swap.
    Spec {
        /// Whether the new linkbase is the Indexed Guided Tour.
        to_igt: bool,
    },
}

/// Builds every edit of `script` against `sources`, before timing starts.
pub fn prepare(script: &[EditKind], sources: &Site) -> Result<Vec<Prepared>, String> {
    let mut current: BTreeMap<String, String> = BTreeMap::new();
    let base_css = sources
        .get(CSS_PATH)
        .map(|r| String::from_utf8_lossy(&r.to_bytes()).into_owned())
        .ok_or("sources lack museum.css")?;
    script
        .iter()
        .map(|kind| match kind {
            EditKind::Data { path, title } => {
                let xml = match current.get(path) {
                    Some(xml) => xml.clone(),
                    None => sources
                        .get(path)
                        .and_then(|r| r.document())
                        .map(Document::to_xml_string)
                        .ok_or_else(|| format!("no data document {path}"))?,
                };
                let edited = retitle(&xml, title).ok_or_else(|| format!("{path} has no title"))?;
                let doc = Document::parse(&edited).map_err(|e| format!("{path}: {e}"))?;
                current.insert(path.clone(), edited);
                Ok(Prepared::Data {
                    edit: SourceEdit::put_document(path.clone(), doc),
                    page: data_to_page(path).ok_or_else(|| format!("{path} is no data path"))?,
                    title: title.clone(),
                })
            }
            EditKind::Css { marker } => Ok(Prepared::Css {
                edit: SourceEdit::put_raw(CSS_PATH, format!("{base_css}/* {marker} */\n")),
                marker: marker.clone(),
            }),
            EditKind::Spec { to_igt } => Ok(Prepared::Spec { to_igt: *to_igt }),
        })
        .collect()
}

/// The bytes every `(path, generation)` the store has served, as
/// `(FNV-1a, length)`: what each observed response is checked against.
#[derive(Debug, Default)]
pub struct Archive {
    bodies: HashMap<(u32, u64), (u64, u64)>,
}

impl Archive {
    /// Records every path whose live stamp is `generation`.
    pub fn record(&mut self, store: &ShardedSiteStore, paths: &[String], generation: u64) {
        for (i, path) in paths.iter().enumerate() {
            if let Some(read) = store.get(path) {
                if read.generation() == generation {
                    let body = read.body();
                    self.bodies
                        .insert((i as u32, generation), (fnv1a64(&body), body.len() as u64));
                }
            }
        }
    }

    /// The recorded `(hash, length)` of `path` at `generation`.
    pub fn get(&self, path: u32, generation: u64) -> Option<(u64, u64)> {
        self.bodies.get(&(path, generation)).copied()
    }
}

/// A spec commit kept for the uncached-weave check after the run.
#[derive(Debug)]
pub struct SpecSnapshot {
    /// The sources the commit published.
    pub sources: Site,
    /// Sampled pages and the FNV-1a of the bytes the store served for them.
    pub pages: Vec<(String, u64)>,
}

/// Spec commits kept for the uncached-weave check, per run.
pub const SPEC_SNAPSHOTS: usize = 3;

/// What the author did and measured.
#[derive(Debug, Default)]
pub struct AuthorLog {
    /// Painting edits, stage → served, ms.
    pub edit_ms: Vec<f64>,
    /// Stylesheet edits, stage → served, ms.
    pub css_ms: Vec<f64>,
    /// Linkbase swaps, stage → served, ms.
    pub spec_ms: Vec<f64>,
    /// `SitePublisher::commit` alone, ms, every commit.
    pub commit_ms: Vec<f64>,
    /// Commits attempted.
    pub commits: u64,
    /// Commits that returned `Err`.
    pub commit_errors: u64,
    /// Failed checks, described.
    pub failures: Vec<String>,
    /// The author's verification reads.
    pub obs: Vec<Obs>,
    /// Requests the author sent.
    pub sent: u64,
    /// Spec commits to re-check against an uncached weave.
    pub snapshots: Vec<SpecSnapshot>,
    /// Retries the publisher absorbed.
    pub retries: u64,
    /// The script ran out before the phase ended.
    pub exhausted: bool,
}

/// Everything the author needs besides the publisher.
pub struct AuthorEnv<'a> {
    /// Listener address.
    pub addr: SocketAddr,
    /// Served paths, sorted.
    pub paths: &'a [String],
    /// Painting pages a linkbase swap is checked on.
    pub tour_pages: &'a [String],
    /// `links.xml` under the Index.
    pub index_links: &'a Document,
    /// `links.xml` under the Indexed Guided Tour.
    pub igt_links: &'a Document,
}

/// Runs `script` until `done()` says stop or the script ends, keeping up
/// to `keep_snapshots` linkbase swaps for the uncached-weave check.
#[allow(clippy::too_many_arguments)]
pub fn run(
    publisher: &mut SitePublisher,
    env: &AuthorEnv<'_>,
    script: &mut std::vec::IntoIter<Prepared>,
    archive: &mut Archive,
    mut replay: Option<&mut PublishReplay>,
    keep_snapshots: usize,
    seed: u64,
    done: impl Fn() -> bool,
) -> AuthorLog {
    let mut log = AuthorLog::default();
    let store = std::sync::Arc::clone(publisher.store());
    let mut conn = match Conn::connect(env.addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.failures.push(format!("author connect: {e}"));
            return log;
        }
    };
    let mut rng = Rng::new(seed, 13);
    let index_of = |page: &str| env.paths.binary_search_by(|p| p.as_str().cmp(page)).ok();
    while !done() {
        let Some(prepared) = script.next() else {
            log.exhausted = true;
            break;
        };
        let target = match &prepared {
            Prepared::Data { page, .. } => page.clone(),
            Prepared::Css { .. } => CSS_PATH.to_string(),
            Prepared::Spec { .. } => env.tour_pages[rng.below(env.tour_pages.len())].clone(),
        };
        let Some(target_idx) = index_of(&target) else {
            log.failures
                .push(format!("edit target {target} is not served"));
            break;
        };
        let before = store.get(&target).map(|r| r.body());

        let t0 = Instant::now();
        let edit = match &prepared {
            Prepared::Data { edit, .. } | Prepared::Css { edit, .. } => edit.clone(),
            Prepared::Spec { to_igt } => SourceEdit::put_document(
                LINKBASE_PATH,
                if *to_igt {
                    env.igt_links
                } else {
                    env.index_links
                }
                .clone(),
            ),
        };
        publisher.stage(edit);
        let c0 = Instant::now();
        let result = publisher.commit();
        let c1 = Instant::now();
        log.commits += 1;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                log.commit_errors += 1;
                log.failures.push(format!("commit for {target}: {e}"));
                break;
            }
        };
        let expected = store.get(&target).map(|r| r.body());
        let mut served = None;
        for _ in 0..3 {
            match conn.exchange(&read_request(&target, false), false) {
                Ok(response) => {
                    log.sent += 1;
                    let o = observe(target_idx as u32, false, None, &response);
                    log.obs.push(o);
                    if response.status == 200 && expected.as_deref() == Some(&response.body[..]) {
                        served = Some((Instant::now(), response));
                        break;
                    }
                }
                Err(e) => {
                    log.sent += 1;
                    log.failures.push(format!("author GET {target}: {e}"));
                    break;
                }
            }
        }
        let Some((t1, response)) = served else {
            log.failures.push(format!("{target} never served the edit"));
            break;
        };
        let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
        log.commit_ms
            .push(c1.duration_since(c0).as_secs_f64() * 1e3);
        log.retries += u64::from(outcome.retries);

        // Checks, outside the timed window.
        let body = String::from_utf8_lossy(&response.body);
        let carried = match &prepared {
            Prepared::Data { title, .. } => {
                log.edit_ms.push(ms);
                body.contains(title.as_str())
            }
            Prepared::Css { marker, .. } => {
                log.css_ms.push(ms);
                body.contains(marker.as_str())
            }
            Prepared::Spec { to_igt } => {
                log.spec_ms.push(ms);
                // A guided tour links every member to a neighbour (the
                // first has no prev, the last no next); an index does not.
                let toured = body.contains("rel=\"next\"") || body.contains("rel=\"prev\"");
                before.as_deref() != Some(&response.body[..]) && toured == *to_igt
            }
        };
        if !carried {
            log.failures
                .push(format!("{target}: served bytes lack the edit"));
        }
        if log.obs.last().map(|o| o.generation) != Some(outcome.generation) {
            log.failures.push(format!(
                "{target}: stamped {:?}, commit went live as {}",
                log.obs.last().map(|o| o.generation),
                outcome.generation
            ));
        }
        archive.record(&store, env.paths, outcome.generation);
        if matches!(prepared, Prepared::Spec { .. }) && log.snapshots.len() < keep_snapshots {
            let mut pages = vec![target.clone()];
            for _ in 0..3 {
                pages.push(env.tour_pages[rng.below(env.tour_pages.len())].clone());
            }
            let pages = pages
                .into_iter()
                .filter_map(|p| store.get(&p).map(|r| (p, fnv1a64(&r.body()))))
                .collect();
            log.snapshots.push(SpecSnapshot {
                sources: publisher.sources().clone(),
                pages,
            });
        }
        if let Some(replay) = replay.as_deref_mut() {
            if let Err(e) = replay.commit(&prepared, publisher, c1.duration_since(c0), &outcome) {
                log.failures.push(format!("publish replay: {e}"));
            }
        }
    }
    log
}
