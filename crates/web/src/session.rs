//! Navigation sessions: history, current position, and — crucially —
//! the **current navigational context**.
//!
//! The paper's §2 insists that navigation is contextual: *"if we got the
//! information navigating through the author, and then we push on a link
//! Next, we will move to the next painting by the same author"* — but via a
//! pictorial movement, Next goes elsewhere. A [`NavigationSession`] models
//! the user-side state making that real: which page, which context, what
//! history.
//!
//! History is kept by the [`crate::history`] subsystem (Brewster–Jeffrey
//! back/forward stacks): every visit and link traversal pushes a
//! [`HistoryEntry`] recording the page path, the locator followed, and the
//! serving generation — so a session can tell, entry by entry, whether the
//! site has been rewoven under it
//! ([`revalidate`](NavigationSession::revalidate)) and whether its
//! traversals conform to an active route ([`RouteGuard`]).

use crate::agent::{resolve_href, AgentError, LoadedPage, UiLink, UserAgent};
use crate::history::{
    page_slug, Freshness, HistoryClock, HistoryEntry, RouteGuard, RouteViolation, SessionHistory,
};
use crate::server::Handler;
use std::error::Error as StdError;
use std::fmt;

/// Errors during session navigation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// Underlying fetch failed.
    Agent(AgentError),
    /// No link with the requested text/rel exists on the current page.
    NoSuchLink(String),
    /// The session has not visited any page yet.
    NoCurrentPage,
    /// Nothing to go back/forward to.
    HistoryExhausted(&'static str),
    /// The active route does not allow the attempted traversal.
    Route(RouteViolation),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Agent(e) => write!(f, "{e}"),
            SessionError::NoSuchLink(t) => write!(f, "no link {t:?} on the current page"),
            SessionError::NoCurrentPage => f.write_str("no page has been visited yet"),
            SessionError::HistoryExhausted(dir) => write!(f, "cannot go {dir}: history empty"),
            SessionError::Route(v) => write!(f, "{v}"),
        }
    }
}

impl StdError for SessionError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SessionError::Agent(e) => Some(e),
            SessionError::Route(v) => Some(v),
            _ => None,
        }
    }
}

impl From<AgentError> for SessionError {
    fn from(e: AgentError) -> Self {
        SessionError::Agent(e)
    }
}

impl From<RouteViolation> for SessionError {
    fn from(v: RouteViolation) -> Self {
        SessionError::Route(v)
    }
}

/// One step in a session trace (for demos and assertions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Visit {
    /// The path visited.
    pub path: String,
    /// The context active when the page was entered.
    pub context: Option<String>,
    /// The store generation that served the page (sharded store only);
    /// a change between visits means the site was rewoven mid-session.
    pub generation: Option<u64>,
}

/// A browsing session over a served site.
///
/// # Examples
///
/// ```
/// use navsep_web::{NavigationSession, ShardedSiteHandler, ShardedSiteStore, Site};
/// use navsep_xml::Document;
/// use std::sync::Arc;
///
/// let mut site = Site::new();
/// site.put_page("a.html", Document::parse(
///     r#"<html><body><a href="b.html">to b</a></body></html>"#)?);
/// site.put_page("b.html", Document::parse(
///     r#"<html><body>done</body></html>"#)?);
///
/// let store = Arc::new(ShardedSiteStore::from_site(1, &site));
/// let mut session = NavigationSession::new(ShardedSiteHandler::new(store));
/// session.visit("a.html")?;
/// session.follow("to b")?;
/// assert_eq!(session.current_path(), Some("b.html"));
/// session.back()?;
/// assert_eq!(session.current_path(), Some("a.html"));
/// // The history recorded how we got to b: via its locator, served by
/// // generation 1.
/// let entries = session.history().entries();
/// assert_eq!(entries[1].locator.as_deref(), Some("b.html"));
/// assert_eq!(entries[1].generation, Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NavigationSession<H> {
    agent: UserAgent<H>,
    history: SessionHistory,
    current: Option<LoadedPage>,
    context: Option<String>,
    route: Option<RouteGuard>,
    trace: Vec<Visit>,
}

impl<H: Handler> NavigationSession<H> {
    /// Starts a session fetching through `handler`.
    pub fn new(handler: H) -> Self {
        Self::with_clock(handler, HistoryClock::new())
    }

    /// Starts a session whose history entries are stamped from `clock` —
    /// share one clock across sessions to give their
    /// [`JointHistory`](crate::history::JointHistory) a total order.
    pub fn with_clock(handler: H, clock: HistoryClock) -> Self {
        NavigationSession {
            agent: UserAgent::new(handler),
            history: SessionHistory::with_clock(clock),
            current: None,
            context: None,
            route: None,
            trace: Vec::new(),
        }
    }

    /// Fetches `target` and records it in history and trace.
    fn goto(&mut self, target: &str, locator: Option<String>) -> Result<&LoadedPage, SessionError> {
        let page = self.agent.fetch(target)?;
        self.history
            .push(&page.path, locator, self.context.clone(), page.generation);
        self.trace.push(Visit {
            path: page.path.clone(),
            context: self.context.clone(),
            generation: page.generation,
        });
        self.current = Some(page);
        Ok(self.current.as_ref().expect("just set"))
    }

    /// Visits `path` directly (typing a URL), keeping the current context.
    /// History records no locator for direct visits.
    ///
    /// # Errors
    ///
    /// Propagates fetch failures.
    pub fn visit(&mut self, path: &str) -> Result<&LoadedPage, SessionError> {
        self.goto(path, None)
    }

    /// Follows the link with anchor text `text` on the current page. When
    /// the link carries a `data-context`, the session switches into that
    /// navigational context — the mechanism behind context-dependent "Next".
    ///
    /// # Errors
    ///
    /// * [`SessionError::NoCurrentPage`] before the first visit;
    /// * [`SessionError::NoSuchLink`] when no link matches;
    /// * [`SessionError::Route`] when an active route forbids the hop;
    /// * fetch errors from the agent.
    pub fn follow(&mut self, text: &str) -> Result<&LoadedPage, SessionError> {
        let current = self.current.as_ref().ok_or(SessionError::NoCurrentPage)?;
        let link = current
            .link_by_text(text)
            .ok_or_else(|| SessionError::NoSuchLink(text.to_string()))?
            .clone();
        self.follow_link(&link)
    }

    /// Follows the first link with the given `rel`/arcrole.
    ///
    /// # Errors
    ///
    /// Same as [`follow`](NavigationSession::follow).
    pub fn follow_rel(&mut self, rel: &str) -> Result<&LoadedPage, SessionError> {
        let current = self.current.as_ref().ok_or(SessionError::NoCurrentPage)?;
        let link = current
            .link_by_rel(rel)
            .ok_or_else(|| SessionError::NoSuchLink(rel.to_string()))?
            .clone();
        self.follow_link(&link)
    }

    /// Follows a specific link object from the current page. An active
    /// [`RouteGuard`] is consulted first: a hop it forbids fails with
    /// [`SessionError::Route`] before anything is fetched or recorded —
    /// and a hop it allows only advances the guard (and switches the
    /// context) once the fetch succeeds, so a dead link leaves the
    /// session's route position and context exactly where they were.
    ///
    /// # Errors
    ///
    /// Same as [`follow`](NavigationSession::follow).
    pub fn follow_link(&mut self, link: &UiLink) -> Result<&LoadedPage, SessionError> {
        let base = self
            .current
            .as_ref()
            .ok_or(SessionError::NoCurrentPage)?
            .path
            .clone();
        let target = resolve_href(&link.href, &base);
        let next_route_state = match self.route.as_ref() {
            Some(guard) => Some(guard.check(page_slug(&base), page_slug(&target))?),
            None => None,
        };
        // Switch context before the fetch so the history entry records it,
        // but restore it if the fetch fails: a dead link is not an entry.
        let saved_context = self.context.clone();
        if let Some(ctx) = &link.context {
            self.context = Some(ctx.clone());
        }
        match self.goto(&target, Some(link.href.clone())) {
            Ok(_) => {}
            Err(e) => {
                self.context = saved_context;
                return Err(e);
            }
        }
        if let (Some(guard), Some(state)) = (self.route.as_mut(), next_route_state) {
            guard.commit(state);
        }
        Ok(self.current.as_ref().expect("just navigated"))
    }

    /// Goes back one page (context is preserved — the paper's model keeps
    /// the user inside the context they navigated into). This is a **real
    /// back button**: the page is served from the snapshot of the entry's
    /// recorded generation (the server's retained-epoch ring), not
    /// refetched from the latest weave — so
    /// [`current_generation`](Self::current_generation) equals what the
    /// entry recorded. Past the retention horizon the server degrades to
    /// latest explicitly (the entry's stamp is refreshed to match);
    /// [`revalidate`](Self::revalidate) remains the *deliberate*
    /// upgrade-to-latest path.
    ///
    /// # Errors
    ///
    /// [`SessionError::HistoryExhausted`] at the beginning of history.
    pub fn back(&mut self) -> Result<&LoadedPage, SessionError> {
        if self.current.is_none() {
            return Err(SessionError::NoCurrentPage);
        }
        let entry = self
            .history
            .back()
            .ok_or(SessionError::HistoryExhausted("back"))?
            .clone();
        self.refetch(entry, "back")
    }

    /// Goes forward one page. Snapshot semantics as for
    /// [`back`](Self::back).
    ///
    /// # Errors
    ///
    /// [`SessionError::HistoryExhausted`] at the end of history.
    pub fn forward(&mut self) -> Result<&LoadedPage, SessionError> {
        if self.current.is_none() {
            return Err(SessionError::NoCurrentPage);
        }
        let entry = self
            .history
            .forward()
            .ok_or(SessionError::HistoryExhausted("forward"))?
            .clone();
        self.refetch(entry, "forward")
    }

    /// Completes a history traversal: serves the entry's page from the
    /// snapshot its recorded generation preserved (a time-travel fetch
    /// when the entry carries a generation; a plain fetch otherwise). On
    /// fetch failure the cursor move is undone so history and page agree.
    fn refetch(
        &mut self,
        entry: HistoryEntry,
        direction: &'static str,
    ) -> Result<&LoadedPage, SessionError> {
        let fetched = match entry.generation {
            Some(generation) => self.agent.fetch_at(&entry.path, generation),
            None => self.agent.fetch(&entry.path),
        };
        match fetched {
            Ok(page) => {
                if page.degraded {
                    // The snapshot is past the retention horizon and the
                    // server served latest instead; refresh the entry's
                    // stamp so it names the generation actually shown.
                    self.history.refresh_current_generation(page.generation);
                }
                self.trace.push(Visit {
                    path: page.path.clone(),
                    context: self.context.clone(),
                    generation: page.generation,
                });
                self.current = Some(page);
                Ok(self.current.as_ref().expect("just set"))
            }
            Err(e) => {
                // Roll the cursor back where it came from.
                match direction {
                    "back" => self.history.forward(),
                    _ => self.history.back(),
                };
                Err(e.into())
            }
        }
    }

    /// Traverses the session history by `delta` entries (negative = back),
    /// clamped to its bounds — the model's `traverse(δ)` operation.
    /// Returns the signed number of entries actually moved.
    ///
    /// # Errors
    ///
    /// Fetch errors abort the walk mid-way (the history cursor stays where
    /// the walk got to).
    pub fn traverse(&mut self, delta: isize) -> Result<isize, SessionError> {
        let mut moved = 0isize;
        for _ in 0..delta.unsigned_abs() {
            let step = if delta < 0 {
                self.back()
            } else {
                self.forward()
            };
            match step {
                Ok(_) => moved += if delta < 0 { -1 } else { 1 },
                Err(SessionError::HistoryExhausted(_)) | Err(SessionError::NoCurrentPage) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(moved)
    }

    /// Performs a **conditional-navigation check** on the active history
    /// entry: asks the server whether the generation the entry recorded
    /// has been superseded by a reweave. When it has, the page is
    /// re-fetched and the entry's recorded generation is refreshed; the
    /// returned [`Freshness`] reports what was found.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoCurrentPage`] before the first visit; fetch
    /// errors from the agent.
    pub fn revalidate(&mut self) -> Result<Freshness, SessionError> {
        let entry = self
            .history
            .current()
            .ok_or(SessionError::NoCurrentPage)?
            .clone();
        let Some(recorded) = entry.generation else {
            return Ok(Freshness::Unknown);
        };
        let page = self.agent.fetch_conditional(&entry.path, recorded)?;
        match page.stale {
            Some(true) => {
                let current = page.generation.unwrap_or(recorded);
                self.history.refresh_current_generation(page.generation);
                self.current = Some(page);
                Ok(Freshness::Stale { recorded, current })
            }
            Some(false) => Ok(Freshness::Fresh),
            None => Ok(Freshness::Unknown),
        }
    }

    /// The current page, if any.
    pub fn current_page(&self) -> Option<&LoadedPage> {
        self.current.as_ref()
    }

    /// The current page's path.
    pub fn current_path(&self) -> Option<&str> {
        self.current.as_ref().map(|p| p.path.as_str())
    }

    /// The active navigational context, if the user entered one.
    pub fn current_context(&self) -> Option<&str> {
        self.context.as_deref()
    }

    /// The store generation that served the current page, when the handler
    /// exposes one (see [`crate::ShardedSiteHandler`]). Comparing it across
    /// visits detects a mid-session reweave.
    pub fn current_generation(&self) -> Option<u64> {
        self.current.as_ref().and_then(|p| p.generation)
    }

    /// The active history entry (what the session recorded when it got
    /// here), if any.
    pub fn current_entry(&self) -> Option<&HistoryEntry> {
        self.history.current()
    }

    /// Explicitly enters a navigational context (e.g. from an index page).
    pub fn enter_context(&mut self, name: impl Into<String>) {
        self.context = Some(name.into());
    }

    /// Leaves the current context.
    pub fn leave_context(&mut self) {
        self.context = None;
    }

    /// Installs a route guard: from now on every link traversal must be a
    /// hop the route allows ([`SessionError::Route`] otherwise). History
    /// traversals (back/forward) are exempt — the model treats them as
    /// cursor moves, not new navigation.
    pub fn set_route(&mut self, guard: RouteGuard) {
        self.route = Some(guard);
    }

    /// Removes the active route guard, if any.
    pub fn clear_route(&mut self) -> Option<RouteGuard> {
        self.route.take()
    }

    /// The active route guard.
    pub fn route(&self) -> Option<&RouteGuard> {
        self.route.as_ref()
    }

    /// The full visit trace.
    pub fn trace(&self) -> &[Visit] {
        &self.trace
    }

    /// The session history (back/forward stacks and recorded entries).
    pub fn history(&self) -> &SessionHistory {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::store::ShardedSiteHandler;
    use crate::testing::{serve, Unstamped};
    use navsep_xml::Document;

    fn three_page_site() -> ShardedSiteHandler {
        let mut site = Site::new();
        site.put_page(
            "index.html",
            Document::parse(
                r#"<html><body>
  <a href="guitar.html" data-context="by-painter:picasso">Guitar</a>
</body></html>"#,
            )
            .unwrap(),
        );
        site.put_page(
            "guitar.html",
            Document::parse(
                r#"<html><body>
  <a href="guernica.html" rel="next">Next</a>
  <a href="index.html" rel="up">Back to index</a>
</body></html>"#,
            )
            .unwrap(),
        );
        site.put_page(
            "guernica.html",
            Document::parse(
                r#"<html><body><a href="guitar.html" rel="prev">Previous</a></body></html>"#,
            )
            .unwrap(),
        );
        serve(&site)
    }

    #[test]
    fn visit_and_follow() {
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        s.follow("Guitar").unwrap();
        assert_eq!(s.current_path(), Some("guitar.html"));
        // Entering via the index link switched the context.
        assert_eq!(s.current_context(), Some("by-painter:picasso"));
        s.follow_rel("next").unwrap();
        assert_eq!(s.current_path(), Some("guernica.html"));
        // Context survives ordinary navigation.
        assert_eq!(s.current_context(), Some("by-painter:picasso"));
    }

    #[test]
    fn back_and_forward() {
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        s.follow("Guitar").unwrap();
        s.follow("Next").unwrap();
        s.back().unwrap();
        assert_eq!(s.current_path(), Some("guitar.html"));
        s.back().unwrap();
        assert_eq!(s.current_path(), Some("index.html"));
        assert!(matches!(
            s.back(),
            Err(SessionError::HistoryExhausted("back"))
        ));
        s.forward().unwrap();
        assert_eq!(s.current_path(), Some("guitar.html"));
        s.forward().unwrap();
        assert_eq!(s.current_path(), Some("guernica.html"));
        assert!(matches!(
            s.forward(),
            Err(SessionError::HistoryExhausted("forward"))
        ));
    }

    #[test]
    fn traverse_clamps_like_the_model() {
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        s.follow("Guitar").unwrap();
        s.follow("Next").unwrap();
        assert_eq!(s.traverse(-5).unwrap(), -2, "clamped at the beginning");
        assert_eq!(s.current_path(), Some("index.html"));
        assert_eq!(s.traverse(1).unwrap(), 1);
        assert_eq!(s.current_path(), Some("guitar.html"));
        assert_eq!(s.traverse(9).unwrap(), 1, "clamped at the end");
        assert_eq!(s.current_path(), Some("guernica.html"));
    }

    #[test]
    fn visiting_clears_forward_stack() {
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        s.follow("Guitar").unwrap();
        s.back().unwrap();
        assert_eq!(s.history().forward_len(), 1);
        s.visit("guernica.html").unwrap();
        assert_eq!(s.history().forward_len(), 0);
    }

    #[test]
    fn errors_before_first_visit() {
        let mut s = NavigationSession::new(three_page_site());
        assert!(matches!(s.follow("x"), Err(SessionError::NoCurrentPage)));
        assert!(matches!(s.back(), Err(SessionError::NoCurrentPage)));
        assert!(matches!(s.revalidate(), Err(SessionError::NoCurrentPage)));
    }

    #[test]
    fn missing_link_reported() {
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        assert!(matches!(
            s.follow("Nonexistent"),
            Err(SessionError::NoSuchLink(_))
        ));
    }

    #[test]
    fn trace_records_contexts() {
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        s.follow("Guitar").unwrap();
        let trace = s.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].context, None);
        assert_eq!(trace[1].context.as_deref(), Some("by-painter:picasso"));
    }

    #[test]
    fn history_records_locators_and_contexts() {
        let mut s = NavigationSession::new(Unstamped(three_page_site()));
        s.visit("index.html").unwrap();
        s.follow("Guitar").unwrap();
        s.follow_rel("next").unwrap();
        let entries: Vec<_> = s.history().entries().into_iter().cloned().collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].locator, None, "direct visit has no locator");
        assert_eq!(entries[1].locator.as_deref(), Some("guitar.html"));
        assert_eq!(entries[2].locator.as_deref(), Some("guernica.html"));
        assert_eq!(entries[2].context.as_deref(), Some("by-painter:picasso"));
        // A handler without generations: none recorded.
        assert_eq!(entries[2].generation, None);
    }

    #[test]
    fn sharded_store_generation_is_observable() {
        use crate::store::ShardedSiteStore;
        use std::sync::Arc;

        let mut site = Site::new();
        site.put_page(
            "a.html",
            Document::parse(r#"<html><body><a href="b.html">b</a></body></html>"#).unwrap(),
        );
        site.put_page("b.html", Document::parse("<html><body/></html>").unwrap());
        let store = Arc::new(ShardedSiteStore::from_site(4, &site));
        let mut s = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
        s.visit("a.html").unwrap();
        assert_eq!(s.current_generation(), Some(1));
        // A reweave that edits b.html lands between two follows; the
        // session sees it.
        site.put_page(
            "b.html",
            Document::parse("<html><body>edited</body></html>").unwrap(),
        );
        store.publish_incremental(&site);
        s.follow("b").unwrap();
        assert_eq!(s.current_generation(), Some(2));
        let gens: Vec<Option<u64>> = s.trace().iter().map(|v| v.generation).collect();
        assert_eq!(gens, [Some(1), Some(2)]);
        // The history recorded both serving generations, and the first
        // entry now classifies stale against the store.
        assert_eq!(s.history().stale_entries(store.generation()), 1);
    }

    #[test]
    fn revalidate_classifies_and_refreshes() {
        use crate::history::Freshness;
        use crate::store::ShardedSiteStore;
        use std::sync::Arc;

        let mut site = Site::new();
        site.put_page("a.html", Document::parse("<html><body/></html>").unwrap());
        let store = Arc::new(ShardedSiteStore::from_site(4, &site));
        let mut s = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
        s.visit("a.html").unwrap();
        assert_eq!(s.revalidate().unwrap(), Freshness::Fresh);

        site.put_page(
            "a.html",
            Document::parse("<html><body>edited</body></html>").unwrap(),
        );
        store.publish_incremental(&site);
        assert_eq!(
            s.revalidate().unwrap(),
            Freshness::Stale {
                recorded: 1,
                current: 2
            }
        );
        // The check refreshed both the page and the recorded entry.
        assert_eq!(s.current_generation(), Some(2));
        assert_eq!(s.current_entry().unwrap().generation, Some(2));
        assert_eq!(s.revalidate().unwrap(), Freshness::Fresh);

        // Handlers without generations classify Unknown.
        let mut plain = NavigationSession::new(Unstamped(three_page_site()));
        plain.visit("index.html").unwrap();
        assert_eq!(plain.revalidate().unwrap(), Freshness::Unknown);
    }

    #[test]
    fn back_serves_the_recorded_generations_snapshot() {
        use crate::store::ShardedSiteStore;
        use std::sync::Arc;

        let mut site = Site::new();
        site.put_page(
            "a.html",
            Document::parse(r#"<html><body>A v1 <a href="b.html">b</a></body></html>"#).unwrap(),
        );
        site.put_page("b.html", Document::parse("<html><body/></html>").unwrap());
        let store = Arc::new(ShardedSiteStore::from_site(4, &site));
        let mut s = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
        s.visit("a.html").unwrap();
        s.follow("b").unwrap();

        // The site reweaves under the session; a.html's entry recorded
        // generation 1.
        site.put_page(
            "a.html",
            Document::parse(r#"<html><body>A v2 <a href="b.html">b</a></body></html>"#).unwrap(),
        );
        store.publish_incremental(&site);
        assert_eq!(store.generation(), 2);

        // back() is a real back button: generation 1's body, not v2.
        let page = s.back().unwrap();
        assert!(page.doc.to_xml_string().contains("A v1"));
        assert!(!page.degraded);
        assert_eq!(s.current_generation(), Some(1));
        assert_eq!(s.current_entry().unwrap().generation, Some(1));

        // revalidate() is the explicit upgrade path.
        assert!(matches!(
            s.revalidate().unwrap(),
            Freshness::Stale {
                recorded: 1,
                current: 2
            }
        ));
        assert!(s
            .current_page()
            .unwrap()
            .doc
            .to_xml_string()
            .contains("A v2"));
    }

    #[test]
    fn degraded_back_refreshes_the_entry_stamp() {
        use crate::store::ShardedSiteStore;
        use std::sync::Arc;

        let mut site = Site::new();
        site.put_page(
            "a.html",
            Document::parse(r#"<html><body>v1 <a href="b.html">b</a></body></html>"#).unwrap(),
        );
        site.put_page("b.html", Document::parse("<html><body/></html>").unwrap());
        // Retention 1: no history epochs survive a publish.
        let store = Arc::new(ShardedSiteStore::with_retention(4, 1));
        store.publish_incremental(&site);
        let mut s = NavigationSession::new(ShardedSiteHandler::new(Arc::clone(&store)));
        s.visit("a.html").unwrap();
        s.follow("b").unwrap();
        site.put_page(
            "a.html",
            Document::parse(r#"<html><body>v2 <a href="b.html">b</a></body></html>"#).unwrap(),
        );
        store.publish_incremental(&site);

        let page = s.back().unwrap();
        assert!(page.degraded, "generation 1 is past the horizon");
        assert!(page.doc.to_xml_string().contains("v2"));
        // The entry now names what was actually served.
        assert_eq!(s.current_entry().unwrap().generation, Some(2));
    }

    #[test]
    fn handler_without_generations_records_none() {
        let mut s = NavigationSession::new(Unstamped(three_page_site()));
        s.visit("index.html").unwrap();
        assert_eq!(s.current_generation(), None);
        assert_eq!(s.trace()[0].generation, None);
    }

    #[test]
    fn explicit_context_management() {
        let mut s = NavigationSession::new(three_page_site());
        s.enter_context("by-movement:cubism");
        assert_eq!(s.current_context(), Some("by-movement:cubism"));
        s.leave_context();
        assert_eq!(s.current_context(), None);
    }

    #[test]
    fn failed_fetch_leaves_route_state_and_context_untouched() {
        use navsep_hypermodel::{AccessStructureKind, Member, NavigationalContext, RouteSpec};

        // A page whose tour-entry link dangles (e.g. a stale locator after
        // a reweave): the guard allows the hop, the fetch 404s, and the
        // session must still be able to enter the tour elsewhere.
        let mut site = Site::new();
        site.put_page(
            "index.html",
            Document::parse(
                r#"<html><body>
  <a href="ghost.html" data-context="by-painter:picasso">Ghost</a>
  <a href="guitar.html">Guitar</a>
</body></html>"#,
            )
            .unwrap(),
        );
        site.put_page(
            "guitar.html",
            Document::parse("<html><body/></html>").unwrap(),
        );
        let ctx = NavigationalContext::new(
            "by-painter:picasso",
            "Pablo Picasso",
            vec![
                Member::new("ghost", "Ghost"),
                Member::new("guitar", "Guitar"),
            ],
            AccessStructureKind::GuidedTour,
        )
        .unwrap();
        let mut s = NavigationSession::new(serve(&site));
        s.visit("index.html").unwrap();
        s.set_route(RouteGuard::new(
            &RouteSpec::parse("any/next*").unwrap(),
            &ctx,
        ));
        // The route allows the hop, but the target is missing.
        assert!(matches!(
            s.follow("Ghost"),
            Err(SessionError::Agent(AgentError::HttpStatus {
                code: 404,
                ..
            }))
        ));
        // Nothing moved: page, history, context, and — crucially — the
        // guard's one-shot `any` step are all where they were.
        assert_eq!(s.current_path(), Some("index.html"));
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.current_context(), None);
        s.follow("Guitar").unwrap();
        assert_eq!(s.current_path(), Some("guitar.html"));
    }

    #[test]
    fn route_guard_vetoes_off_route_follows() {
        use navsep_hypermodel::{AccessStructureKind, Member, NavigationalContext, RouteSpec};

        let ctx = NavigationalContext::new(
            "by-painter:picasso",
            "Pablo Picasso",
            vec![
                Member::new("guitar", "Guitar"),
                Member::new("guernica", "Guernica"),
            ],
            AccessStructureKind::GuidedTour,
        )
        .unwrap();
        let mut s = NavigationSession::new(three_page_site());
        s.visit("index.html").unwrap();
        // The tour: enter anywhere, then only next-hops.
        s.set_route(RouteGuard::new(
            &RouteSpec::parse("any/next*").unwrap(),
            &ctx,
        ));
        s.follow("Guitar").unwrap();
        s.follow_rel("next").unwrap();
        assert_eq!(s.current_path(), Some("guernica.html"));
        // Going *back along a link* (prev) violates the tour…
        let err = s.follow_rel("prev").unwrap_err();
        assert!(matches!(err, SessionError::Route(_)));
        // …and nothing was recorded for the vetoed hop.
        assert_eq!(s.current_path(), Some("guernica.html"));
        assert_eq!(s.history().len(), 3);
        // History traversal (a cursor move) is exempt by design.
        s.back().unwrap();
        assert!(s.clear_route().is_some());
        assert!(s.route().is_none());
    }
}
