//! The navigation-history subsystem: per-session back/forward stacks, a
//! joint history across sessions, and reweave-awareness.
//!
//! Modelled on "A Model of Navigation History" (Brewster & Jeffrey):
//! a session's history is a *back stack*, an optional *active entry*, and a
//! *forward stack*; [`push`](SessionHistory::push) truncates the forward
//! stack, [`replace`](SessionHistory::replace) swaps the active entry in
//! place, and [`traverse`](SessionHistory::traverse) moves the cursor by a
//! signed delta, clamped to the stacks' bounds. The **joint session
//! history** merges several sessions' entries in the order they were
//! created (a shared [`HistoryClock`] stamps every entry with a sequence
//! number), the way a browser merges the histories of its windows.
//!
//! Two navsep-specific concerns ride on the model:
//!
//! * **Reweave awareness** — every entry records the serving
//!   [`generation`](HistoryEntry::generation) it was fetched from (the
//!   sharded store's `x-navsep-generation` stamp). An entry whose recorded
//!   generation predates the store's current one classifies as
//!   [`Freshness::Stale`]: the site was rewoven since the user saw that
//!   page. The HTTP side of the check lives in
//!   [`crate::store::IF_GENERATION_HEADER`].
//! * **Route conformance** — a [`RouteGuard`] carries a compiled
//!   route-spec automaton ([`navsep_hypermodel::route`]) and is consulted
//!   on every link traversal, so "this session follows the guided tour" is
//!   checkable, not aspirational.

use navsep_hypermodel::route::{CompiledRoute, RouteSpec, RouteState};
use navsep_hypermodel::NavigationalContext;
use std::collections::BTreeSet;
use std::error::Error as StdError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared monotone counter stamping history entries across sessions, so
/// a [`JointHistory`] can order them the way a browser orders the entries
/// of all its windows.
#[derive(Debug, Clone, Default)]
pub struct HistoryClock(Arc<AtomicU64>);

impl HistoryClock {
    /// A fresh clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next sequence number (strictly increasing across clones).
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The latest sequence number handed out.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a history entry relates to the store's current generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Recorded at the current generation.
    Fresh,
    /// Recorded before the current generation: the site was rewoven since.
    Stale {
        /// The generation the entry was served from.
        recorded: u64,
        /// The store's generation at classification time.
        current: u64,
    },
    /// The serving handler stamps no generation.
    Unknown,
}

/// One entry of a session's history: what was visited, how, and from
/// which serving generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// The page path visited.
    pub path: String,
    /// The locator (href as written on the page) followed to get here;
    /// `None` for direct visits (typed URLs) .
    pub locator: Option<String>,
    /// The navigational context active when the entry was created.
    pub context: Option<String>,
    /// The store generation that served the visit, when the handler
    /// exposes one.
    pub generation: Option<u64>,
    /// Creation order across all sessions sharing a [`HistoryClock`].
    pub seq: u64,
}

impl HistoryEntry {
    /// Classifies the entry against the store's `current_generation`:
    /// recorded-before-current means the site was rewoven since the visit.
    pub fn freshness(&self, current_generation: u64) -> Freshness {
        match self.generation {
            None => Freshness::Unknown,
            Some(recorded) if recorded < current_generation => Freshness::Stale {
                recorded,
                current: current_generation,
            },
            Some(_) => Freshness::Fresh,
        }
    }
}

/// One session's history: back stack, active entry, forward stack.
///
/// # Examples
///
/// ```
/// use navsep_web::SessionHistory;
///
/// let mut h = SessionHistory::new();
/// h.push("a.html", None, None, Some(1));
/// h.push("b.html", Some("b.html".into()), None, Some(1));
/// h.push("c.html", Some("c.html".into()), None, Some(2));
/// assert_eq!(h.back().unwrap().path, "b.html");
/// assert_eq!(h.forward().unwrap().path, "c.html");
///
/// // Pushing from the middle truncates the forward stack.
/// h.back();
/// h.push("d.html", None, None, Some(2));
/// assert_eq!(h.forward_len(), 0);
/// assert_eq!(h.traverse(-10), -2, "traversal clamps to the back bound");
/// assert_eq!(h.current().unwrap().path, "a.html");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionHistory {
    clock: HistoryClock,
    back: Vec<HistoryEntry>,
    current: Option<HistoryEntry>,
    /// Nearest-forward entry at the END (stack discipline).
    forward: Vec<HistoryEntry>,
}

impl SessionHistory {
    /// An empty history with a private clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history stamping entries from `clock` — share one clock
    /// across sessions to give their [`JointHistory`] a total order.
    pub fn with_clock(clock: HistoryClock) -> Self {
        SessionHistory {
            clock,
            ..Self::default()
        }
    }

    /// The clock stamping this session's entries.
    pub fn clock(&self) -> &HistoryClock {
        &self.clock
    }

    /// Records a new visit: the active entry (if any) moves to the back
    /// stack and the forward stack is **truncated** — the model's defining
    /// law (a branch taken in the past is unreachable once you navigate
    /// somewhere new).
    pub fn push(
        &mut self,
        path: impl Into<String>,
        locator: Option<String>,
        context: Option<String>,
        generation: Option<u64>,
    ) -> &HistoryEntry {
        let entry = HistoryEntry {
            path: path.into(),
            locator,
            context,
            generation,
            seq: self.clock.tick(),
        };
        if let Some(old) = self.current.take() {
            self.back.push(old);
        }
        self.forward.clear();
        self.current = Some(entry);
        self.current.as_ref().expect("just set")
    }

    /// Replaces the active entry in place (HTML's `replaceState`): the
    /// stacks and the entry's position in the joint order are unchanged —
    /// the replacement inherits the replaced entry's sequence number. With
    /// no active entry this is a plain [`push`](Self::push).
    pub fn replace(
        &mut self,
        path: impl Into<String>,
        locator: Option<String>,
        context: Option<String>,
        generation: Option<u64>,
    ) -> &HistoryEntry {
        match self.current.take() {
            None => self.push(path, locator, context, generation),
            Some(old) => {
                self.current = Some(HistoryEntry {
                    path: path.into(),
                    locator,
                    context,
                    generation,
                    seq: old.seq,
                });
                self.current.as_ref().expect("just set")
            }
        }
    }

    /// Moves the cursor one entry back; returns the new active entry, or
    /// `None` (cursor unchanged) at the beginning of history.
    pub fn back(&mut self) -> Option<&HistoryEntry> {
        let target = self.back.pop()?;
        let current = self.current.take().expect("back stack implies an entry");
        self.forward.push(current);
        self.current = Some(target);
        self.current.as_ref()
    }

    /// Moves the cursor one entry forward; returns the new active entry,
    /// or `None` (cursor unchanged) at the end of history.
    pub fn forward(&mut self) -> Option<&HistoryEntry> {
        let target = self.forward.pop()?;
        let current = self.current.take().expect("forward stack implies an entry");
        self.back.push(current);
        self.current = Some(target);
        self.current.as_ref()
    }

    /// Moves the cursor by `delta` entries (negative = back), **clamped**
    /// to the bounds of the stacks; returns the signed number of entries
    /// actually moved.
    pub fn traverse(&mut self, delta: isize) -> isize {
        let mut moved = 0isize;
        if delta < 0 {
            for _ in 0..delta.unsigned_abs() {
                if self.back().is_none() {
                    break;
                }
                moved -= 1;
            }
        } else {
            for _ in 0..delta {
                if self.forward().is_none() {
                    break;
                }
                moved += 1;
            }
        }
        moved
    }

    /// The active entry, if any page has been visited.
    pub fn current(&self) -> Option<&HistoryEntry> {
        self.current.as_ref()
    }

    /// Updates the active entry's recorded generation (after a
    /// revalidation refetched the page from a newer epoch).
    pub fn refresh_current_generation(&mut self, generation: Option<u64>) {
        if let Some(current) = self.current.as_mut() {
            current.generation = generation;
        }
    }

    /// Entries behind the cursor.
    pub fn back_len(&self) -> usize {
        self.back.len()
    }

    /// Entries ahead of the cursor.
    pub fn forward_len(&self) -> usize {
        self.forward.len()
    }

    /// Total entries (back + active + forward).
    pub fn len(&self) -> usize {
        self.back.len() + usize::from(self.current.is_some()) + self.forward.len()
    }

    /// `true` before the first visit.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries in session order: oldest first, the active entry at
    /// [`position`](Self::position).
    pub fn entries(&self) -> Vec<&HistoryEntry> {
        self.back
            .iter()
            .chain(self.current.iter())
            .chain(self.forward.iter().rev())
            .collect()
    }

    /// Index of the active entry within [`entries`](Self::entries).
    pub fn position(&self) -> Option<usize> {
        self.current.as_ref().map(|_| self.back.len())
    }

    /// The distinct serving generations this history still references,
    /// ascending — exactly what a store's retained-epoch ring must keep
    /// servable for this session's `back()`/`forward()` to stay
    /// snapshot-backed (see `ShardedSiteStore::pin`, which biases eviction
    /// away from pinned generations).
    pub fn referenced_generations(&self) -> BTreeSet<u64> {
        self.entries().iter().filter_map(|e| e.generation).collect()
    }

    /// How many entries are stale against `current_generation` — the
    /// session-side reweave-awareness count.
    pub fn stale_entries(&self, current_generation: u64) -> usize {
        self.entries()
            .iter()
            .filter(|e| matches!(e.freshness(current_generation), Freshness::Stale { .. }))
            .count()
    }
}

/// One entry of a [`JointHistory`], labelled with the session it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointEntry {
    /// Index of the owning session in the slice passed to
    /// [`JointHistory::of`].
    pub session: usize,
    /// The entry itself.
    pub entry: HistoryEntry,
}

/// The joint session history: every session's entries merged in creation
/// order (by [`HistoryClock`] sequence number), the way a browser's joint
/// history interleaves its windows.
///
/// Restricted to any one session, the joint order equals that session's
/// own order — the model's consistency law, property-tested in
/// `crates/web/tests/history_model.rs`.
#[derive(Debug, Clone, Default)]
pub struct JointHistory {
    entries: Vec<JointEntry>,
}

impl JointHistory {
    /// Merges `sessions` (sharing a clock) into the joint order.
    pub fn of(sessions: &[&SessionHistory]) -> Self {
        let mut entries: Vec<JointEntry> = sessions
            .iter()
            .enumerate()
            .flat_map(|(session, history)| {
                history.entries().into_iter().map(move |entry| JointEntry {
                    session,
                    entry: entry.clone(),
                })
            })
            .collect();
        entries.sort_by_key(|joint| (joint.entry.seq, joint.session));
        JointHistory { entries }
    }

    /// The merged entries, oldest first.
    pub fn entries(&self) -> &[JointEntry] {
        &self.entries
    }

    /// Total merged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no session has visited anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The joint current entry: the most recently created among the
    /// sessions' active entries (the browser's "where the user last was").
    pub fn current(sessions: &[&SessionHistory]) -> Option<JointEntry> {
        sessions
            .iter()
            .enumerate()
            .filter_map(|(session, history)| {
                history.current().map(|entry| JointEntry {
                    session,
                    entry: entry.clone(),
                })
            })
            .max_by_key(|joint| joint.entry.seq)
    }
}

/// A traversal the active route does not allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteViolation {
    /// The member the session was on.
    pub from: String,
    /// The member it tried to reach.
    pub to: String,
    /// What the route would have allowed instead.
    pub allowed: Vec<String>,
}

impl fmt::Display for RouteViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route violation: {} -> {} (allowed next hops: {:?})",
            self.from, self.to, self.allowed
        )
    }
}

impl StdError for RouteViolation {}

/// A compiled route plus the session's position in it: the history
/// model's traversal checker.
///
/// # Examples
///
/// ```
/// use navsep_hypermodel::{AccessStructureKind, Member, NavigationalContext, RouteSpec};
/// use navsep_web::RouteGuard;
///
/// let ctx = NavigationalContext::new(
///     "by-painter:picasso",
///     "Pablo Picasso",
///     vec![Member::new("guitar", "Guitar"), Member::new("guernica", "Guernica")],
///     AccessStructureKind::GuidedTour,
/// )?;
/// let mut guard = RouteGuard::new(&RouteSpec::parse("any/next*")?, &ctx);
/// guard.advance("start", "guitar")?;
/// guard.advance("guitar", "guernica")?;
/// assert!(guard.advance("guernica", "guitar").is_err(), "tour only goes forward");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RouteGuard {
    route: CompiledRoute,
    state: RouteState,
}

impl RouteGuard {
    /// Compiles `spec` against `ctx` and starts at the route's entry
    /// state.
    pub fn new(spec: &RouteSpec, ctx: &NavigationalContext) -> Self {
        let route = spec.compile(ctx);
        let state = route.start();
        RouteGuard { route, state }
    }

    /// The next-hop member slugs the route currently allows from `from`.
    pub fn allowed_from(&self, from: &str) -> BTreeSet<String> {
        self.route.allowed_next(&self.state, from)
    }

    /// Validates the hop `from → to` **without advancing**, returning the
    /// successor state to hand to [`commit`](Self::commit) once the hop
    /// has really happened. Split from [`advance`](Self::advance) so a
    /// caller can veto before a fetch but only move the guard after the
    /// fetch succeeds — a failed load must not desync the guard from the
    /// session's actual position.
    ///
    /// # Errors
    ///
    /// [`RouteViolation`] when the route does not allow the hop.
    pub fn check(&self, from: &str, to: &str) -> Result<RouteState, RouteViolation> {
        self.route
            .step(&self.state, from, to)
            .ok_or_else(|| RouteViolation {
                from: from.to_string(),
                to: to.to_string(),
                allowed: self.allowed_from(from).into_iter().collect(),
            })
    }

    /// Adopts a successor state previously returned by
    /// [`check`](Self::check).
    pub fn commit(&mut self, state: RouteState) {
        self.state = state;
    }

    /// Advances over the hop `from → to` ([`check`](Self::check) +
    /// [`commit`](Self::commit) in one step, for callers with no fetch in
    /// between).
    ///
    /// # Errors
    ///
    /// [`RouteViolation`] (state unchanged) when the route does not allow
    /// the hop.
    pub fn advance(&mut self, from: &str, to: &str) -> Result<(), RouteViolation> {
        match self.route.step(&self.state, from, to) {
            Some(next) => {
                self.state = next;
                Ok(())
            }
            None => Err(RouteViolation {
                from: from.to_string(),
                to: to.to_string(),
                allowed: self.allowed_from(from).into_iter().collect(),
            }),
        }
    }

    /// `true` when the route accepts stopping here.
    pub fn is_accepting(&self) -> bool {
        self.route.is_accepting(&self.state)
    }
}

/// The member slug a site path corresponds to: final path segment, minus
/// its extension (`galleries/guitar.html` → `guitar`) — the convention the
/// weaver uses when it derives one page per member.
pub fn page_slug(path: &str) -> &str {
    let file = path.rsplit('/').next().unwrap_or(path);
    file.rsplit_once('.').map_or(file, |(stem, _)| stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(h: &mut SessionHistory, path: &str, generation: u64) {
        h.push(path, None, None, Some(generation));
    }

    #[test]
    fn push_moves_current_back_and_truncates_forward() {
        let mut h = SessionHistory::new();
        push(&mut h, "a", 1);
        push(&mut h, "b", 1);
        push(&mut h, "c", 1);
        assert_eq!((h.back_len(), h.forward_len()), (2, 0));
        h.back();
        h.back();
        assert_eq!((h.back_len(), h.forward_len()), (0, 2));
        push(&mut h, "d", 1);
        assert_eq!(h.forward_len(), 0, "push truncates the forward stack");
        assert_eq!(
            h.entries()
                .iter()
                .map(|e| e.path.as_str())
                .collect::<Vec<_>>(),
            ["a", "d"]
        );
    }

    #[test]
    fn back_forward_restore_the_entry_exactly() {
        let mut h = SessionHistory::new();
        h.push("a", None, Some("ctx".into()), Some(3));
        h.push("b", Some("b.html".into()), Some("ctx".into()), Some(4));
        let active = h.current().unwrap().clone();
        h.back();
        assert_eq!(h.current().unwrap().path, "a");
        let restored = h.forward().unwrap().clone();
        assert_eq!(restored, active, "forward restores the exact entry");
    }

    #[test]
    fn traverse_clamps_and_reports_actual_delta() {
        let mut h = SessionHistory::new();
        for p in ["a", "b", "c", "d"] {
            push(&mut h, p, 1);
        }
        assert_eq!(h.traverse(-2), -2);
        assert_eq!(h.current().unwrap().path, "b");
        assert_eq!(h.traverse(-10), -1, "clamped at the beginning");
        assert_eq!(h.current().unwrap().path, "a");
        assert_eq!(h.traverse(7), 3, "clamped at the end");
        assert_eq!(h.current().unwrap().path, "d");
        assert_eq!(h.traverse(0), 0);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn replace_keeps_position_and_seq() {
        let mut h = SessionHistory::new();
        push(&mut h, "a", 1);
        push(&mut h, "b", 1);
        push(&mut h, "c", 1);
        h.back();
        let seq_before = h.current().unwrap().seq;
        h.replace("b2", None, None, Some(2));
        assert_eq!(h.current().unwrap().seq, seq_before);
        assert_eq!(h.forward_len(), 1, "replace keeps the forward stack");
        assert_eq!(h.position(), Some(1));
        // Replace on an empty history degenerates to push.
        let mut empty = SessionHistory::new();
        empty.replace("x", None, None, None);
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn freshness_classification() {
        let mut h = SessionHistory::new();
        push(&mut h, "a", 1);
        push(&mut h, "b", 2);
        h.push("c", None, None, None);
        assert_eq!(
            h.entries()[0].freshness(2),
            Freshness::Stale {
                recorded: 1,
                current: 2
            }
        );
        assert_eq!(h.entries()[1].freshness(2), Freshness::Fresh);
        assert_eq!(h.entries()[2].freshness(2), Freshness::Unknown);
        assert_eq!(h.stale_entries(2), 1);
        assert_eq!(h.stale_entries(3), 2);
    }

    #[test]
    fn referenced_generations_cover_all_stacks() {
        let mut h = SessionHistory::new();
        push(&mut h, "a", 1);
        push(&mut h, "b", 2);
        push(&mut h, "c", 2);
        h.push("d", None, None, None);
        h.back(); // d on the forward stack still counts
        assert_eq!(
            h.referenced_generations().into_iter().collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn joint_history_interleaves_by_creation_order() {
        let clock = HistoryClock::new();
        let mut s0 = SessionHistory::with_clock(clock.clone());
        let mut s1 = SessionHistory::with_clock(clock.clone());
        push(&mut s0, "a", 1); // seq 1
        push(&mut s1, "x", 1); // seq 2
        push(&mut s0, "b", 1); // seq 3
        push(&mut s1, "y", 1); // seq 4
        let joint = JointHistory::of(&[&s0, &s1]);
        let order: Vec<&str> = joint
            .entries()
            .iter()
            .map(|j| j.entry.path.as_str())
            .collect();
        assert_eq!(order, ["a", "x", "b", "y"]);
        let current = JointHistory::current(&[&s0, &s1]).unwrap();
        assert_eq!((current.session, current.entry.path.as_str()), (1, "y"));
        assert_eq!(clock.now(), 4);
    }

    #[test]
    fn page_slug_strips_directories_and_extension() {
        assert_eq!(page_slug("guitar.html"), "guitar");
        assert_eq!(page_slug("galleries/cubism/guitar.html"), "guitar");
        assert_eq!(page_slug("bare"), "bare");
        assert_eq!(page_slug("a/b.tar.gz"), "b.tar");
    }

    #[test]
    fn route_guard_reports_allowed_hops_on_violation() {
        use navsep_hypermodel::{AccessStructureKind, Member};
        let ctx = NavigationalContext::new(
            "t",
            "T",
            vec![
                Member::new("a", "A"),
                Member::new("b", "B"),
                Member::new("c", "C"),
            ],
            AccessStructureKind::GuidedTour,
        )
        .unwrap();
        let mut guard = RouteGuard::new(&RouteSpec::parse("first/next*").unwrap(), &ctx);
        guard.advance("outside", "a").unwrap();
        let err = guard.advance("a", "c").unwrap_err();
        assert_eq!(err.allowed, ["b"]);
        assert!(err.to_string().contains("route violation"));
        // The failed advance left the state usable.
        guard.advance("a", "b").unwrap();
        assert!(guard.is_accepting());
    }
}
