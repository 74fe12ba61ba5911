//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded registry of [`FaultRule`]s keyed by **named
//! injection sites** (see [`sites`]) that production code consults at the
//! few places where a real deployment would fail: a page weave panicking, a
//! page weaving slowly, a parse/weave error, a store publish failing
//! mid-commit, a request handler crashing.
//! The robustness layer (panic-isolated weave workers, the shedding
//! [`ServerPool`](crate::server::ServerPool), transactional publish with
//! retry) is *gated* on these injections: chaos tests arm a plan and assert
//! the documented degradation instead of hoping an organic failure shows up.
//!
//! Two properties matter:
//!
//! * **Deterministic.** Every decision is a pure function of the plan seed,
//!   the site name, the key (usually a page path), and how many times the
//!   rule has matched so far. The same plan replays the same faults in the
//!   same order; proptest shrinking and CI reruns see identical behavior.
//! * **Zero-cost when disarmed.** Injection points take an
//!   `Option<&FaultPlan>` (or check an `AtomicBool` on the store): with no
//!   plan armed the entire subsystem is a single branch on `None`.
//!
//! ```
//! use navsep_web::fault::{sites, FaultKind, FaultPlan, FaultRule};
//!
//! let plan = FaultPlan::new(42)
//!     .rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic).matching("guitar").times(1));
//! assert!(plan.decide(sites::WEAVE_PAGE, "room/piano.xml").is_none());
//! assert_eq!(plan.decide(sites::WEAVE_PAGE, "room/guitar.xml"), Some(FaultKind::Panic));
//! // The rule fired its one time; the next match passes through.
//! assert!(plan.decide(sites::WEAVE_PAGE, "room/guitar.xml").is_none());
//! assert_eq!(plan.fired(), 1);
//! ```

use crate::http::{Request, Response};
use crate::server::Handler;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The catalog of named injection sites.
///
/// Each constant names the exact production code path that consults it; the
/// ARCHITECTURE.md "Faults and degradation" section documents what surviving
/// each one looks like.
pub mod sites {
    /// A page weave in any pipeline path (transform + weave of one page,
    /// at any worker count). `Panic` here exercises `catch_unwind`
    /// isolation; `Error` becomes a `CoreError`; `Slow` stalls the worker.
    /// Key: the page path. A publisher also consults it once per commit,
    /// keyed `"publisher.commit"`.
    pub const WEAVE_PAGE: &str = "weave.page";

    /// A sharded-store publish, checked under the publish lock after
    /// rendering but before any epoch retention or shard swap — so an
    /// injected failure aborts with the old epoch fully intact. Key:
    /// `"commit"`.
    pub const STORE_PUBLISH: &str = "store.publish";

    /// A request handler inside a server worker, via
    /// [`FaultInjectingHandler`](super::FaultInjectingHandler). `Panic`
    /// exercises worker respawn; `Slow` exercises deadlines and
    /// queue-full shedding. Key: the request path.
    pub const SERVER_HANDLE: &str = "server.handle";
}

/// What happens when a rule fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the injection site (message contains `"injected fault"`).
    Panic,
    /// Sleep for the given duration, then proceed normally.
    Slow(Duration),
    /// Fail with a [`FaultError`] carrying this message.
    Error(String),
    /// Abandon the surrounding worker: [`sites::SERVER_HANDLE`] treats it
    /// as a panic, every other site as [`FaultKind::Error`].
    Disconnect,
}

/// The error produced when an [`FaultKind::Error`] (or `Disconnect`) rule
/// fires. Carries the site and key so tests can assert *which* injection
/// surfaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The injection site that fired (one of [`sites`]).
    pub site: String,
    /// The key the site was consulted with (usually a page path).
    pub key: String,
    /// The rule's message.
    pub message: String,
}

impl FaultError {
    /// Creates a fault error.
    pub fn new(
        site: impl Into<String>,
        key: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        FaultError {
            site: site.into(),
            key: key.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault at {} [{}]: {}",
            self.site, self.key, self.message
        )
    }
}

impl std::error::Error for FaultError {}

/// One injection rule: where it applies, what it does, and how often.
///
/// Build with [`FaultRule::at`] plus the chained modifiers; add to a plan
/// with [`FaultPlan::rule`].
#[derive(Debug)]
pub struct FaultRule {
    site: String,
    key_contains: Option<String>,
    kind: FaultKind,
    /// Matches to let through before the rule may fire.
    skip: u32,
    /// Fires remaining; `u32::MAX` means unlimited.
    remaining: AtomicU32,
    /// Out of 1000; 1000 fires on every eligible match.
    probability_permille: u32,
    /// Matches seen so far (drives `skip` and the probability stream).
    seen: AtomicU32,
}

impl FaultRule {
    /// A rule firing `kind` at `site`, on every match, forever.
    pub fn at(site: impl Into<String>, kind: FaultKind) -> Self {
        FaultRule {
            site: site.into(),
            key_contains: None,
            kind,
            skip: 0,
            remaining: AtomicU32::new(u32::MAX),
            probability_permille: 1000,
            seen: AtomicU32::new(0),
        }
    }

    /// Restricts the rule to keys containing `needle`.
    pub fn matching(mut self, needle: impl Into<String>) -> Self {
        self.key_contains = Some(needle.into());
        self
    }

    /// Lets the first `n` matches through before the rule may fire.
    pub fn after(mut self, n: u32) -> Self {
        self.skip = n;
        self
    }

    /// Caps the rule at `n` firings; after that it never fires again.
    /// This is how *transient* faults are modeled: a retry that re-runs the
    /// site after the budget is spent succeeds.
    pub fn times(mut self, n: u32) -> Self {
        self.remaining = AtomicU32::new(n);
        self
    }

    /// Fires on roughly `p` of eligible matches (`0.0..=1.0`), decided
    /// deterministically from the plan seed and the match sequence.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability_permille = (p.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self
    }
}

/// A record of one fired fault, for post-run assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultHit {
    /// The site that fired.
    pub site: String,
    /// The key it fired for.
    pub key: String,
    /// What was injected.
    pub kind: FaultKind,
}

/// A seeded, deterministic registry of [`FaultRule`]s.
///
/// Thread-safe: rules keep their counters in atomics, so a plan can be
/// shared (`Arc<FaultPlan>`) across weave workers, server workers, and the
/// store simultaneously.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    fired: AtomicU64,
    log: Mutex<Vec<FaultHit>>,
}

impl FaultPlan {
    /// An empty plan with the given seed (the seed only matters for
    /// probabilistic rules).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            fired: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Adds a rule (builder style). Earlier rules win when several match.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total faults fired so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }

    /// A snapshot of every fault fired so far, in firing order.
    pub fn hits(&self) -> Vec<FaultHit> {
        crate::sync::lock(&self.log).clone()
    }

    /// Consults the plan at `site` for `key`: `Some(kind)` when a rule
    /// fires (its counters advance), `None` to proceed normally.
    pub fn decide(&self, site: &str, key: &str) -> Option<FaultKind> {
        for rule in &self.rules {
            if rule.site != site {
                continue;
            }
            if let Some(needle) = &rule.key_contains {
                if !key.contains(needle.as_str()) {
                    continue;
                }
            }
            let seq = rule.seen.fetch_add(1, Ordering::SeqCst);
            if seq < rule.skip {
                continue;
            }
            if rule.probability_permille < 1000 {
                let roll = mix(self.seed, site, key, seq) % 1000;
                if roll >= u64::from(rule.probability_permille) {
                    continue;
                }
            }
            // Claim one firing; a concurrent matcher may exhaust the budget
            // between the checks above and here, hence the CAS loop.
            let claimed = rule
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    if n == 0 {
                        None
                    } else if n == u32::MAX {
                        Some(n)
                    } else {
                        Some(n - 1)
                    }
                })
                .is_ok();
            if !claimed {
                continue;
            }
            self.fired.fetch_add(1, Ordering::SeqCst);
            self.log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(FaultHit {
                    site: site.to_string(),
                    key: key.to_string(),
                    kind: rule.kind.clone(),
                });
            return Some(rule.kind.clone());
        }
        None
    }
}

/// FNV-1a over the seed, site, key, and match sequence — the deterministic
/// "dice roll" behind probabilistic rules.
fn mix(seed: u64, site: &str, key: &str, seq: u32) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for byte in seed.to_le_bytes() {
        step(byte);
    }
    for byte in site.bytes() {
        step(byte);
    }
    step(0xff);
    for byte in key.bytes() {
        step(byte);
    }
    step(0xff);
    for byte in seq.to_le_bytes() {
        step(byte);
    }
    hash
}

/// Consults `plan` (if armed) at `site`/`key` and *acts* on the outcome:
/// panics for [`FaultKind::Panic`], sleeps through [`FaultKind::Slow`], and
/// returns a [`FaultError`] for [`FaultKind::Error`]/[`FaultKind::Disconnect`].
/// Sites that act on a decision differently call [`FaultPlan::decide`]
/// directly.
pub fn fire(plan: Option<&FaultPlan>, site: &str, key: &str) -> Result<(), FaultError> {
    let Some(plan) = plan else { return Ok(()) };
    match plan.decide(site, key) {
        None => Ok(()),
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site} [{key}]"),
        Some(FaultKind::Slow(delay)) => {
            std::thread::sleep(delay);
            Ok(())
        }
        Some(FaultKind::Error(message)) => Err(FaultError::new(site, key, message)),
        Some(FaultKind::Disconnect) => Err(FaultError::new(site, key, "disconnect")),
    }
}

/// Wraps a [`Handler`], consulting a plan at [`sites::SERVER_HANDLE`] before
/// each request: panics propagate to the pool's `catch_unwind` (exercising
/// respawn), slowness exercises deadlines, and errors become plain 500s.
pub struct FaultInjectingHandler<H> {
    inner: H,
    plan: std::sync::Arc<FaultPlan>,
}

impl<H> FaultInjectingHandler<H> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: H, plan: std::sync::Arc<FaultPlan>) -> Self {
        FaultInjectingHandler { inner, plan }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<H: Handler> Handler for FaultInjectingHandler<H> {
    fn handle(&self, request: &Request) -> Response {
        match self.plan.decide(sites::SERVER_HANDLE, request.path()) {
            Some(FaultKind::Panic) | Some(FaultKind::Disconnect) => {
                panic!("injected fault: handler panic at [{}]", request.path())
            }
            Some(FaultKind::Slow(delay)) => std::thread::sleep(delay),
            Some(FaultKind::Error(message)) => {
                return Response::server_error(&format!(
                    "injected fault at {} [{}]: {message}",
                    sites::SERVER_HANDLE,
                    request.path()
                ))
            }
            None => {}
        }
        self.inner.handle(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_a_no_op() {
        assert!(fire(None, sites::WEAVE_PAGE, "a.xml").is_ok());
    }

    #[test]
    fn times_budget_is_exhausted_in_order() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Error("boom".into())).times(2));
        assert!(plan.decide(sites::WEAVE_PAGE, "a").is_some());
        assert!(plan.decide(sites::WEAVE_PAGE, "b").is_some());
        assert!(plan.decide(sites::WEAVE_PAGE, "c").is_none());
        assert_eq!(plan.fired(), 2);
        assert_eq!(plan.hits().len(), 2);
        assert_eq!(plan.hits()[0].key, "a");
    }

    #[test]
    fn after_skips_initial_matches() {
        let plan =
            FaultPlan::new(1).rule(FaultRule::at(sites::STORE_PUBLISH, FaultKind::Panic).after(2));
        assert!(plan.decide(sites::STORE_PUBLISH, "commit").is_none());
        assert!(plan.decide(sites::STORE_PUBLISH, "commit").is_none());
        assert!(plan.decide(sites::STORE_PUBLISH, "commit").is_some());
    }

    #[test]
    fn matching_filters_by_key_substring() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic).matching("guitar"));
        assert!(plan.decide(sites::WEAVE_PAGE, "piano.xml").is_none());
        assert!(plan.decide(sites::WEAVE_PAGE, "guitar.xml").is_some());
    }

    #[test]
    fn wrong_site_never_matches() {
        let plan = FaultPlan::new(1).rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic));
        assert!(plan.decide(sites::STORE_PUBLISH, "commit").is_none());
    }

    #[test]
    fn probability_is_deterministic_for_a_seed() {
        let make = || {
            FaultPlan::new(99)
                .rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic).with_probability(0.5))
        };
        let first: Vec<bool> = {
            let plan = make();
            (0..32)
                .map(|i| plan.decide(sites::WEAVE_PAGE, &format!("p{i}")).is_some())
                .collect()
        };
        let second: Vec<bool> = {
            let plan = make();
            (0..32)
                .map(|i| plan.decide(sites::WEAVE_PAGE, &format!("p{i}")).is_some())
                .collect()
        };
        assert_eq!(first, second);
        assert!(first.iter().any(|fired| *fired));
        assert!(first.iter().any(|fired| !*fired));
    }

    #[test]
    fn fire_surfaces_errors_and_sleeps_through_slow() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Error("parse".into())).times(1))
            .rule(FaultRule::at(
                sites::WEAVE_PAGE,
                FaultKind::Slow(Duration::from_millis(1)),
            ));
        let err = fire(Some(&plan), sites::WEAVE_PAGE, "a.xml").unwrap_err();
        assert_eq!(err.site, sites::WEAVE_PAGE);
        assert_eq!(err.key, "a.xml");
        assert!(err.to_string().contains("parse"));
        // Budget spent: the slow rule now matches, which still succeeds.
        assert!(fire(Some(&plan), sites::WEAVE_PAGE, "a.xml").is_ok());
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn fire_panics_on_panic_rules() {
        let plan = FaultPlan::new(1).rule(FaultRule::at(sites::WEAVE_PAGE, FaultKind::Panic));
        let _ = fire(Some(&plan), sites::WEAVE_PAGE, "a.xml");
    }
}
