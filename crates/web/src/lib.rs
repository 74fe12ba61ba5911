//! # navsep-web — the web tier the paper assumes
//!
//! The paper evaluates its proposal against a museum *web application*; its
//! stated blocker is that 2002 browsers could not process XLink. This crate
//! simulates the missing tier deterministically:
//!
//! * [`Site`] — in-memory path→resource store (implements
//!   [`navsep_xlink::DocumentProvider`]);
//! * [`Request`]/[`Response`] — HTTP-shaped messages shared by in-process
//!   callers and the wire;
//! * [`wire`]/[`HttpListener`] — the network front end: a resumable
//!   HTTP/1.1 parser/serializer and a readiness-driven (epoll/poll)
//!   event-loop listener with keep-alive, pipelining, accept-time
//!   connection-cap shedding, idle reaping, and graceful drain,
//!   equivalence-tested byte-for-byte against the in-process handlers;
//! * [`ServerPool`] — a concurrent worker-pool server over any
//!   [`Handler`];
//! * [`ShardedSiteStore`]/[`ShardedSiteHandler`] — the served site: pages
//!   partitioned across per-shard locks, publishes swapped in as immutable
//!   generation-stamped epochs so readers never block on a weave, every
//!   publish reusing the pages it did not change, and a bounded ring of
//!   retained epochs serving time-travel reads (`x-navsep-at-generation`);
//! * [`UserAgent`] — the XLink-aware browser: HTML anchors *and* XLink
//!   simple links, `actuate="onLoad"` auto-traversals;
//! * [`NavigationSession`] — history plus the **current navigational
//!   context**, making the paper's context-dependent "Next" observable;
//! * [`history`] — the navigation-history subsystem (Brewster–Jeffrey
//!   back/forward stacks, joint history across sessions, reweave-stale
//!   classification, route-conformance guards).
//!
//! ## Quick start
//!
//! ```
//! use navsep_web::{NavigationSession, ShardedSiteHandler, ShardedSiteStore, Site};
//! use navsep_xml::Document;
//! use std::sync::Arc;
//!
//! let mut site = Site::new();
//! site.put_page("index.html", Document::parse(
//!     r#"<html><body><a href="guitar.html">Guitar</a></body></html>"#)?);
//! site.put_page("guitar.html", Document::parse(
//!     r#"<html><body><h1>Guitar</h1></body></html>"#)?);
//!
//! let store = Arc::new(ShardedSiteStore::from_site(1, &site));
//! let mut session = NavigationSession::new(ShardedSiteHandler::new(store));
//! session.visit("index.html")?;
//! session.follow("Guitar")?;
//! assert_eq!(session.current_path(), Some("guitar.html"));
//! assert_eq!(session.current_generation(), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
mod conn;
mod event_loop;
pub mod fault;
pub mod history;
pub mod http;
pub mod listener;
pub mod server;
pub mod session;
pub mod site;
pub mod store;
mod sync;
pub mod wire;

pub use agent::{
    anchors_under, links_of, resolve_href, ActivatedPage, AgentError, LoadedPage, UiLink,
    UiLinkKind, UserAgent,
};
pub use fault::{FaultError, FaultHit, FaultInjectingHandler, FaultKind, FaultPlan, FaultRule};
pub use history::{
    page_slug, Freshness, HistoryClock, HistoryEntry, JointEntry, JointHistory, RouteGuard,
    RouteViolation, SessionHistory,
};
pub use http::{Method, Request, Response, Status};
pub use listener::{HttpListener, ListenerConfig, ListenerStats};
pub use server::{Handler, PoolConfig, ServerPool, RETRY_AFTER_HEADER, SHED_HEADER};
pub use session::{NavigationSession, SessionError, Visit};
pub use site::{MediaType, Resource, Site};
pub use store::{
    page_shard_hash, ChangeSet, EpochPin, IncrementalPublish, ResourceRead, ShardedSiteHandler,
    ShardedSiteStore, AT_GENERATION_HEADER, DEFAULT_RETENTION, DEGRADED_HEADER, GENERATION_HEADER,
    IF_GENERATION_HEADER, STALE_HEADER,
};
pub use wire::{WireError, WireLimits, WireRequest, WireResponse};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Site>();
        assert_send_sync::<ShardedSiteStore>();
        assert_send_sync::<ShardedSiteHandler>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        assert_send_sync::<SessionError>();
        assert_send_sync::<SessionHistory>();
        assert_send_sync::<JointHistory>();
        assert_send_sync::<HistoryClock>();
        assert_send_sync::<RouteGuard>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<ServerPool>();
    }
}

/// Helpers shared by the unit-test modules.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{Handler, Request, Response, ShardedSiteHandler, ShardedSiteStore, Site};
    use std::sync::Arc;

    /// `site` served from a one-shard store, as generation 1.
    pub(crate) fn serve(site: &Site) -> ShardedSiteHandler {
        ShardedSiteHandler::new(Arc::new(ShardedSiteStore::from_site(1, site)))
    }

    /// A handler that stamps no generation: it answers what the wrapped
    /// handler answers, minus every header but the content type on a
    /// success (so a HEAD advertises no length).
    pub(crate) struct Unstamped(pub(crate) ShardedSiteHandler);

    impl Handler for Unstamped {
        fn handle(&self, request: &Request) -> Response {
            let stamped = self.0.handle(request);
            match stamped.content_type() {
                Some(media_type) if stamped.status().is_success() => {
                    Response::ok(media_type, stamped.body().clone())
                }
                _ => stamped,
            }
        }
    }
}
