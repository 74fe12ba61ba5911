//! Deterministic fault injection — re-exported from [`navsep_web::fault`].
//!
//! The fault subsystem lives in `navsep-web` because its injection sites
//! span both tiers (the sharded store and server pool there, the weave
//! pipeline and publisher here) and `navsep-core` sits above `navsep-web`
//! in the crate graph. This module makes `navsep_core::fault` the
//! canonical path: arm a [`FaultPlan`] and thread it through
//! [`Weave::faults`](crate::Weave::faults),
//! [`SitePublisher::with_faults`](crate::SitePublisher::with_faults), and
//! [`ShardedSiteStore::arm_faults`](navsep_web::ShardedSiteStore::arm_faults).
//!
//! With no plan armed every injection point is a branch on `None` (or one
//! relaxed atomic load in the store) — outputs are byte-identical to the
//! un-faulted paths, which the chaos suite asserts.

pub use navsep_web::fault::{
    fire, sites, FaultError, FaultHit, FaultInjectingHandler, FaultKind, FaultPlan, FaultRule,
};
