//! # navsep-core — separating the navigational aspect
//!
//! The paper's contribution, executable: a pipeline that authors a web
//! application as three separated concerns — **data** (XML documents),
//! **presentation** (a template transform + CSS), and **navigation** (an
//! XLink linkbase) — and an aspect weaver that composes them into the final
//! site. A tangled baseline generates the same site the pre-paper way, so
//! every claim can be measured:
//!
//! * [`tangled::tangled_site`] — navigation hard-coded in every page
//!   (paper Figs. 3–4);
//! * [`separated::separated_sources`] — `picasso.xml`, `avignon.xml`,
//!   `links.xml`, … (Figs. 7–9);
//! * [`pipeline::weave_separated`] — Fig. 6: transform ⊕ linkbase ⊕ weaver,
//!   with [`pipeline::Weave`] choosing extra aspects, a spec cache, the
//!   worker count, and a fault plan for the same one executor;
//! * [`equiv`] — DOM equivalence between the two (experiment F6);
//! * [`impact`] — change-impact of the Index → Indexed-Guided-Tour switch
//!   (experiment T1, the paper's "arduous and tedious work");
//! * [`museum`] — the exact figure corpus plus a scaled generator.
//!
//! ## Quick start
//!
//! ```
//! use navsep_core::museum::{museum_navigation, paper_museum};
//! use navsep_core::pipeline::weave_separated;
//! use navsep_core::separated::separated_sources;
//! use navsep_core::spec::paper_spec;
//! use navsep_hypermodel::AccessStructureKind;
//!
//! let store = paper_museum();
//! let nav = museum_navigation();
//! // Author the site as separated concerns…
//! let sources = separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index))?;
//! // …and weave the navigational aspect in.
//! let woven = weave_separated(&sources)?;
//! assert!(woven.site.get("guitar.html").is_some());
//! # Ok::<(), navsep_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod derive;
pub mod equiv;
pub mod error;
pub mod fault;
pub mod fragments;
pub mod impact;
pub mod layout;
pub mod lint;
pub mod museum;
pub mod pipeline;
pub mod publish;
pub mod separated;
pub mod spec;
pub mod tangled;

pub use audit::{audit_site, AuditFinding, AuditReport};
pub use derive::{derive_site, DerivedNode, DerivedSite};
pub use equiv::{assert_site_equivalent, dom_equivalent, explain_difference};
pub use error::CoreError;
pub use fault::{FaultError, FaultKind, FaultPlan, FaultRule};
pub use impact::{diff_lines, myers_distance, DiffStats, FileImpact, FileStatus, ImpactReport};
pub use lint::{lint_sources, SourceLintFinding, SourceLintReport};
pub use pipeline::{
    navigation_aspect, navigation_aspect_shared, navigation_map, weave_separated, PageNav, Weave,
    WeaveCache, WovenOutput,
};
pub use publish::{PublishOutcome, RetryPolicy, SitePublisher, SourceEdit};
pub use separated::{data_document, separated_sources, separated_sources_with, MUSEUM_TRANSFORM};
pub use spec::{by_movement, by_painter, contextual_spec, paper_spec, FamilySpec, SiteSpec};
pub use tangled::{page_skeleton, tangled_site};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
        assert_send_sync::<ImpactReport>();
        assert_send_sync::<SiteSpec>();
        assert_send_sync::<WovenOutput>();
        assert_send_sync::<Weave<'static>>();
    }
}
