//! # navsep-aspect — aspect-oriented weaving for documents
//!
//! The paper proposes treating **navigation as an aspect**: specify it
//! separately and let "the AOP mechanisms" weave it with the basic
//! functionality (its Figure 1). AspectJ-style language weaving makes no
//! sense for XML pages, so this crate supplies the document-level analogue
//! its §5 sketches:
//!
//! * **join points** ([`joinpoint`]) — element occurrences during page
//!   rendering;
//! * **pointcuts** ([`Pointcut`]) — a small DSL of predicates
//!   (`element("body") && page("painting-*")`);
//! * **advice** ([`Advice`]) — fragments inserted before/after/inside the
//!   matched element, optionally computed per join point;
//! * **the weaver** ([`Weaver`]) — deterministic composition with aspect
//!   precedence and conflict detection.
//!
//! The navigation aspect built by `navsep-core` is one client; the same
//! engine weaves arbitrary cross-cutting page concerns (banners, audit
//! trails, …), which is what makes it an aspect engine rather than a
//! navigation hack.
//!
//! ## Quick start
//!
//! ```
//! use navsep_aspect::{Aspect, AdvicePosition, Pointcut, Weaver};
//! use navsep_xml::{Document, ElementBuilder};
//!
//! let nav = Aspect::new("navigation").rule(
//!     Pointcut::parse(r#"element("body") && page("painting-*")"#)?,
//!     AdvicePosition::Append,
//!     vec![ElementBuilder::new("a").attr("href", "index.html").text("Back to index")],
//! );
//! let weaver = Weaver::new().aspect(nav);
//! let page = Document::parse("<html><body><h1>Guitar</h1></body></html>")?;
//! let (woven, _) = weaver.weave_page("painting-guitar.html", &page)?;
//! assert!(woven.to_xml_string().contains("Back to index"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod aspect;
pub mod cache;
pub mod compiled;
pub mod error;
pub mod joinpoint;
pub mod pointcut;
pub mod weaver;
pub mod xmlspec;

pub use advice::{Advice, AdviceContent, AdvicePosition, ContentFn, PageContentFn, Realized};
pub use aspect::{AdviceRule, Aspect};
pub use cache::{spec_hash, AspectCache, SpecCache};
pub use compiled::{CandidatePlan, Candidates, CompiledPointcut, CompiledWeaver};
pub use error::{ParsePointcutError, WeaveError};
pub use joinpoint::{join_points, JoinPoint};
pub use pointcut::{glob_match, Pointcut};
pub use weaver::{WeaveEvent, WeaveReport, Weaver};
pub use xmlspec::{parse_aspects, AspectSpecError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Aspect>();
        assert_send_sync::<Weaver>();
        assert_send_sync::<Pointcut>();
        assert_send_sync::<WeaveError>();
    }
}
