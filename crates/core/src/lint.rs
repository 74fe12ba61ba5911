//! Pre-weave lint of the **separated sources** — the checks that are
//! cheaper before weaving than after.
//!
//! [`crate::audit::audit_site`] inspects the *woven output*: to learn that
//! a locator dangles, it first pays for the whole weave. The sources name
//! the same facts directly: every locator an arc of the linkbase uses must
//! resolve — its document exists and its pointer selects a node — and
//! every transform template ought to match some data document's root
//! class. [`lint_sources`] checks both before any page is transformed, so
//! [`crate::publish::SitePublisher::commit_audited`] can refuse a broken
//! batch before weaving anything.
//!
//! The locator check is the weave's own: the same walk over the same
//! expanded traversal list, which the lint runs to the end instead of
//! stopping at the first failure. So the lint has an error exactly when
//! the weave's locator check fails, and its first error names the href
//! that check fails at. A locator no arc uses is not resolved by either.
//!
//! Findings split into **errors** (unresolvable locators — the weave is
//! guaranteed to fail) and **warnings** (unused templates — legal, often
//! deliberate, e.g. the museum transform carries a `movement` template
//! that single-family specs never exercise). Only errors gate a publish.

use crate::layout::{is_spec_path, slug_of_data, LINKBASE_PATH, TRANSFORM_PATH};
use crate::pipeline::WeaveCache;
use navsep_web::{Resource, Site};
use navsep_xlink::{Endpoint, XLinkError};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// One problem (or oddity) found in the separated sources.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SourceLintFinding {
    /// A linkbase locator addresses a data document the sources do not
    /// contain — named **before** weave time, where the audit would only
    /// see the broken page it produces. An error.
    DanglingLocator {
        /// The locator's href, resolved against `links.xml`.
        href: String,
        /// The resolved source path that is missing.
        target: String,
    },
    /// A linkbase locator's pointer selects nothing in the document it
    /// addresses (e.g. an XPointer on an `id` the document no longer
    /// carries). An error.
    UnresolvedPointer {
        /// The locator's href, resolved against `links.xml`.
        href: String,
        /// Why the pointer selected nothing.
        reason: String,
    },
    /// A transform template whose `match` pattern names a class no data
    /// document's root element carries — dead presentation, or a typo for
    /// a live class. A warning (single-family specs legitimately leave
    /// templates of other families unused).
    UnusedTemplate {
        /// The template's `match` pattern.
        pattern: String,
    },
}

impl SourceLintFinding {
    /// `true` for findings that gate a publish (see module docs).
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            SourceLintFinding::DanglingLocator { .. } | SourceLintFinding::UnresolvedPointer { .. }
        )
    }
}

impl fmt::Display for SourceLintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceLintFinding::DanglingLocator { href, target } => {
                write!(f, "dangling locator {href:?} (no source at {target:?})")
            }
            SourceLintFinding::UnresolvedPointer { href, reason } => {
                write!(f, "locator {href:?} selects nothing: {reason}")
            }
            SourceLintFinding::UnusedTemplate { pattern } => {
                write!(f, "template match={pattern:?} matches no data document")
            }
        }
    }
}

/// The result of a pre-weave source lint.
#[derive(Debug, Clone, Default)]
pub struct SourceLintReport {
    /// All findings, errors first.
    pub findings: Vec<SourceLintFinding>,
    /// Locator endpoints resolved: two per traversal, as the weave's
    /// locator check resolves them.
    pub locators_checked: usize,
    /// Templates examined.
    pub templates_checked: usize,
}

impl SourceLintReport {
    /// `true` when nothing at all was flagged.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when a gating finding (an unresolvable locator) is present.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(SourceLintFinding::is_error)
    }

    /// The gating findings.
    pub fn errors(&self) -> impl Iterator<Item = &SourceLintFinding> {
        self.findings.iter().filter(|f| f.is_error())
    }

    /// The non-gating findings.
    pub fn warnings(&self) -> impl Iterator<Item = &SourceLintFinding> {
        self.findings.iter().filter(|f| !f.is_error())
    }
}

impl fmt::Display for SourceLintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "linted {} locators, {} templates: {}",
            self.locators_checked,
            self.templates_checked,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.findings.len())
            }
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// The root-element local name of every data document in `sources` (spec
/// files excluded) — the classes the transform can actually meet.
fn data_root_classes(sources: &Site) -> BTreeSet<String> {
    sources
        .iter()
        .filter(|(path, _)| !is_spec_path(path) && slug_of_data(path).is_some())
        .filter_map(|(_, res)| res.document())
        .filter_map(|doc| {
            doc.root_element()
                .and_then(|root| doc.name(root).map(|q| q.local().to_string()))
        })
        .collect()
}

/// Lints the separated sources **before** any weave:
///
/// 1. every traversal endpoint in `links.xml` resolves: its document
///    exists and its pointer selects a node (errors, one per failing
///    href, in the order the weave's locator check meets them);
/// 2. every `transform.xml` template matches at least one data document's
///    root class (warnings).
///
/// A missing or malformed `links.xml`/`transform.xml` is *not* a lint
/// finding — the pipeline reports those precisely on its own; the lint
/// simply skips what it cannot parse or expand.
pub fn lint_sources(sources: &Site) -> SourceLintReport {
    lint_cached(sources, &WeaveCache::new())
}

/// [`lint_sources`], with the expanded linkbase fetched from (or compiled
/// into) `cache`.
pub(crate) fn lint_cached(sources: &Site, cache: &WeaveCache) -> SourceLintReport {
    let mut report = SourceLintReport::default();

    if let Some(doc) = sources.get(LINKBASE_PATH).and_then(Resource::document) {
        if let Ok(linkbase) = cache.linkbase(doc) {
            let mut failed: HashSet<String> = HashSet::new();
            for (endpoint, resolved) in linkbase.resolve_locators(sources, None) {
                report.locators_checked += 1;
                let (Endpoint::Remote(href), Err(error)) = (endpoint, resolved) else {
                    continue;
                };
                let href = href.to_string();
                if !failed.insert(href.clone()) {
                    continue;
                }
                report.findings.push(match error {
                    XLinkError::UnknownDocument(target) => {
                        SourceLintFinding::DanglingLocator { href, target }
                    }
                    XLinkError::PointerFailed { reason, .. } => {
                        SourceLintFinding::UnresolvedPointer { href, reason }
                    }
                    // Endpoint resolution fails in no other way.
                    other => SourceLintFinding::UnresolvedPointer {
                        href,
                        reason: other.to_string(),
                    },
                });
            }
        }
    }

    let classes = data_root_classes(sources);
    if let Some(doc) = sources.get(TRANSFORM_PATH).and_then(Resource::document) {
        if let Some(root) = doc.root_element() {
            for tpl in doc.child_elements(root) {
                let Some(pattern) = doc.attribute(tpl, "match") else {
                    continue;
                };
                report.templates_checked += 1;
                // `*` and `/` match anything; path patterns match by their
                // final segment (the element the template presents).
                let class = match pattern {
                    "*" | "/" => continue,
                    p => p.rsplit('/').next().unwrap_or(p),
                };
                if !classes.contains(class) {
                    report.findings.push(SourceLintFinding::UnusedTemplate {
                        pattern: pattern.to_string(),
                    });
                }
            }
        }
    }

    report.findings.sort_by_key(|f| usize::from(!f.is_error()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::museum::{museum_navigation, paper_museum};
    use crate::separated::separated_sources;
    use crate::spec::{contextual_spec, paper_spec};
    use navsep_hypermodel::AccessStructureKind;

    fn museum_sources(spec: crate::spec::SiteSpec) -> Site {
        separated_sources(&paper_museum(), &museum_navigation(), &spec).unwrap()
    }

    #[test]
    fn paper_museum_lints_without_errors() {
        let sources = museum_sources(paper_spec(AccessStructureKind::Index));
        let report = lint_sources(&sources);
        assert!(!report.has_errors(), "{report}");
        assert!(report.locators_checked > 0);
        // The single-family spec leaves the movement template unused —
        // flagged as a warning, not a gate.
        assert_eq!(report.warnings().count(), 1);
        assert!(report.to_string().contains("movement"));
    }

    #[test]
    fn contextual_museum_uses_every_template() {
        let sources = museum_sources(contextual_spec(AccessStructureKind::Index));
        let report = lint_sources(&sources);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.templates_checked, 3);
    }

    #[test]
    fn dangling_locator_is_an_error() {
        let mut sources = museum_sources(paper_spec(AccessStructureKind::Index));
        sources.remove("guitar.xml");
        let report = lint_sources(&sources);
        assert!(report.has_errors());
        let error = report.errors().next().unwrap();
        assert!(
            matches!(error, SourceLintFinding::DanglingLocator { target, .. }
                if target == "guitar.xml"),
            "{error}"
        );
        assert!(report.to_string().contains("guitar.xml"));
    }

    #[test]
    fn one_finding_per_failing_href() {
        // Several traversals end at guitar.xml; the walk fails at each of
        // them, the lint names the href once.
        let mut sources = museum_sources(paper_spec(AccessStructureKind::Index));
        sources.remove("guitar.xml");
        let report = lint_sources(&sources);
        assert_eq!(report.errors().count(), 1, "{report}");
    }

    #[test]
    fn missing_specs_are_not_lint_findings() {
        // The pipeline reports missing specs precisely; the lint stays out
        // of its way.
        let mut sources = museum_sources(paper_spec(AccessStructureKind::Index));
        sources.remove(crate::layout::LINKBASE_PATH);
        sources.remove(crate::layout::TRANSFORM_PATH);
        let report = lint_sources(&sources);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.locators_checked, 0);
        assert_eq!(report.templates_checked, 0);
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut sources = museum_sources(paper_spec(AccessStructureKind::Index));
        sources.remove("guitar.xml");
        let report = lint_sources(&sources);
        assert!(report.findings[0].is_error());
        assert!(!report.findings.last().unwrap().is_error());
    }
}
