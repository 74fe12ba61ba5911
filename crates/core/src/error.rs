//! The unified error type of the navsep pipelines.

use navsep_aspect::WeaveError;
use navsep_hypermodel::ModelError;
use navsep_style::TemplateError;
use navsep_xlink::XLinkError;
use navsep_xml::ParseXmlError;
use std::error::Error as StdError;
use std::fmt;

/// Anything that can go wrong while generating, separating, or weaving a
/// site.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Conceptual/navigational schema violation.
    Model(ModelError),
    /// Malformed XML artifact.
    Xml(ParseXmlError),
    /// Malformed or unresolvable XLink markup.
    XLink(XLinkError),
    /// Presentation transform failure.
    Template(TemplateError),
    /// Aspect weaving failure.
    Weave(WeaveError),
    /// A structural expectation of the pipeline was violated.
    Pipeline(String),
    /// An audit-gated publish found problems and refused to go live.
    Audit(crate::audit::AuditReport),
    /// The pre-weave source lint found gating problems (locators the
    /// weave cannot resolve) and refused to weave at all — cheaper than discovering
    /// them in the woven output.
    SourceLint(crate::lint::SourceLintReport),
    /// A weave worker panicked on one page. The panic was absorbed by the
    /// pipeline's per-page `catch_unwind`; the remaining pages completed
    /// and the pool drained normally.
    WorkerPanic {
        /// The page being woven when the worker panicked (`"<commit>"`
        /// when a publisher commit panicked outside any page).
        path: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An injected fault surfaced ([`fault`](crate::fault) subsystem).
    /// Considered *transient* by [`RetryPolicy`](crate::publish::RetryPolicy),
    /// since fault budgets model recoverable conditions.
    Fault(crate::fault::FaultError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Xml(e) => write!(f, "xml error: {e}"),
            CoreError::XLink(e) => write!(f, "xlink error: {e}"),
            CoreError::Template(e) => write!(f, "template error: {e}"),
            CoreError::Weave(e) => write!(f, "weave error: {e}"),
            CoreError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            CoreError::Audit(report) => write!(f, "audit rejected publish: {report}"),
            CoreError::SourceLint(report) => {
                write!(f, "source lint rejected publish: {report}")
            }
            CoreError::WorkerPanic { path, message } => {
                write!(f, "weave worker panicked on {path}: {message}")
            }
            CoreError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for CoreError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Xml(e) => Some(e),
            CoreError::XLink(e) => Some(e),
            CoreError::Template(e) => Some(e),
            CoreError::Weave(e) => Some(e),
            CoreError::Fault(e) => Some(e),
            CoreError::Pipeline(_)
            | CoreError::Audit(_)
            | CoreError::SourceLint(_)
            | CoreError::WorkerPanic { .. } => None,
        }
    }
}

impl From<crate::fault::FaultError> for CoreError {
    fn from(e: crate::fault::FaultError) -> Self {
        CoreError::Fault(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<ParseXmlError> for CoreError {
    fn from(e: ParseXmlError) -> Self {
        CoreError::Xml(e)
    }
}

impl From<XLinkError> for CoreError {
    fn from(e: XLinkError) -> Self {
        CoreError::XLink(e)
    }
}

impl From<TemplateError> for CoreError {
    fn from(e: TemplateError) -> Self {
        CoreError::Template(e)
    }
}

impl From<WeaveError> for CoreError {
    fn from(e: WeaveError) -> Self {
        CoreError::Weave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = ModelError::UnknownClass("X".into()).into();
        assert!(e.to_string().contains("model error"));
        assert!(e.source().is_some());
        let e = CoreError::Pipeline("bad".into());
        assert!(e.source().is_none());
        assert_eq!(e.to_string(), "pipeline error: bad");
    }
}
