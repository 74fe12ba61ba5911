//! Cross-document resolution of traversal endpoints.
//!
//! A [`Linkbase`] yields traversals whose endpoints are hrefs like
//! `picasso.xml#xpointer(//painting[@id='guitar'])`. This module turns those
//! into concrete `(document, node)` pairs by consulting a
//! [`DocumentProvider`] — the role a browser's fetch layer would play, had
//! 2002 browsers supported XLink (the paper's stated blocker).

use crate::error::XLinkError;
use crate::href::Href;
use crate::link::{Endpoint, Traversal};
use crate::linkbase::Linkbase;
use navsep_xml::{Document, NodeId};
use std::collections::BTreeMap;

/// Supplies documents by site path. Implemented by in-memory maps here and
/// by `navsep-web`'s `Site`.
pub trait DocumentProvider {
    /// Returns the document stored at `path`, if any.
    fn document(&self, path: &str) -> Option<&Document>;
}

impl DocumentProvider for BTreeMap<String, Document> {
    fn document(&self, path: &str) -> Option<&Document> {
        self.get(path)
    }
}

/// A fully resolved traversal endpoint: which document, which node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedEndpoint {
    /// Site path of the containing document; empty for local resources.
    pub document: String,
    /// The selected node (document root when no fragment was given).
    pub node: NodeId,
    /// The original href, for diagnostics (absent for local resources).
    pub href: Option<Href>,
}

/// A traversal with both endpoints resolved to nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedTraversal {
    /// The unresolved traversal (labels, arcrole, show/actuate, title).
    pub traversal: Traversal,
    /// Resolved starting endpoint.
    pub from: ResolvedEndpoint,
    /// Resolved ending endpoint.
    pub to: ResolvedEndpoint,
}

/// Resolves endpoints against a [`DocumentProvider`].
#[derive(Debug)]
pub struct Resolver<'p, P: DocumentProvider + ?Sized> {
    provider: &'p P,
    linkbase_path: String,
}

impl<'p, P: DocumentProvider + ?Sized> Resolver<'p, P> {
    /// Creates a resolver reading documents from `provider`; `linkbase_path`
    /// is the path of the linkbase whose traversals will be resolved (used
    /// for same-document references).
    pub fn new(provider: &'p P, linkbase_path: impl Into<String>) -> Self {
        Resolver {
            provider,
            linkbase_path: linkbase_path.into(),
        }
    }

    /// Resolves one endpoint.
    ///
    /// # Errors
    ///
    /// * [`XLinkError::UnknownDocument`] when the href names a document the
    ///   provider cannot supply;
    /// * [`XLinkError::PointerFailed`] when the fragment selects nothing.
    pub fn resolve_endpoint(&self, ep: &Endpoint) -> Result<ResolvedEndpoint, XLinkError> {
        match ep {
            Endpoint::Local(node) => Ok(ResolvedEndpoint {
                document: self.linkbase_path.clone(),
                node: *node,
                href: None,
            }),
            Endpoint::Remote(href) => {
                let doc_path = if href.is_same_document() {
                    self.linkbase_path.clone()
                } else {
                    href.document().to_string()
                };
                let doc = self
                    .provider
                    .document(&doc_path)
                    .ok_or_else(|| XLinkError::UnknownDocument(doc_path.clone()))?;
                let node = match href.fragment() {
                    Some(frag) => navsep_xpointer::resolve_first(doc, frag).map_err(|e| {
                        XLinkError::PointerFailed {
                            href: href.to_string(),
                            reason: e.to_string(),
                        }
                    })?,
                    None => doc.require_root().map_err(|e| XLinkError::PointerFailed {
                        href: href.to_string(),
                        reason: e.to_string(),
                    })?,
                };
                Ok(ResolvedEndpoint {
                    document: doc_path,
                    node,
                    href: Some(href.clone()),
                })
            }
        }
    }

    /// Resolves every traversal of `linkbase`.
    ///
    /// # Errors
    ///
    /// Fails fast on the first unresolvable endpoint.
    pub fn resolve(&self, linkbase: &Linkbase) -> Result<Vec<ResolvedTraversal>, XLinkError> {
        let mut out = Vec::new();
        for t in linkbase.traversals()? {
            let from = self.resolve_endpoint(&t.from)?;
            let to = self.resolve_endpoint(&t.to)?;
            out.push(ResolvedTraversal {
                traversal: t,
                from,
                to,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const XLINK: &str = "xmlns:xlink=\"http://www.w3.org/1999/xlink\"";

    fn provider() -> BTreeMap<String, Document> {
        let mut m = BTreeMap::new();
        m.insert(
            "picasso.xml".to_string(),
            Document::parse(
                r#"<painter id="picasso"><painting id="guitar"/><painting id="guernica"/></painter>"#,
            )
            .unwrap(),
        );
        m.insert(
            "avignon.xml".to_string(),
            Document::parse(r#"<painting id="avignon"><title>Les Demoiselles</title></painting>"#)
                .unwrap(),
        );
        m
    }

    fn linkbase(provider_docs: &BTreeMap<String, Document>) -> (Document, Linkbase) {
        let _ = provider_docs;
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="painter" xlink:href="picasso.xml"/>
  <l xlink:type="locator" xlink:label="work" xlink:href="picasso.xml#guitar"/>
  <l xlink:type="locator" xlink:label="work" xlink:href="avignon.xml"/>
  <arc xlink:type="arc" xlink:from="painter" xlink:to="work" xlink:arcrole="urn:nav:index"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        (doc, lb)
    }

    #[test]
    fn resolves_documents_and_fragments() {
        let docs = provider();
        let (_lbdoc, lb) = linkbase(&docs);
        let resolver = Resolver::new(&docs, "links.xml");
        let resolved = resolver.resolve(&lb).unwrap();
        assert_eq!(resolved.len(), 2);
        // First target: fragment #guitar inside picasso.xml.
        let guitar = &resolved[0].to;
        assert_eq!(guitar.document, "picasso.xml");
        let pdoc = docs.document("picasso.xml").unwrap();
        assert_eq!(pdoc.attribute(guitar.node, "id"), Some("guitar"));
        // Second target: whole avignon.xml (root element).
        let avignon = &resolved[1].to;
        assert_eq!(avignon.document, "avignon.xml");
        let adoc = docs.document("avignon.xml").unwrap();
        assert_eq!(adoc.attribute(avignon.node, "id"), Some("avignon"));
    }

    #[test]
    fn unknown_document_fails() {
        let docs = provider();
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="x" xlink:href="ghost.xml"/>
  <arc xlink:type="arc" xlink:from="x" xlink:to="x"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let resolver = Resolver::new(&docs, "links.xml");
        assert!(matches!(
            resolver.resolve(&lb),
            Err(XLinkError::UnknownDocument(d)) if d == "ghost.xml"
        ));
    }

    #[test]
    fn failed_pointer_reported() {
        let docs = provider();
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <l xlink:type="locator" xlink:label="x" xlink:href="picasso.xml#missing"/>
  <arc xlink:type="arc" xlink:from="x" xlink:to="x"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let resolver = Resolver::new(&docs, "links.xml");
        assert!(matches!(
            resolver.resolve(&lb),
            Err(XLinkError::PointerFailed { .. })
        ));
    }

    #[test]
    fn local_resource_endpoint_resolves_to_linkbase() {
        let docs = provider();
        let doc = Document::parse(&format!(
            r#"<links {XLINK} xlink:type="extended">
  <here xlink:type="resource" xlink:label="src">from here</here>
  <l xlink:type="locator" xlink:label="dst" xlink:href="picasso.xml"/>
  <arc xlink:type="arc" xlink:from="src" xlink:to="dst"/>
</links>"#
        ))
        .unwrap();
        let lb = Linkbase::from_document(&doc, "links.xml").unwrap();
        let resolver = Resolver::new(&docs, "links.xml");
        let resolved = resolver.resolve(&lb).unwrap();
        assert_eq!(resolved[0].from.document, "links.xml");
        assert!(resolved[0].from.href.is_none());
    }
}
