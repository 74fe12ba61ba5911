//! Lazily built per-document lookup indexes.
//!
//! Walking `descendants()` on every `element_by_id` call or pointcut match
//! makes the weave hot path O(nodes × rules). [`DocumentIndex`] is built
//! once per document *content state* — a single pre-order pass recording
//! id→node, tag-name→nodes, and name-attribute→nodes maps plus a document
//! order rank for every reachable node — and is memoized on the
//! [`Document`] with the same [`OnceLock`](std::sync::OnceLock) discipline
//! as [`content_hash`](Document::content_hash): every mutating method
//! resets both memos through one choke point, so the index can never go
//! stale while the hash is fresh (or vice versa).
//!
//! Layers above consume the index through [`Document::index`]:
//! `navsep-xpointer` compiles location paths against the tag buckets,
//! `navsep-aspect` resolves pointcut candidate sets from them, and
//! `Document::element_by_id` is a plain map lookup.

use crate::dom::{Document, NodeId};
use crate::name::XML_NS;
use std::collections::HashMap;
use std::sync::Arc;

/// Document-order rank assigned to nodes not reachable from the document
/// node (detached subtrees); orders them after all reachable nodes.
const UNREACHABLE: u32 = u32::MAX;

/// Lookup tables over one document content state.
///
/// All node lists are in document (pre-order) order and contain only nodes
/// reachable from the document node — detached subtrees are not indexed,
/// matching what serialization and `descendants(document_node())` see.
///
/// # Examples
///
/// ```
/// use navsep_xml::Document;
///
/// let doc = Document::parse(
///     "<museum><painting id='guitar'/><painting id='guernica'/></museum>",
/// )?;
/// let idx = doc.index();
/// assert_eq!(idx.elements_named("painting").len(), 2);
/// assert_eq!(idx.element_by_id("guitar"), doc.element_by_id("guitar"));
/// assert_eq!(idx.element_count(), 3);
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Default)]
pub struct DocumentIndex {
    /// Every element, pre-order.
    elements: Vec<NodeId>,
    /// Arena index → pre-order rank ([`UNREACHABLE`] for detached nodes).
    order: Vec<u32>,
    /// Element local name → elements, pre-order.
    by_tag: HashMap<String, Vec<NodeId>>,
    /// `id="…"` attribute value → elements, pre-order.
    by_id: HashMap<String, Vec<NodeId>>,
    /// `xml:id="…"` attribute value → elements, pre-order.
    by_xml_id: HashMap<String, Vec<NodeId>>,
    /// `name="…"` attribute value → elements, pre-order.
    by_name_attr: HashMap<String, Vec<NodeId>>,
}

impl DocumentIndex {
    pub(crate) fn build(doc: &Document) -> Self {
        let mut idx = DocumentIndex {
            elements: Vec::new(),
            order: vec![UNREACHABLE; doc.len()],
            by_tag: HashMap::new(),
            by_id: HashMap::new(),
            by_xml_id: HashMap::new(),
            by_name_attr: HashMap::new(),
        };
        for (rank, node) in doc.descendants(doc.document_node()).enumerate() {
            idx.order[node.index()] = u32::try_from(rank).expect("document too large");
            let Some(name) = doc.name(node) else {
                continue;
            };
            idx.elements.push(node);
            idx.by_tag
                .entry(name.local().to_string())
                .or_default()
                .push(node);
            if let Some(v) = doc.attribute(node, "id") {
                idx.by_id.entry(v.to_string()).or_default().push(node);
            }
            if let Some(v) = doc.attribute_ns(node, XML_NS, "id") {
                idx.by_xml_id.entry(v.to_string()).or_default().push(node);
            }
            if let Some(v) = doc.attribute(node, "name") {
                idx.by_name_attr
                    .entry(v.to_string())
                    .or_default()
                    .push(node);
            }
        }
        idx
    }

    /// Every element of the document, in document (pre-order) order.
    pub fn elements(&self) -> &[NodeId] {
        &self.elements
    }

    /// Number of elements — the weaver's join-point count.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Elements whose local name is `local`, in document order.
    pub fn elements_named(&self, local: &str) -> &[NodeId] {
        self.by_tag.get(local).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Elements carrying `id="value"` (the plain, no-namespace attribute),
    /// in document order.
    pub fn elements_with_id(&self, value: &str) -> &[NodeId] {
        self.by_id.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Elements carrying `xml:id="value"`, in document order.
    pub fn elements_with_xml_id(&self, value: &str) -> &[NodeId] {
        self.by_xml_id.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Elements carrying `name="value"`, in document order.
    pub fn elements_with_name_attr(&self, value: &str) -> &[NodeId] {
        self.by_name_attr
            .get(value)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The first element (in document order) with `id="value"` or
    /// `xml:id="value"` — the lookup behind
    /// [`Document::element_by_id`].
    pub fn element_by_id(&self, value: &str) -> Option<NodeId> {
        let plain = self.elements_with_id(value).first().copied();
        let xml = self.elements_with_xml_id(value).first().copied();
        match (plain, xml) {
            (Some(a), Some(b)) => Some(if self.order_of(a) <= self.order_of(b) {
                a
            } else {
                b
            }),
            (a, b) => a.or(b),
        }
    }

    /// Pre-order rank of `id` in the document ([`u32::MAX`] when the node
    /// is detached / unreachable from the document node). Comparing ranks
    /// compares document order.
    pub fn order_of(&self, id: NodeId) -> u32 {
        self.order.get(id.index()).copied().unwrap_or(UNREACHABLE)
    }

    /// `true` when `id` is reachable from the document node.
    pub fn is_reachable(&self, id: NodeId) -> bool {
        self.order_of(id) != UNREACHABLE
    }
}

impl Document {
    /// The document's lookup index, built on first use and memoized until
    /// the next mutation — the same lifecycle as
    /// [`content_hash`](Document::content_hash), reset by the same
    /// mutation choke point, so index and hash are always in lockstep.
    ///
    /// # Examples
    ///
    /// ```
    /// use navsep_xml::Document;
    ///
    /// let mut doc = Document::parse("<r><x id='a'/></r>")?;
    /// let x = doc.index().element_by_id("a").unwrap();
    /// doc.set_attribute(x, "id", "b"); // mutation → index rebuilt lazily
    /// assert!(doc.index().element_by_id("a").is_none());
    /// assert!(doc.index().element_by_id("b").is_some());
    /// # Ok::<(), navsep_xml::ParseXmlError>(())
    /// ```
    pub fn index(&self) -> &DocumentIndex {
        self.cached_index
            .get_or_init(|| Arc::new(DocumentIndex::build(self)))
    }

    /// The memoized index as a shared handle, for callers that need to hold
    /// it beyond a borrow of the document.
    pub fn index_arc(&self) -> Arc<DocumentIndex> {
        self.index();
        Arc::clone(self.cached_index.get().expect("just initialized"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        Document::parse(
            "<museum><painter id=\"picasso\" name=\"Pablo\"><painting id=\"guitar\"/>\
             <painting id=\"guernica\"/></painter><hall name=\"Pablo\"/></museum>",
        )
        .unwrap()
    }

    #[test]
    fn buckets_are_in_document_order() {
        let doc = sample();
        let idx = doc.index();
        let paintings = idx.elements_named("painting");
        assert_eq!(paintings.len(), 2);
        assert!(idx.order_of(paintings[0]) < idx.order_of(paintings[1]));
        assert_eq!(doc.attribute(paintings[0], "id"), Some("guitar"));
        let named: Vec<_> = idx.elements_with_name_attr("Pablo").to_vec();
        assert_eq!(named.len(), 2);
        assert_eq!(doc.name(named[0]).unwrap().local(), "painter");
        assert_eq!(doc.name(named[1]).unwrap().local(), "hall");
    }

    #[test]
    fn element_order_matches_descendants() {
        let doc = sample();
        let idx = doc.index();
        let walked: Vec<NodeId> = doc
            .descendants(doc.document_node())
            .filter(|&n| doc.is_element(n))
            .collect();
        assert_eq!(idx.elements(), walked.as_slice());
        assert_eq!(idx.element_count(), walked.len());
        // Ranks increase along the pre-order walk.
        for pair in walked.windows(2) {
            assert!(idx.order_of(pair[0]) < idx.order_of(pair[1]));
        }
    }

    #[test]
    fn element_by_id_prefers_first_in_document_order() {
        // xml:id earlier in the document than a plain id with the same value.
        let doc = Document::parse(
            "<r xmlns:xml=\"http://www.w3.org/XML/1998/namespace\">\
             <a xml:id=\"dup\"/><b id=\"dup\"/></r>",
        )
        .unwrap();
        let found = doc.index().element_by_id("dup").unwrap();
        assert_eq!(doc.name(found).unwrap().local(), "a");
        // And the routed Document method agrees with a full scan.
        assert_eq!(doc.element_by_id("dup"), Some(found));
    }

    #[test]
    fn detached_nodes_are_not_indexed() {
        let mut doc = sample();
        let stray = doc.create_detached_element("stray");
        doc.set_attribute(stray, "id", "stray");
        let idx = doc.index();
        assert!(idx.element_by_id("stray").is_none());
        assert!(!idx.is_reachable(stray));
        assert!(idx.elements_named("stray").is_empty());
    }

    #[test]
    fn index_invalidated_exactly_when_content_hash_resets() {
        // Every mutation that resets the content-hash memo must also reset
        // the index memo; both are cleared by the same choke point.
        type Mutation = (&'static str, fn(&mut Document));
        let mutations: Vec<Mutation> = vec![
            ("create_element", |d| {
                let r = d.root_element().unwrap();
                d.create_element(r, "extra");
            }),
            ("create_text", |d| {
                let r = d.root_element().unwrap();
                d.create_text(r, "t");
            }),
            ("create_comment", |d| {
                let r = d.root_element().unwrap();
                d.create_comment(r, "c");
            }),
            ("create_pi", |d| {
                let r = d.root_element().unwrap();
                d.create_pi(r, "t", "data");
            }),
            ("set_attribute", |d| {
                let r = d.root_element().unwrap();
                d.set_attribute(r, "k", "v");
            }),
            ("declare_namespace", |d| {
                let r = d.root_element().unwrap();
                d.declare_namespace(r, "p", "urn:x");
            }),
            ("detach", |d| {
                let g = d.element_by_id("guitar").unwrap();
                d.detach(g);
            }),
            ("insert_child_at", |d| {
                let r = d.root_element().unwrap();
                let g = d.element_by_id("guitar").unwrap();
                d.insert_child_at(r, 0, g);
            }),
            ("append_child", |d| {
                let r = d.root_element().unwrap();
                let g = d.element_by_id("guitar").unwrap();
                d.append_child(r, g);
            }),
            ("create_detached_element", |d| {
                d.create_detached_element("x");
            }),
            ("create_detached_text", |d| {
                d.create_detached_text("x");
            }),
            ("import_subtree", |d| {
                let other = Document::parse("<y/>").unwrap();
                let src = other.root_element().unwrap();
                let r = d.root_element().unwrap();
                d.import_subtree(r, &other, src);
            }),
        ];
        for (name, mutate) in mutations {
            let mut doc = sample();
            // Prime both memos.
            doc.content_hash();
            doc.index();
            assert!(doc.cached_hash.get().is_some(), "{name}: hash primed");
            assert!(doc.cached_index.get().is_some(), "{name}: index primed");
            mutate(&mut doc);
            assert_eq!(
                doc.cached_hash.get().is_some(),
                doc.cached_index.get().is_some(),
                "{name}: hash and index memos must reset together"
            );
            assert!(
                doc.cached_index.get().is_none(),
                "{name}: mutation must invalidate the index"
            );
        }
    }

    #[test]
    fn clone_carries_the_index_memo() {
        let doc = sample();
        doc.index();
        let clone = doc.clone();
        assert!(
            clone.cached_index.get().is_some(),
            "a clone has identical content, so the memo may be reused"
        );
        assert_eq!(
            clone.index().element_by_id("guitar"),
            doc.index().element_by_id("guitar"),
            "NodeIds are arena indexes, identical across a clone"
        );
    }

    #[test]
    fn rebuild_after_mutation_sees_new_content() {
        let mut doc = sample();
        assert_eq!(doc.index().elements_named("painting").len(), 2);
        let painter = doc.element_by_id("picasso").unwrap();
        let extra = doc.create_element(painter, "painting");
        doc.set_attribute(extra, "id", "three-musicians");
        assert_eq!(doc.index().elements_named("painting").len(), 3);
        assert_eq!(doc.index().element_by_id("three-musicians"), Some(extra));
        assert_eq!(doc.element_by_id("three-musicians"), Some(extra));
    }
}
