//! An arena-based XML document object model.
//!
//! A [`Document`] owns all nodes in a flat arena; nodes are referenced by
//! copyable [`NodeId`] handles. This gives cheap traversal without reference
//! counting and makes structural mutation (needed by the aspect weaver)
//! straightforward. The arena sits behind one `Arc`, so cloning a document
//! is a reference-count bump; the first mutation of a shared document
//! copies the arena once (copy-on-write).

use crate::error::{ParseXmlError, TextPos, XmlErrorKind};
use crate::name::{NamespaceDecl, QName};
use crate::writer::{WriteOptions, Writer};
use std::fmt;
use std::sync::Arc;

/// A handle to a node inside a [`Document`].
///
/// Ids are only meaningful for the document that produced them; using an id
/// from another document yields unspecified (but memory-safe) results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(idx: usize) -> Self {
        NodeId(u32::try_from(idx).expect("document too large"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A single attribute: a qualified name and a (normalized) value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    name: QName,
    value: String,
}

impl Attribute {
    /// Creates an attribute with a fully-resolved [`QName`].
    pub fn new(name: QName, value: impl Into<String>) -> Self {
        Attribute {
            name,
            value: value.into(),
        }
    }

    /// Creates an unprefixed, no-namespace attribute.
    pub fn local(name: impl Into<String>, value: impl Into<String>) -> Self {
        Attribute {
            name: QName::new(name.into()),
            value: value.into(),
        }
    }

    /// The attribute's qualified name.
    pub fn name(&self) -> &QName {
        &self.name
    }

    /// The attribute's value.
    pub fn value(&self) -> &str {
        &self.value
    }
}

/// What a node is: the document root, an element, or leaf content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The synthetic document node; parent of the root element, any
    /// top-level comments and processing instructions.
    Document,
    /// An element with a name, attributes, and namespace declarations.
    Element {
        /// The element's qualified name.
        name: QName,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
        /// Namespace declarations written on this element.
        namespace_decls: Vec<NamespaceDecl>,
    },
    /// Character data (both plain text and CDATA end up here).
    Text(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction {
        /// The PI target, e.g. `xml-stylesheet`.
        target: String,
        /// Everything after the target, unparsed.
        data: String,
    },
}

#[derive(Debug, Clone)]
struct NodeData {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    kind: NodeKind,
}

/// An XML document: a tree of elements, text, comments and PIs.
///
/// Construct one by [parsing](Document::parse) or programmatically via
/// [`Document::new`] plus the mutation methods (or the fluent
/// [`ElementBuilder`](crate::builder::ElementBuilder)).
///
/// Clones are copy-on-write: `clone()` shares the node arena and allocates
/// nothing, and the first mutation of either copy copies the arena once
/// (O(nodes)), after which the two are independent. Readers never copy.
///
/// # Examples
///
/// ```
/// use navsep_xml::Document;
///
/// let doc = Document::parse("<museum><painting id='guitar'/></museum>")?;
/// let root = doc.root_element().unwrap();
/// assert_eq!(doc.name(root).unwrap().local(), "museum");
/// let painting = doc.children(root)[0];
/// assert_eq!(doc.attribute(painting, "id"), Some("guitar"));
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Document {
    /// The node arena, shared between clones until one of them mutates
    /// (every write goes through [`nodes_mut`](Document::nodes_mut)).
    nodes: Arc<Vec<NodeData>>,
    /// Memoized [`content_hash`](Document::content_hash); reset by every
    /// mutating method so it can never go stale. Cloning a document carries
    /// the memo along (a clone has identical content by construction).
    pub(crate) cached_hash: std::sync::OnceLock<u64>,
    /// Memoized [`index`](Document::index); shares the hash memo's
    /// lifecycle — both are reset by the same [`invalidate_memos`]
    /// choke point, so the index is fresh exactly when the hash is.
    ///
    /// [`invalidate_memos`]: Document::invalidate_memos
    pub(crate) cached_index: std::sync::OnceLock<std::sync::Arc<crate::index::DocumentIndex>>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: Arc::new(vec![NodeData {
                parent: None,
                children: Vec::new(),
                kind: NodeKind::Document,
            }]),
            cached_hash: std::sync::OnceLock::new(),
            cached_index: std::sync::OnceLock::new(),
        }
    }

    /// Parses an XML string into a document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseXmlError`] on any well-formedness violation, with the
    /// source position of the problem.
    pub fn parse(text: &str) -> Result<Self, ParseXmlError> {
        crate::reader::parse_document(text)
    }

    /// Copies the document eagerly into an arena of its own with at least
    /// `additional` spare slots. A `clone()` shares the arena, so the first
    /// node inserted into it copies the arena at exactly `len` slots and at
    /// once reallocates — and memcpys — the whole arena again; on a
    /// 100k-element page that costs more than the insertions themselves.
    /// Editing pipelines that clone-then-grow (the weaver, for one) use
    /// this to pay one copy, with the headroom folded in.
    #[must_use]
    pub fn cloned_with_headroom(&self, additional: usize) -> Document {
        let mut nodes = Vec::with_capacity(self.nodes.len() + additional);
        nodes.extend(self.nodes.iter().cloned());
        Document {
            nodes: Arc::new(nodes),
            cached_hash: self.cached_hash.clone(),
            cached_index: self.cached_index.clone(),
        }
    }

    /// Releases spare capacity in the node arena and in every node's child,
    /// attribute and namespace lists. Editing pipelines that grow a document
    /// (the weaver appends advice into a clone made
    /// [with headroom](Self::cloned_with_headroom)) leave up to 2× slack;
    /// long-lived copies — published pages retained across epochs — call
    /// this once so they hold only what they use.
    ///
    /// Content is unchanged, so the memoized
    /// [`content_hash`](Self::content_hash) and [`index`](Self::index)
    /// survive (node ids are arena indexes and do not move).
    pub fn shrink_to_fit(&mut self) {
        let nodes = self.nodes_mut();
        nodes.shrink_to_fit();
        for node in nodes {
            node.children.shrink_to_fit();
            if let NodeKind::Element {
                attributes,
                namespace_decls,
                ..
            } = &mut node.kind
            {
                attributes.shrink_to_fit();
                namespace_decls.shrink_to_fit();
            }
        }
    }

    /// The synthetic document node (always present).
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.nodes[0]
            .children
            .iter()
            .copied()
            .find(|&id| self.is_element(id))
    }

    /// Number of nodes in the arena (including the document node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the document holds nothing beyond the document node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.nodes[0].children.is_empty()
    }

    /// The kind of `id`.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// `true` if `id` is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].kind, NodeKind::Element { .. })
    }

    /// `true` if `id` is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].kind, NodeKind::Text(_))
    }

    /// The element name of `id`, or `None` when `id` is not an element.
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The parent of `id` (`None` for the document node).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The children of `id`, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Child *elements* of `id`, in document order.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| self.is_element(c))
    }

    /// First child element with the given local name (any namespace).
    pub fn first_child_named(&self, id: NodeId, local: &str) -> Option<NodeId> {
        self.child_elements(id)
            .find(|&c| self.name(c).map(|n| n.local() == local).unwrap_or(false))
    }

    /// All child elements with the given local name.
    pub fn children_named<'a>(
        &'a self,
        id: NodeId,
        local: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.child_elements(id)
            .filter(move |&c| self.name(c).map(|n| n.local() == local).unwrap_or(false))
    }

    /// All nodes of the subtree rooted at `id`, in document order
    /// (pre-order), including `id` itself.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![id],
        }
    }

    /// The attributes of element `id` (empty slice for non-elements).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Value of the unprefixed/no-namespace attribute `name` on `id`.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id)
            .iter()
            .find(|a| a.name().namespace().is_none() && a.name().local() == name)
            .map(|a| a.value())
    }

    /// Value of the attribute with namespace `ns` and local name `local`.
    pub fn attribute_ns(&self, id: NodeId, ns: &str, local: &str) -> Option<&str> {
        self.attributes(id)
            .iter()
            .find(|a| a.name().matches(Some(ns), local))
            .map(|a| a.value())
    }

    /// Namespace declarations written on element `id`.
    pub fn namespace_decls(&self, id: NodeId) -> &[NamespaceDecl] {
        match &self.nodes[id.index()].kind {
            NodeKind::Element {
                namespace_decls, ..
            } => namespace_decls,
            _ => &[],
        }
    }

    /// Concatenated text content of the subtree rooted at `id`.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let NodeKind::Text(t) = self.kind(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// The text of `id` itself when it is a text or comment node.
    pub fn node_text(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].kind {
            NodeKind::Text(t) | NodeKind::Comment(t) => Some(t),
            _ => None,
        }
    }

    /// Finds the element carrying `id="value"` or `xml:id="value"`,
    /// earliest in document order.
    ///
    /// A map lookup in the memoized [`index`](Document::index) — O(1)
    /// once the index is built, instead of the historical full-document
    /// scan.
    pub fn element_by_id(&self, value: &str) -> Option<NodeId> {
        self.index().element_by_id(value)
    }

    /// 1-based position of `id` among its parent's *element* children that
    /// share its name; used for paths like `/museum/painting[2]`.
    pub fn sibling_index(&self, id: NodeId) -> usize {
        let Some(parent) = self.parent(id) else {
            return 1;
        };
        let name = self.name(id).cloned();
        let mut pos = 0;
        for &c in self.children(parent) {
            if self.is_element(c) && self.name(c).cloned() == name {
                pos += 1;
                if c == id {
                    return pos;
                }
            }
        }
        1
    }

    // ---- mutation -------------------------------------------------------
    //
    // Every method below must call `invalidate_memos` (directly or through
    // `push_node`) before changing the tree, so neither the memoized
    // content hash nor the memoized index can survive a mutation. One
    // choke point keeps the two memos in provable lockstep.

    fn invalidate_memos(&mut self) {
        self.cached_hash = std::sync::OnceLock::new();
        self.cached_index = std::sync::OnceLock::new();
    }

    /// The arena for writing: the one write access to `nodes`. A document
    /// still sharing its arena with a clone copies it here first, so a
    /// mutation never shows through another copy.
    fn nodes_mut(&mut self) -> &mut Vec<NodeData> {
        Arc::make_mut(&mut self.nodes)
    }

    fn push_node(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        self.invalidate_memos();
        let nodes = self.nodes_mut();
        let id = NodeId::from_index(nodes.len());
        nodes.push(NodeData {
            parent: Some(parent),
            children: Vec::new(),
            kind,
        });
        nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a new element named `name` under `parent`; returns its id.
    pub fn create_element(&mut self, parent: NodeId, name: impl Into<QName>) -> NodeId {
        self.push_node(
            parent,
            NodeKind::Element {
                name: name.into(),
                attributes: Vec::new(),
                namespace_decls: Vec::new(),
            },
        )
    }

    /// Appends a text node under `parent`.
    pub fn create_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(parent, NodeKind::Text(text.into()))
    }

    /// Appends a comment under `parent`.
    pub fn create_comment(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(parent, NodeKind::Comment(text.into()))
    }

    /// Appends a processing instruction under `parent`.
    pub fn create_pi(
        &mut self,
        parent: NodeId,
        target: impl Into<String>,
        data: impl Into<String>,
    ) -> NodeId {
        self.push_node(
            parent,
            NodeKind::ProcessingInstruction {
                target: target.into(),
                data: data.into(),
            },
        )
    }

    /// Sets (or replaces) attribute `name` on element `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn set_attribute(&mut self, id: NodeId, name: impl Into<QName>, value: impl Into<String>) {
        self.invalidate_memos();
        let name = name.into();
        let value = value.into();
        match &mut self.nodes_mut()[id.index()].kind {
            NodeKind::Element { attributes, .. } => {
                if let Some(a) = attributes.iter_mut().find(|a| a.name == name) {
                    a.value = value;
                } else {
                    attributes.push(Attribute { name, value });
                }
            }
            _ => panic!("set_attribute on non-element {id}"),
        }
    }

    /// Records a namespace declaration on element `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn declare_namespace(
        &mut self,
        id: NodeId,
        prefix: impl Into<String>,
        uri: impl Into<String>,
    ) {
        self.invalidate_memos();
        match &mut self.nodes_mut()[id.index()].kind {
            NodeKind::Element {
                namespace_decls, ..
            } => namespace_decls.push(NamespaceDecl {
                prefix: prefix.into(),
                uri: uri.into(),
            }),
            _ => panic!("declare_namespace on non-element {id}"),
        }
    }

    /// Inserts an existing (detached or appended) node `child` as a child of
    /// `parent` at `index` within the parent's child list.
    ///
    /// The node must already belong to this document; it is detached from its
    /// current parent first.
    ///
    /// # Panics
    ///
    /// Panics if `index > children(parent).len()` after detachment, or when
    /// `child` is the document node.
    pub fn insert_child_at(&mut self, parent: NodeId, index: usize, child: NodeId) {
        assert!(
            child != self.document_node(),
            "cannot re-parent the document node"
        );
        self.detach(child);
        let nodes = self.nodes_mut();
        nodes[child.index()].parent = Some(parent);
        nodes[parent.index()].children.insert(index, child);
    }

    /// Appends an existing node `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        let index = self.children(parent).len();
        self.insert_child_at(parent, index, child);
    }

    /// Detaches `id` from its parent (the node stays in the arena and can be
    /// re-inserted).
    pub fn detach(&mut self, id: NodeId) {
        self.invalidate_memos();
        let nodes = self.nodes_mut();
        if let Some(p) = nodes[id.index()].parent.take() {
            nodes[p.index()].children.retain(|&c| c != id);
        }
    }

    /// Creates a detached element (no parent); attach it later with
    /// [`append_child`](Document::append_child) or
    /// [`insert_child_at`](Document::insert_child_at).
    pub fn create_detached_element(&mut self, name: impl Into<QName>) -> NodeId {
        self.invalidate_memos();
        let nodes = self.nodes_mut();
        let id = NodeId::from_index(nodes.len());
        nodes.push(NodeData {
            parent: None,
            children: Vec::new(),
            kind: NodeKind::Element {
                name: name.into(),
                attributes: Vec::new(),
                namespace_decls: Vec::new(),
            },
        });
        id
    }

    /// Creates a detached text node; attach it later with
    /// [`append_child`](Document::append_child) or
    /// [`insert_child_at`](Document::insert_child_at).
    pub fn create_detached_text(&mut self, text: impl Into<String>) -> NodeId {
        self.invalidate_memos();
        let nodes = self.nodes_mut();
        let id = NodeId::from_index(nodes.len());
        nodes.push(NodeData {
            parent: None,
            children: Vec::new(),
            kind: NodeKind::Text(text.into()),
        });
        id
    }

    /// Deep-copies the subtree rooted at `src` in `from` into `self` under
    /// `parent`; returns the id of the copy's root.
    pub fn import_subtree(&mut self, parent: NodeId, from: &Document, src: NodeId) -> NodeId {
        let kind = from.nodes[src.index()].kind.clone();
        let copy = match kind {
            NodeKind::Document => panic!("cannot import a document node"),
            other => self.push_node(parent, other),
        };
        for &c in from.children(src) {
            self.import_subtree(copy, from, c);
        }
        copy
    }

    /// Serializes the document with the given options.
    pub fn to_xml(&self, options: &WriteOptions) -> String {
        Writer::new(options).write_document(self)
    }

    /// Serializes with default options (XML declaration, no indentation).
    pub fn to_xml_string(&self) -> String {
        self.to_xml(&WriteOptions::default())
    }

    /// Serializes with two-space indentation, for human-readable output.
    pub fn to_pretty_xml(&self) -> String {
        self.to_xml(&WriteOptions::pretty())
    }

    /// Checks that the document has exactly one root element.
    ///
    /// # Errors
    ///
    /// Returns an error naming the violation when the root is missing.
    pub fn require_root(&self) -> Result<NodeId, ParseXmlError> {
        self.root_element().ok_or_else(|| {
            ParseXmlError::new(
                XmlErrorKind::InvalidDocumentStructure("no root element".into()),
                TextPos::start(),
            )
        })
    }
}

/// Pre-order iterator over a subtree; see [`Document::descendants`].
#[derive(Debug)]
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = self.doc.children(id);
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        Document::parse(
            "<museum><painter id=\"picasso\"><painting id=\"guitar\">Guitar</painting>\
             <painting id=\"guernica\">Guernica</painting></painter></museum>",
        )
        .unwrap()
    }

    #[test]
    fn clones_share_the_arena_until_one_mutates() {
        let original = sample();
        let bytes = original.to_xml_string();
        let reader = original.clone();
        let mut writer = original.clone();
        assert!(Arc::ptr_eq(&original.nodes, &reader.nodes));
        assert!(Arc::ptr_eq(&original.nodes, &writer.nodes));

        let painter = writer.element_by_id("picasso").unwrap();
        writer.set_attribute(painter, "born", "1881");
        assert!(
            !Arc::ptr_eq(&original.nodes, &writer.nodes),
            "the mutated copy unshares"
        );
        assert!(
            Arc::ptr_eq(&original.nodes, &reader.nodes),
            "the copies that did not mutate still share"
        );
        assert_eq!(original.to_xml_string(), bytes);
        assert_eq!(reader.to_xml_string(), bytes);
        assert_eq!(writer.attribute(painter, "born"), Some("1881"));

        // Once unshared, further mutations copy nothing.
        let arena = Arc::as_ptr(&writer.nodes);
        writer.create_text(painter, "more");
        assert_eq!(Arc::as_ptr(&writer.nodes), arena);
    }

    #[test]
    fn shrink_to_fit_keeps_bytes_hash_and_index_memo() {
        let mut doc = sample().cloned_with_headroom(64);
        let painter = doc.element_by_id("picasso").unwrap();
        for i in 0..5 {
            let extra = doc.create_element(painter, "painting");
            doc.set_attribute(extra, "id", format!("extra-{i}"));
        }
        let bytes = doc.to_xml_string();
        let hash = doc.content_hash();
        let index = doc.index_arc();
        assert!(
            doc.nodes.capacity() > doc.nodes.len(),
            "headroom left slack"
        );

        doc.shrink_to_fit();
        assert_eq!(doc.nodes.capacity(), doc.nodes.len());
        assert!(doc
            .nodes
            .iter()
            .all(|n| n.children.capacity() == n.children.len()));
        assert_eq!(doc.to_xml_string(), bytes);
        assert_eq!(doc.cached_hash.get(), Some(&hash), "hash memo survives");
        assert_eq!(doc.content_hash(), hash);
        assert!(
            std::sync::Arc::ptr_eq(&doc.index_arc(), &index),
            "index memo survives"
        );
        assert_eq!(doc.element_by_id("extra-4"), index.element_by_id("extra-4"));
    }

    #[test]
    fn root_and_children() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root).unwrap().local(), "museum");
        let painter = doc.first_child_named(root, "painter").unwrap();
        assert_eq!(doc.attribute(painter, "id"), Some("picasso"));
        assert_eq!(doc.children_named(painter, "painting").count(), 2);
    }

    #[test]
    fn descendants_pre_order() {
        let doc = sample();
        let names: Vec<String> = doc
            .descendants(doc.document_node())
            .filter_map(|n| doc.name(n).map(|q| q.local().to_string()))
            .collect();
        assert_eq!(names, ["museum", "painter", "painting", "painting"]);
    }

    #[test]
    fn element_by_id_finds_nested() {
        let doc = sample();
        let g = doc.element_by_id("guernica").unwrap();
        assert_eq!(doc.text_content(g), "Guernica");
        assert!(doc.element_by_id("missing").is_none());
    }

    #[test]
    fn sibling_index_counts_same_name_elements() {
        let doc = sample();
        let g = doc.element_by_id("guernica").unwrap();
        assert_eq!(doc.sibling_index(g), 2);
        let guitar = doc.element_by_id("guitar").unwrap();
        assert_eq!(doc.sibling_index(guitar), 1);
    }

    #[test]
    fn mutation_set_attribute_replaces() {
        let mut doc = Document::new();
        let root = doc.create_element(doc.document_node(), "r");
        doc.set_attribute(root, "k", "1");
        doc.set_attribute(root, "k", "2");
        assert_eq!(doc.attribute(root, "k"), Some("2"));
        assert_eq!(doc.attributes(root).len(), 1);
    }

    #[test]
    fn detach_and_reattach() {
        let mut doc = sample();
        let painter = doc.element_by_id("picasso").unwrap();
        let guitar = doc.element_by_id("guitar").unwrap();
        doc.detach(guitar);
        assert_eq!(doc.children_named(painter, "painting").count(), 1);
        doc.append_child(painter, guitar);
        assert_eq!(doc.children_named(painter, "painting").count(), 2);
        // guitar is now last
        let last = doc.child_elements(painter).last().unwrap();
        assert_eq!(doc.attribute(last, "id"), Some("guitar"));
    }

    #[test]
    fn insert_child_at_position() {
        let mut doc = Document::new();
        let root = doc.create_element(doc.document_node(), "r");
        let a = doc.create_element(root, "a");
        let _b = doc.create_element(root, "b");
        let c = doc.create_detached_element("c");
        doc.insert_child_at(root, 1, c);
        let names: Vec<_> = doc
            .child_elements(root)
            .map(|n| doc.name(n).unwrap().local().to_string())
            .collect();
        assert_eq!(names, ["a", "c", "b"]);
        assert_eq!(doc.parent(c), Some(root));
        assert_eq!(doc.children(root)[0], a);
    }

    #[test]
    fn import_subtree_deep_copies() {
        let src = sample();
        let mut dst = Document::new();
        let root = dst.create_element(dst.document_node(), "copy");
        let painter = src.element_by_id("picasso").unwrap();
        let copied = dst.import_subtree(root, &src, painter);
        assert_eq!(dst.attribute(copied, "id"), Some("picasso"));
        assert_eq!(dst.children_named(copied, "painting").count(), 2);
        assert_eq!(dst.text_content(copied), "GuitarGuernica");
    }

    #[test]
    fn text_content_concatenates() {
        let doc = Document::parse("<a>one<b>two</b>three</a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "onetwothree");
    }

    #[test]
    fn empty_document_reports_empty() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert!(doc.root_element().is_none());
        assert!(doc.require_root().is_err());
    }
}
