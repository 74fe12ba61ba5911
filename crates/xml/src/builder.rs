//! Fluent construction of XML trees.
//!
//! [`ElementBuilder`] builds a subtree declaratively and grafts it onto a
//! [`Document`]. It backs the page generators in `navsep-core` and the advice
//! fragments in `navsep-aspect`, where hand-rolled `create_element` chains
//! would obscure the markup being produced.

use crate::dom::{Document, NodeId};
use crate::name::QName;

/// A detached, declaratively-described element tree.
///
/// # Examples
///
/// ```
/// use navsep_xml::{Document, ElementBuilder};
///
/// let mut doc = Document::new();
/// let parent = doc.document_node();
/// let ul = ElementBuilder::new("ul")
///     .attr("class", "index")
///     .child(ElementBuilder::new("li").text("Guitar"))
///     .child(ElementBuilder::new("li").text("Guernica"))
///     .build(&mut doc, parent);
/// assert_eq!(doc.children(ul).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    name: QName,
    attrs: Vec<(QName, String)>,
    children: Vec<BuilderNode>,
    namespaces: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
enum BuilderNode {
    Element(ElementBuilder),
    Text(String),
    Comment(String),
}

impl ElementBuilder {
    /// Starts building an element named `name` (lexical form; `"p:x"` works).
    pub fn new(name: impl Into<QName>) -> Self {
        ElementBuilder {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            namespaces: Vec::new(),
        }
    }

    /// Adds an attribute.
    pub fn attr(mut self, name: impl Into<QName>, value: impl Into<String>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Adds an attribute only when `value` is `Some`.
    pub fn attr_opt(mut self, name: impl Into<QName>, value: Option<String>) -> Self {
        if let Some(v) = value {
            self.attrs.push((name.into(), v));
        }
        self
    }

    /// Declares a namespace (`prefix` may be empty for the default).
    pub fn namespace(mut self, prefix: impl Into<String>, uri: impl Into<String>) -> Self {
        self.namespaces.push((prefix.into(), uri.into()));
        self
    }

    /// Appends a child element.
    pub fn child(mut self, child: ElementBuilder) -> Self {
        self.children.push(BuilderNode::Element(child));
        self
    }

    /// Appends several child elements.
    pub fn children(mut self, children: impl IntoIterator<Item = ElementBuilder>) -> Self {
        self.children
            .extend(children.into_iter().map(BuilderNode::Element));
        self
    }

    /// Appends a text node.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(BuilderNode::Text(text.into()));
        self
    }

    /// Appends a comment node.
    pub fn comment(mut self, text: impl Into<String>) -> Self {
        self.children.push(BuilderNode::Comment(text.into()));
        self
    }

    /// Materializes the subtree in `doc` under `parent`; returns the new
    /// element's id.
    pub fn build(&self, doc: &mut Document, parent: NodeId) -> NodeId {
        let id = doc.create_element(parent, self.name.clone());
        for (prefix, uri) in &self.namespaces {
            doc.declare_namespace(id, prefix.clone(), uri.clone());
        }
        for (name, value) in &self.attrs {
            doc.set_attribute(id, name.clone(), value.clone());
        }
        for c in &self.children {
            match c {
                BuilderNode::Element(e) => {
                    e.build(doc, id);
                }
                BuilderNode::Text(t) => {
                    doc.create_text(id, t.clone());
                }
                BuilderNode::Comment(t) => {
                    doc.create_comment(id, t.clone());
                }
            }
        }
        id
    }

    /// Materializes the subtree as a *detached* node in `doc` (no parent);
    /// attach it with [`Document::append_child`] or
    /// [`Document::insert_child_at`]. Used by the aspect weaver to graft
    /// advice fragments at arbitrary positions.
    pub fn build_detached(&self, doc: &mut Document) -> NodeId {
        let id = doc.create_detached_element(self.name.clone());
        for (prefix, uri) in &self.namespaces {
            doc.declare_namespace(id, prefix.clone(), uri.clone());
        }
        for (name, value) in &self.attrs {
            doc.set_attribute(id, name.clone(), value.clone());
        }
        for c in &self.children {
            match c {
                BuilderNode::Element(e) => {
                    e.build(doc, id);
                }
                BuilderNode::Text(t) => {
                    doc.create_text(id, t.clone());
                }
                BuilderNode::Comment(t) => {
                    doc.create_comment(id, t.clone());
                }
            }
        }
        id
    }

    /// Materializes the subtree as the root element of a fresh document.
    ///
    /// Consumes the builder and moves its names, attribute values and text
    /// into the document instead of copying them, so building a large
    /// tree allocates each string once. A caller that wants to keep the
    /// builder calls `.clone().build_document()`, or [`build`](Self::build)
    /// to graft the tree under a node of an existing document.
    pub fn build_document(self) -> Document {
        let mut doc = Document::new();
        let parent = doc.document_node();
        self.build_into(&mut doc, parent);
        doc
    }

    /// [`build`](Self::build) by move.
    fn build_into(self, doc: &mut Document, parent: NodeId) -> NodeId {
        let id = doc.create_element(parent, self.name);
        for (prefix, uri) in self.namespaces {
            doc.declare_namespace(id, prefix, uri);
        }
        for (name, value) in self.attrs {
            doc.set_attribute(id, name, value);
        }
        for c in self.children {
            match c {
                BuilderNode::Element(e) => {
                    e.build_into(doc, id);
                }
                BuilderNode::Text(t) => {
                    doc.create_text(id, t);
                }
                BuilderNode::Comment(t) => {
                    doc.create_comment(id, t);
                }
            }
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_tree() {
        let doc = ElementBuilder::new("html")
            .child(
                ElementBuilder::new("body")
                    .attr("class", "page")
                    .child(ElementBuilder::new("h1").text("Guitar"))
                    .comment("nav goes here"),
            )
            .build_document();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root).unwrap().local(), "html");
        let body = doc.first_child_named(root, "body").unwrap();
        assert_eq!(doc.attribute(body, "class"), Some("page"));
        let h1 = doc.first_child_named(body, "h1").unwrap();
        assert_eq!(doc.text_content(h1), "Guitar");
    }

    #[test]
    fn attr_opt_skips_none() {
        let doc = ElementBuilder::new("a")
            .attr_opt("present", Some("1".into()))
            .attr_opt("absent", None)
            .build_document();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "present"), Some("1"));
        assert_eq!(doc.attribute(root, "absent"), None);
    }

    #[test]
    fn children_extends() {
        let items = (0..3).map(|i| ElementBuilder::new("li").text(format!("item {i}")));
        let doc = ElementBuilder::new("ul").children(items).build_document();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.children_named(root, "li").count(), 3);
    }

    #[test]
    fn namespace_declaration_emitted() {
        let doc = ElementBuilder::new("links")
            .namespace("xlink", "http://www.w3.org/1999/xlink")
            .build_document();
        let out = doc.to_xml_string();
        assert!(out.contains("xmlns:xlink=\"http://www.w3.org/1999/xlink\""));
    }
}
