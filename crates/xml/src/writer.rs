//! Serialization of a [`Document`] back to XML text.

use crate::dom::{Attribute, Document, NodeId, NodeKind};
use crate::escape::{escape_attr, escape_text};
use crate::name::{NamespaceDecl, QName};

/// The declaration emitted at the top of every full document serialization.
pub const XML_DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Writes the open half of a start tag — `<name`, namespace declarations,
/// and attributes, *without* the closing `>` or `/>` — exactly as
/// [`Writer`] formats it.
fn write_start_tag_open(
    out: &mut String,
    name: &QName,
    namespace_decls: &[NamespaceDecl],
    attributes: &[Attribute],
) {
    out.push('<');
    out.push_str(&name.as_markup());
    for d in namespace_decls {
        if d.prefix.is_empty() {
            out.push_str(" xmlns=\"");
        } else {
            out.push_str(" xmlns:");
            out.push_str(&d.prefix);
            out.push_str("=\"");
        }
        out.push_str(&escape_attr(&d.uri));
        out.push('"');
    }
    for a in attributes {
        out.push(' ');
        out.push_str(&a.name().as_markup());
        out.push_str("=\"");
        out.push_str(&escape_attr(a.value()));
        out.push('"');
    }
}

/// Writes `<!--text-->` (the body is emitted verbatim, as [`Writer`] does).
fn write_comment_markup(out: &mut String, text: &str) {
    out.push_str("<!--");
    out.push_str(text);
    out.push_str("-->");
}

/// Writes `<?target data?>` (the space is omitted when `data` is empty, as
/// [`Writer`] does).
fn write_pi_markup(out: &mut String, target: &str, data: &str) {
    out.push_str("<?");
    out.push_str(target);
    if !data.is_empty() {
        out.push(' ');
        out.push_str(data);
    }
    out.push_str("?>");
}

/// Options controlling serialization.
///
/// # Examples
///
/// ```
/// use navsep_xml::{Document, WriteOptions};
///
/// let doc = Document::parse("<a><b>hi</b></a>")?;
/// let compact = doc.to_xml(&WriteOptions::default().declaration(false));
/// assert_eq!(compact, "<a><b>hi</b></a>");
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOptions {
    declaration: bool,
    indent: Option<usize>,
}

impl Default for WriteOptions {
    /// XML declaration on, no indentation (canonical-ish compact output).
    fn default() -> Self {
        WriteOptions {
            declaration: true,
            indent: None,
        }
    }
}

impl WriteOptions {
    /// Compact output with a declaration (same as `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Human-readable output: declaration + 2-space indentation.
    pub fn pretty() -> Self {
        WriteOptions {
            declaration: true,
            indent: Some(2),
        }
    }

    /// Whether to emit `<?xml version="1.0" encoding="UTF-8"?>`.
    pub fn declaration(mut self, yes: bool) -> Self {
        self.declaration = yes;
        self
    }

    /// Indent nested elements by `width` spaces; `None` means compact.
    pub fn indent(mut self, width: Option<usize>) -> Self {
        self.indent = width;
        self
    }
}

/// Serializer for [`Document`]s; usually invoked via [`Document::to_xml`].
#[derive(Debug)]
pub struct Writer<'o> {
    options: &'o WriteOptions,
    out: String,
}

impl<'o> Writer<'o> {
    /// Creates a writer with the given options.
    pub fn new(options: &'o WriteOptions) -> Self {
        Writer {
            options,
            out: String::new(),
        }
    }

    /// Serializes the whole document.
    pub fn write_document(mut self, doc: &Document) -> String {
        if self.options.declaration {
            self.out.push_str(XML_DECLARATION);
            if self.options.indent.is_some() {
                self.out.push('\n');
            }
        }
        let top: Vec<NodeId> = doc.children(doc.document_node()).to_vec();
        for (i, id) in top.iter().enumerate() {
            if i > 0 && self.options.indent.is_some() {
                self.out.push('\n');
            }
            self.write_node(doc, *id, 0);
        }
        if self.options.indent.is_some() && !self.out.ends_with('\n') {
            self.out.push('\n');
        }
        self.out
    }

    /// Serializes the subtree rooted at `id` (no declaration).
    pub fn write_fragment(mut self, doc: &Document, id: NodeId) -> String {
        self.write_node(doc, id, 0);
        self.out
    }

    fn push_indent(&mut self, depth: usize) {
        if let Some(width) = self.options.indent {
            for _ in 0..depth * width {
                self.out.push(' ');
            }
        }
    }

    fn write_node(&mut self, doc: &Document, id: NodeId, depth: usize) {
        match doc.kind(id) {
            NodeKind::Document => {
                for &c in doc.children(id) {
                    self.write_node(doc, c, depth);
                }
            }
            NodeKind::Element {
                name,
                attributes,
                namespace_decls,
            } => {
                self.push_indent(depth);
                write_start_tag_open(&mut self.out, name, namespace_decls, attributes);
                let children = doc.children(id);
                if children.is_empty() {
                    self.out.push_str("/>");
                    if self.options.indent.is_some() {
                        self.out.push('\n');
                    }
                    return;
                }
                self.out.push('>');
                // Mixed content (any text child) is written inline so text is
                // not perturbed by indentation.
                let mixed = children.iter().any(|&c| doc.is_text(c));
                if self.options.indent.is_some() && !mixed {
                    self.out.push('\n');
                }
                for &c in children {
                    if mixed {
                        self.write_inline(doc, c);
                    } else {
                        self.write_node(doc, c, depth + 1);
                    }
                }
                if self.options.indent.is_some() && !mixed {
                    self.push_indent(depth);
                }
                self.out.push_str("</");
                self.out.push_str(&name.as_markup());
                self.out.push('>');
                if self.options.indent.is_some() {
                    self.out.push('\n');
                }
            }
            NodeKind::Text(t) => {
                self.push_indent(depth);
                self.out.push_str(&escape_text(t));
                if self.options.indent.is_some() {
                    self.out.push('\n');
                }
            }
            NodeKind::Comment(c) => {
                self.push_indent(depth);
                write_comment_markup(&mut self.out, c);
                if self.options.indent.is_some() {
                    self.out.push('\n');
                }
            }
            NodeKind::ProcessingInstruction { target, data } => {
                self.push_indent(depth);
                write_pi_markup(&mut self.out, target, data);
                if self.options.indent.is_some() {
                    self.out.push('\n');
                }
            }
        }
    }

    /// Writes a node without any indentation/newlines (inside mixed content).
    fn write_inline(&mut self, doc: &Document, id: NodeId) {
        let saved = self.options;
        let compact = WriteOptions {
            declaration: false,
            indent: None,
        };
        let mut w = Writer {
            options: &compact,
            out: std::mem::take(&mut self.out),
        };
        w.write_node(doc, id, 0);
        self.out = w.out;
        self.options = saved;
    }
}

/// Serializes the subtree rooted at `id` compactly, without a declaration.
pub fn fragment_to_string(doc: &Document, id: NodeId) -> String {
    let opts = WriteOptions::default().declaration(false);
    Writer::new(&opts).write_fragment(doc, id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;

    #[test]
    fn compact_round_trip() {
        let src = "<a k=\"v\"><b>text</b><c/></a>";
        let doc = Document::parse(src).unwrap();
        let out = doc.to_xml(&WriteOptions::default().declaration(false));
        assert_eq!(out, src);
    }

    #[test]
    fn escapes_on_output() {
        let mut doc = Document::new();
        let root = doc.create_element(doc.document_node(), "a");
        doc.set_attribute(root, "k", "a<b\"c");
        doc.create_text(root, "x & y < z");
        let out = doc.to_xml(&WriteOptions::default().declaration(false));
        assert_eq!(out, "<a k=\"a&lt;b&quot;c\">x &amp; y &lt; z</a>");
    }

    #[test]
    fn pretty_indents_element_content() {
        let doc = Document::parse("<a><b><c/></b></a>").unwrap();
        let out = doc.to_pretty_xml();
        let expected =
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>\n  <b>\n    <c/>\n  </b>\n</a>\n";
        assert_eq!(out, expected);
    }

    #[test]
    fn pretty_keeps_mixed_content_inline() {
        let doc = Document::parse("<p>one <em>two</em> three</p>").unwrap();
        let out = doc.to_pretty_xml();
        assert!(out.contains("<p>one <em>two</em> three</p>"));
    }

    #[test]
    fn namespace_declarations_serialized() {
        let src = "<r xmlns=\"urn:d\" xmlns:x=\"urn:x\"><x:a/></r>";
        let doc = Document::parse(src).unwrap();
        let out = doc.to_xml(&WriteOptions::default().declaration(false));
        assert_eq!(out, src);
    }

    #[test]
    fn fragment_serialization() {
        let doc = Document::parse("<a><b id=\"x\">t</b></a>").unwrap();
        let b = doc.element_by_id("x").unwrap();
        assert_eq!(fragment_to_string(&doc, b), "<b id=\"x\">t</b>");
    }

    #[test]
    fn pi_and_comment_round_trip() {
        let src = "<a><!--c--><?t d?></a>";
        let doc = Document::parse(src).unwrap();
        let out = doc.to_xml(&WriteOptions::default().declaration(false));
        assert_eq!(out, src);
    }
}
