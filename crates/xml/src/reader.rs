//! The XML parser: source text to [`Document`].
//!
//! All lexing lives in the pull-based [`EventReader`]; this module is a
//! thin consumer that folds the event stream into a [`Document`] tree, so
//! a parse and an event walk tokenize identically by construction — same
//! grammar subset, same error kinds, messages, and positions.

use crate::dom::Document;
use crate::error::ParseXmlError;
use crate::events::{EventReader, XmlEvent};

/// Maximum element nesting depth. Documents deeper than this are rejected
/// with [`XmlErrorKind::TooDeep`](crate::error::XmlErrorKind::TooDeep)
/// instead of risking unbounded stack growth downstream.
pub const MAX_DEPTH: usize = 128;

/// Parses `text` into a [`Document`]. Exposed as [`Document::parse`].
pub(crate) fn parse_document(text: &str) -> Result<Document, ParseXmlError> {
    let mut reader = EventReader::new(text);
    let mut doc = Document::new();
    let mut stack = vec![doc.document_node()];
    while let Some(event) = reader.next_event()? {
        let parent = *stack.last().expect("document node never popped");
        match event {
            XmlEvent::StartElement {
                name,
                attributes,
                namespace_decls,
            } => {
                let id = doc.create_element(parent, name);
                for d in namespace_decls {
                    doc.declare_namespace(id, d.prefix, d.uri);
                }
                for a in attributes {
                    doc.set_attribute(id, a.name().clone(), a.value().to_string());
                }
                stack.push(id);
            }
            XmlEvent::EndElement { .. } => {
                stack.pop();
            }
            XmlEvent::Text(t) => {
                doc.create_text(parent, t);
            }
            XmlEvent::Comment(c) => {
                doc.create_comment(parent, c);
            }
            XmlEvent::ProcessingInstruction { target, data } => {
                doc.create_pi(parent, target, data);
            }
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use crate::dom::{Document, NodeKind};
    use crate::error::XmlErrorKind;
    use crate::name::XML_NS;

    #[test]
    fn parses_minimal_document() {
        let doc = Document::parse("<a/>").unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()).unwrap().local(), "a");
    }

    #[test]
    fn parses_declaration_and_doctype() {
        let doc = Document::parse(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n<a/>",
        )
        .unwrap();
        assert!(doc.root_element().is_some());
    }

    #[test]
    fn resolves_namespaces() {
        let doc =
            Document::parse("<r xmlns=\"urn:d\" xmlns:x=\"urn:x\"><x:a y=\"1\" x:z=\"2\"/></r>")
                .unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root).unwrap().namespace(), Some("urn:d"));
        let a = doc.child_elements(root).next().unwrap();
        let name = doc.name(a).unwrap();
        assert_eq!(name.namespace(), Some("urn:x"));
        assert_eq!(name.prefix(), "x");
        // Unprefixed attribute is in *no* namespace even with a default ns.
        assert_eq!(doc.attribute(a, "y"), Some("1"));
        assert_eq!(doc.attribute_ns(a, "urn:x", "z"), Some("2"));
    }

    #[test]
    fn unbound_prefix_is_an_error() {
        let err = Document::parse("<x:a/>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnboundPrefix(p) if p == "x"));
    }

    #[test]
    fn mismatched_tags_error_with_position() {
        let err = Document::parse("<a>\n  <b></c>\n</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::MismatchedTag { .. }));
        assert_eq!(err.pos().line, 2);
    }

    #[test]
    fn entities_and_char_refs_expand() {
        let doc = Document::parse("<a attr=\"&lt;&#65;&gt;\">&amp;&#x42;</a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "attr"), Some("<A>"));
        assert_eq!(doc.text_content(root), "&B");
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = Document::parse("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::UnknownEntity(e) if e == "nbsp"));
    }

    #[test]
    fn cdata_becomes_text() {
        let doc = Document::parse("<a><![CDATA[<not> & markup]]></a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.text_content(root), "<not> & markup");
    }

    #[test]
    fn comments_and_pis_preserved() {
        let doc = Document::parse("<a><!-- note --><?php echo ?></a>").unwrap();
        let root = doc.root_element().unwrap();
        let kinds: Vec<_> = doc
            .children(root)
            .iter()
            .map(|&c| doc.kind(c).clone())
            .collect();
        assert!(matches!(&kinds[0], NodeKind::Comment(c) if c == " note "));
        assert!(
            matches!(&kinds[1], NodeKind::ProcessingInstruction { target, data } if target == "php" && data == "echo ")
        );
    }

    #[test]
    fn double_dash_in_comment_rejected() {
        let err = Document::parse("<a><!-- bad -- comment --></a>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::InvalidToken(_)));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Document::parse("<a k=\"1\" k=\"2\"/>").unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn duplicate_attribute_by_namespace_rejected() {
        // Same expanded name through two prefixes.
        let err = Document::parse("<a xmlns:p=\"urn:x\" xmlns:q=\"urn:x\" p:k=\"1\" q:k=\"2\"/>")
            .unwrap_err();
        assert!(matches!(err.kind(), XmlErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn content_after_root_rejected() {
        let err = Document::parse("<a/><b/>").unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::InvalidDocumentStructure(_)
        ));
    }

    #[test]
    fn attribute_value_normalization() {
        let doc = Document::parse("<a k=\"one\ntwo\tthree\"/>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "k"), Some("one two three"));
    }

    #[test]
    fn xml_id_attribute_resolves_namespace() {
        let doc = Document::parse("<a xml:id=\"root\"/>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute_ns(root, XML_NS, "id"), Some("root"));
        assert_eq!(doc.element_by_id("root"), Some(root));
    }

    #[test]
    fn cdata_split_sections_merge_into_one_text_run() {
        let doc = Document::parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        let root = doc.root_element().unwrap();
        // One merged text node: "xyz".
        assert_eq!(doc.children(root).len(), 1);
        assert_eq!(doc.text_content(root), "xyz");
    }

    #[test]
    fn whitespace_only_document_is_error() {
        assert!(Document::parse("   \n  ").is_err());
        assert!(Document::parse("").is_err());
    }

    #[test]
    fn bom_is_tolerated() {
        let doc = Document::parse("\u{FEFF}<a/>").unwrap();
        assert!(doc.root_element().is_some());
    }

    #[test]
    fn nested_default_namespace_undeclaration() {
        let doc = Document::parse("<a xmlns=\"urn:d\"><b xmlns=\"\"/></a>").unwrap();
        let root = doc.root_element().unwrap();
        let b = doc.child_elements(root).next().unwrap();
        assert_eq!(doc.name(b).unwrap().namespace(), None);
    }
}
