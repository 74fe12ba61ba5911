//! Property-based tests: serialize ∘ parse is the identity on serialized
//! documents, parsing never panics on arbitrary input, and mutating a
//! copy-on-write clone never shows through the document it was cloned from.

use navsep_xml::{Document, ElementBuilder, NodeId, WriteOptions};
use proptest::prelude::*;

/// Strategy for XML element/attribute names (a safe subset).
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,7}".prop_filter("avoid 'xmlns' keyword", |s| s != "xmlns" && s != "xml")
}

/// Strategy for text content, including characters that need escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("a".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("&".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just(" ".to_string()),
            Just("ñ".to_string()),
            Just("😀".to_string()),
            Just("]]>".to_string()),
        ],
        0..12,
    )
    .prop_map(|v| v.concat())
}

/// Strategy for attribute values, including whitespace that must survive via
/// character references.
fn attr_value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("v".to_string()),
            Just("<".to_string()),
            Just("&".to_string()),
            Just("\"".to_string()),
            Just("\t".to_string()),
            Just("\n".to_string()),
            Just("é".to_string()),
        ],
        0..8,
    )
    .prop_map(|v| v.concat())
}

/// Recursive strategy producing a random element tree as a builder.
fn tree_strategy() -> impl Strategy<Value = ElementBuilder> {
    let leaf = (name_strategy(), text_strategy()).prop_map(|(name, text)| {
        let b = ElementBuilder::new(name.as_str());
        if text.is_empty() {
            b
        } else {
            b.text(text)
        }
    });
    leaf.prop_recursive(4, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), attr_value_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| {
                let mut b = ElementBuilder::new(name.as_str());
                let mut seen = std::collections::HashSet::new();
                for (k, v) in attrs {
                    if seen.insert(k.clone()) {
                        b = b.attr(k.as_str(), v);
                    }
                }
                b.children(children)
            })
    })
}

proptest! {
    /// serialize → parse → serialize is a fixed point.
    #[test]
    fn serialize_parse_serialize_is_identity(tree in tree_strategy()) {
        let doc = tree.build_document();
        let opts = WriteOptions::default().declaration(false);
        let first = doc.to_xml(&opts);
        let reparsed = Document::parse(&first).expect("own output must reparse");
        let second = reparsed.to_xml(&opts);
        prop_assert_eq!(first, second);
    }

    /// Pretty-printed output also reparses (indentation must not corrupt
    /// attribute values or break well-formedness).
    #[test]
    fn pretty_output_reparses(tree in tree_strategy()) {
        let doc = tree.build_document();
        let pretty = doc.to_pretty_xml();
        prop_assert!(Document::parse(&pretty).is_ok());
    }

    /// Text content survives the round trip exactly for non-whitespace text
    /// placed as the only child.
    #[test]
    fn text_content_round_trips(text in text_strategy()) {
        let doc = ElementBuilder::new("t").text(text.clone()).build_document();
        let xml = doc.to_xml(&WriteOptions::default().declaration(false));
        let back = Document::parse(&xml).unwrap();
        let root = back.root_element().unwrap();
        prop_assert_eq!(back.text_content(root), text);
    }

    /// Attribute values survive the round trip exactly (incl. tab/newline,
    /// which must be written as character references).
    #[test]
    fn attribute_value_round_trips(value in attr_value_strategy()) {
        let doc = ElementBuilder::new("t").attr("k", value.clone()).build_document();
        let xml = doc.to_xml(&WriteOptions::default().declaration(false));
        let back = Document::parse(&xml).unwrap();
        let root = back.root_element().unwrap();
        prop_assert_eq!(back.attribute(root, "k"), Some(value.as_str()));
    }

    /// The parser never panics, whatever bytes arrive.
    #[test]
    fn parser_never_panics(input in "\\PC*") {
        let _ = Document::parse(&input);
    }

    /// The parser never panics on angle-bracket-dense input either.
    #[test]
    fn parser_never_panics_markupish(input in "[<>&;\"'a-z/=! \\-\\[\\]]{0,64}") {
        let _ = Document::parse(&input);
    }
}

/// One mutation of the copy-on-write law. Node operands are positions in
/// the document's pre-order node list, taken modulo its length when the
/// edit is applied, so any sequence applies to any document.
#[derive(Debug, Clone)]
enum Edit {
    AppendElement(usize, String),
    AppendText(usize, String),
    SetAttribute(usize, String, String),
    Detach(usize),
    Move(usize, usize),
    Shrink,
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0..64usize, name_strategy()).prop_map(|(at, name)| Edit::AppendElement(at, name)),
        (0..64usize, text_strategy()).prop_map(|(at, text)| Edit::AppendText(at, text)),
        (0..64usize, name_strategy(), attr_value_strategy())
            .prop_map(|(at, name, value)| Edit::SetAttribute(at, name, value)),
        (0..64usize).prop_map(Edit::Detach),
        (0..64usize, 0..64usize).prop_map(|(node, to)| Edit::Move(node, to)),
        Just(Edit::Shrink),
    ]
}

/// Applies `edit`; node choices depend only on the tree, so two documents
/// with the same content take the same edit the same way.
fn apply(doc: &mut Document, edit: &Edit) {
    let reachable: Vec<NodeId> = doc.descendants(doc.document_node()).collect();
    let elements: Vec<NodeId> = reachable
        .iter()
        .copied()
        .filter(|&n| doc.is_element(n))
        .collect();
    // Below the root element: detaching or moving these keeps a root.
    let movable: Vec<NodeId> = reachable
        .iter()
        .copied()
        .filter(|&n| doc.parent(n).is_some_and(|p| p != doc.document_node()))
        .collect();
    let pick = |nodes: &[NodeId], at: usize| nodes.get(at % nodes.len().max(1)).copied();
    match edit {
        Edit::AppendElement(at, name) => {
            if let Some(parent) = pick(&elements, *at) {
                doc.create_element(parent, name.as_str());
            }
        }
        Edit::AppendText(at, text) => {
            if let Some(parent) = pick(&elements, *at) {
                doc.create_text(parent, text.as_str());
            }
        }
        Edit::SetAttribute(at, name, value) => {
            if let Some(element) = pick(&elements, *at) {
                doc.set_attribute(element, name.as_str(), value.as_str());
            }
        }
        Edit::Detach(at) => {
            if let Some(node) = pick(&movable, *at) {
                doc.detach(node);
            }
        }
        Edit::Move(node, to) => {
            let (Some(node), Some(parent)) = (pick(&movable, *node), pick(&elements, *to)) else {
                return;
            };
            // Never under itself: that would cut the subtree off in a cycle.
            if doc.descendants(node).all(|n| n != parent) {
                doc.insert_child_at(parent, 0, node);
            }
        }
        Edit::Shrink => doc.shrink_to_fit(),
    }
}

proptest! {
    /// Copy-on-write law: mutating a clone leaves the original's bytes,
    /// content hash and index untouched, and the clone ends up exactly as
    /// an eager copy (`cloned_with_headroom(0)`) given the same edits.
    #[test]
    fn mutating_a_clone_leaves_the_original_intact(
        tree in tree_strategy(),
        edits in proptest::collection::vec(edit_strategy(), 0..12),
    ) {
        let original = tree.build_document();
        let bytes = original.to_xml_string();
        let hash = original.content_hash();
        let index = original.index_arc();
        let elements = index.elements().to_vec();

        let mut shared = original.clone();
        let mut eager = original.cloned_with_headroom(0);
        for edit in &edits {
            apply(&mut shared, edit);
            apply(&mut eager, edit);
        }

        prop_assert_eq!(original.to_xml_string(), bytes);
        prop_assert_eq!(original.content_hash(), hash);
        prop_assert!(std::sync::Arc::ptr_eq(&original.index_arc(), &index));
        prop_assert_eq!(original.index().elements(), &elements[..]);

        let shared_bytes = shared.to_xml_string();
        prop_assert_eq!(&shared_bytes, &eager.to_xml_string());
        prop_assert_eq!(shared.content_hash(), eager.content_hash());
        prop_assert_eq!(shared.content_hash(), navsep_xml::fnv1a64(shared_bytes.as_bytes()));
        prop_assert_eq!(shared.index().elements(), eager.index().elements());
    }
}
