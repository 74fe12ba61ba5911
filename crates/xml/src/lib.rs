//! # navsep-xml — the XML substrate
//!
//! A self-contained XML 1.0 + Namespaces implementation: parser, arena DOM,
//! serializer, and a fluent tree builder. Everything in the navsep
//! reproduction of *"Separating the Navigational Aspect"* (Reina Quintero &
//! Torres Valderrama, 2002) rides on XML — data documents, XLink linkbases,
//! and the woven output pages — so this crate is the foundation of the stack.
//!
//! The paper's premise is that XML already separated *presentation* from
//! *data*; navsep adds the third separated concern (*navigation*). This crate
//! deliberately implements only document-level XML: DTD entity definitions
//! are rejected rather than half-supported, and external entities do not
//! exist (no I/O happens during parsing).
//!
//! ## Quick start
//!
//! ```
//! use navsep_xml::{Document, ElementBuilder, WriteOptions};
//!
//! // Parse...
//! let doc = Document::parse("<museum><painting id='guitar'>Guitar</painting></museum>")?;
//! let guitar = doc.element_by_id("guitar").unwrap();
//! assert_eq!(doc.text_content(guitar), "Guitar");
//!
//! // ...build...
//! let page = ElementBuilder::new("html")
//!     .child(ElementBuilder::new("body").text("hello"))
//!     .build_document();
//!
//! // ...serialize.
//! let xml = page.to_xml(&WriteOptions::default().declaration(false));
//! assert_eq!(xml, "<html><body>hello</body></html>");
//! # Ok::<(), navsep_xml::ParseXmlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dom;
pub mod error;
pub mod escape;
pub mod events;
pub mod hash;
pub mod index;
pub mod name;
pub mod reader;
pub mod writer;

pub use builder::ElementBuilder;
pub use dom::{Attribute, Descendants, Document, NodeId, NodeKind};
pub use error::{ParseXmlError, TextPos, XmlErrorKind};
pub use events::{EventReader, XmlEvent};
pub use hash::fnv1a64;
pub use index::DocumentIndex;
pub use name::{NamespaceDecl, NamespaceStack, QName, XMLNS_NS, XML_NS};
pub use reader::MAX_DEPTH;
pub use writer::{fragment_to_string, WriteOptions, Writer, XML_DECLARATION};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Document>();
        assert_send_sync::<QName>();
        assert_send_sync::<ParseXmlError>();
        assert_send_sync::<WriteOptions>();
    }
}
