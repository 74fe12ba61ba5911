//! Pull-based XML event reading: source text to a stream of [`XmlEvent`]s.
//!
//! [`EventReader`] is the single lexer in the workspace. The DOM parser
//! ([`Document::parse`](crate::dom::Document::parse)) is a thin consumer
//! that folds the event stream into a tree, so anything reading the
//! events directly tokenizes byte-for-byte identically to a parse,
//! including every error kind, message, and position.
//!
//! Covered grammar (the navsep subset of XML 1.0 + Namespaces): elements,
//! attributes, namespace resolution, text, CDATA, comments, processing
//! instructions, the XML declaration, an (ignored) DOCTYPE, predefined
//! entities and character references. DTD-defined entities are rejected
//! rather than silently mis-parsed.
//!
//! Event-model notes:
//!
//! - Text runs are merged across CDATA sections and entity references and
//!   emitted as one [`XmlEvent::Text`] before the next markup boundary,
//!   mirroring the DOM parser's single-text-node merging.
//! - Top-level whitespace between the prolog, root element, and trailing
//!   comments/PIs is discarded (the DOM never materializes it either).
//! - A self-closing tag produces a [`XmlEvent::StartElement`] immediately
//!   followed by its [`XmlEvent::EndElement`].
//! - Namespace declarations are in scope for the element that carries them;
//!   the reader resolves every element and attribute name before emitting
//!   the start event.

use crate::dom::Attribute;
use crate::error::{ParseXmlError, TextPos, XmlErrorKind};
use crate::escape::{is_xml_char, parse_char_ref, predefined_entity};
use crate::name::{is_name_char, is_name_start_char, NamespaceDecl, NamespaceStack, QName};
use crate::reader::MAX_DEPTH;

/// One markup event pulled from an [`EventReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// An element start tag (or the start half of a self-closing tag), with
    /// namespaces already resolved.
    StartElement {
        /// The resolved element name.
        name: QName,
        /// The resolved attributes, in source order.
        attributes: Vec<Attribute>,
        /// Namespace declarations carried on this tag, in source order.
        namespace_decls: Vec<NamespaceDecl>,
    },
    /// An element end tag (or the end half of a self-closing tag).
    EndElement {
        /// The resolved element name, identical to the matching start.
        name: QName,
    },
    /// A merged character-data run (text, CDATA, expanded references).
    Text(String),
    /// A comment (`<!-- … -->`), body verbatim.
    Comment(String),
    /// A processing instruction (`<?target data?>`).
    ProcessingInstruction {
        /// The PI target.
        target: String,
        /// The PI data (whitespace after the target stripped).
        data: String,
    },
}

/// An open element recorded on the reader's stack.
struct OpenElement {
    /// The lexical (prefixed) tag name, for close-tag matching.
    lexical: String,
    /// The resolved name, re-emitted on [`XmlEvent::EndElement`].
    name: QName,
}

/// A pull parser over XML source text: call [`EventReader::next_event`]
/// until it yields `Ok(None)`.
///
/// ```
/// use navsep_xml::{EventReader, XmlEvent};
/// let mut r = EventReader::new("<a><b/>hi</a>");
/// let mut tags = Vec::new();
/// while let Some(ev) = r.next_event().unwrap() {
///     if let XmlEvent::StartElement { name, .. } = &ev {
///         tags.push(name.local().to_string());
///     }
/// }
/// assert_eq!(tags, ["a", "b"]);
/// ```
pub struct EventReader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Open elements; `len()` is the current depth.
    stack: Vec<OpenElement>,
    ns: NamespaceStack,
    /// A queued event (the `EndElement` of a self-closing tag).
    pending: Option<XmlEvent>,
    started: bool,
    saw_root: bool,
    finished: bool,
}

impl<'a> EventReader<'a> {
    /// Creates a reader over `src`.
    pub fn new(src: &'a str) -> Self {
        EventReader {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            stack: Vec::new(),
            ns: NamespaceStack::new(),
            pending: None,
            started: false,
            saw_root: false,
            finished: false,
        }
    }

    /// Number of currently open elements (0 between the prolog/epilog and
    /// while positioned at the root start tag).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The current source position (line/column/byte offset).
    pub fn position(&self) -> TextPos {
        self.text_pos()
    }

    /// Pulls the next event, or `Ok(None)` at the end of a well-formed
    /// document.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent>, ParseXmlError> {
        if let Some(ev) = self.pending.take() {
            if matches!(ev, XmlEvent::EndElement { .. }) {
                self.stack.pop();
            }
            return Ok(Some(ev));
        }
        if self.finished {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            self.eat("\u{FEFF}"); // byte-order mark
                                  // An XML declaration is "<?xml" followed by whitespace — not a
                                  // PI whose target merely starts with "xml"
                                  // (e.g. <?xml-stylesheet?>).
            if ["<?xml ", "<?xml\t", "<?xml\n", "<?xml\r", "<?xml?"]
                .iter()
                .any(|p| self.starts_with(p))
            {
                self.parse_xml_decl()?;
            }
        }
        if self.stack.is_empty() {
            self.next_top_level()
        } else {
            self.next_in_content()
        }
    }

    // ---- top level (prolog / root / epilog) ------------------------------

    fn next_top_level(&mut self) -> Result<Option<XmlEvent>, ParseXmlError> {
        loop {
            self.skip_ws();
            if self.at_eof() {
                if !self.saw_root {
                    return Err(self.err(XmlErrorKind::InvalidDocumentStructure(
                        "no root element".into(),
                    )));
                }
                self.finished = true;
                return Ok(None);
            }
            if self.starts_with("<!--") {
                return Ok(Some(XmlEvent::Comment(self.parse_comment()?)));
            }
            if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
                continue;
            }
            if self.starts_with("<?") {
                let (target, data) = self.parse_pi()?;
                return Ok(Some(XmlEvent::ProcessingInstruction { target, data }));
            }
            if self.starts_with("<") {
                if self.saw_root {
                    return Err(self.err(XmlErrorKind::InvalidDocumentStructure(
                        "content after root element".into(),
                    )));
                }
                self.saw_root = true;
                return Ok(Some(self.parse_start_tag()?));
            }
            return Err(self.err(XmlErrorKind::InvalidDocumentStructure(
                "character data outside the root element".into(),
            )));
        }
    }

    // ---- element content -------------------------------------------------

    /// Lexes inside an open element: accumulates one text run, stopping (and
    /// emitting it) at the next markup boundary; with no pending text the
    /// boundary itself becomes the event.
    fn next_in_content(&mut self) -> Result<Option<XmlEvent>, ParseXmlError> {
        let mut text = String::new();
        loop {
            if self.at_eof() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
            if self.starts_with("</") {
                if !text.is_empty() {
                    return Ok(Some(XmlEvent::Text(text)));
                }
                return Ok(Some(self.parse_end_tag()?));
            }
            if self.starts_with("<![CDATA[") {
                self.eat("<![CDATA[");
                loop {
                    if self.eat("]]>") {
                        break;
                    }
                    match self.bump() {
                        Some(c) => text.push(c),
                        None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                    }
                }
                continue;
            }
            if self.starts_with("<!--") {
                if !text.is_empty() {
                    return Ok(Some(XmlEvent::Text(text)));
                }
                return Ok(Some(XmlEvent::Comment(self.parse_comment()?)));
            }
            if self.starts_with("<?") {
                if !text.is_empty() {
                    return Ok(Some(XmlEvent::Text(text)));
                }
                let (target, data) = self.parse_pi()?;
                return Ok(Some(XmlEvent::ProcessingInstruction { target, data }));
            }
            if self.starts_with("<") {
                if !text.is_empty() {
                    return Ok(Some(XmlEvent::Text(text)));
                }
                return Ok(Some(self.parse_start_tag()?));
            }
            if self.starts_with("]]>") {
                return Err(self.err(XmlErrorKind::InvalidToken(
                    "']]>' is not allowed in character data".into(),
                )));
            }
            match self.peek() {
                Some('&') => text.push(self.parse_reference()?),
                Some(c) => {
                    self.check_char(c)?;
                    self.bump();
                    text.push(c);
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    // ---- tags ------------------------------------------------------------

    fn parse_start_tag(&mut self) -> Result<XmlEvent, ParseXmlError> {
        if self.stack.len() + 1 > MAX_DEPTH {
            return Err(self.err(XmlErrorKind::TooDeep(MAX_DEPTH)));
        }
        self.expect("<")?;
        let lexical = self.parse_name_token()?;
        let (prefix, local) = QName::split_lexical(&lexical)
            .ok_or_else(|| self.err(XmlErrorKind::InvalidName(lexical.clone())))?;
        let prefix = prefix.to_string();
        let local = local.to_string();

        // Collect raw attributes first; namespace decls must be in scope
        // before prefixes (including the element's own) are resolved.
        let mut raw_attrs: Vec<(String, String, String)> = Vec::new(); // (prefix, local, value)
        let mut decls: Vec<(String, String)> = Vec::new(); // (prefix, uri)
        let mut self_closing = false;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    break;
                }
                Some('/') => {
                    self.bump();
                    self.expect(">")?;
                    self_closing = true;
                    break;
                }
                Some(c) if is_name_start_char(c) => {
                    let attr_name = self.parse_name_token()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    if attr_name == "xmlns" {
                        decls.push((String::new(), value));
                    } else if let Some(rest) = attr_name.strip_prefix("xmlns:") {
                        if rest.is_empty() {
                            return Err(self.err(XmlErrorKind::InvalidName(attr_name)));
                        }
                        decls.push((rest.to_string(), value));
                    } else {
                        let (ap, al) = QName::split_lexical(&attr_name).ok_or_else(|| {
                            self.err(XmlErrorKind::InvalidName(attr_name.clone()))
                        })?;
                        raw_attrs.push((ap.to_string(), al.to_string(), value));
                    }
                }
                Some(c) => {
                    return Err(self.err(XmlErrorKind::UnexpectedChar {
                        expected: "an attribute name, '>' or '/>'".into(),
                        found: c,
                    }))
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }

        self.ns.push();
        for (p, uri) in &decls {
            self.ns.declare(p.clone(), uri.clone());
        }

        let name = match self.resolve_element_name(&prefix, &local) {
            Ok(name) => name,
            Err(e) => {
                self.ns.pop();
                return Err(e);
            }
        };
        let mut attributes: Vec<Attribute> = Vec::with_capacity(raw_attrs.len());
        for (ap, al, value) in raw_attrs {
            let attr_name = match self.resolve_attr_name(&ap, &al) {
                Ok(n) => n,
                Err(e) => {
                    self.ns.pop();
                    return Err(e);
                }
            };
            if attributes.iter().any(|a| {
                a.name().local() == attr_name.local()
                    && a.name().namespace() == attr_name.namespace()
            }) {
                self.ns.pop();
                return Err(self.err(XmlErrorKind::DuplicateAttribute(attr_name.as_markup())));
            }
            attributes.push(Attribute::new(attr_name, value));
        }
        let namespace_decls = decls
            .into_iter()
            .map(|(prefix, uri)| NamespaceDecl { prefix, uri })
            .collect();

        if self_closing {
            self.ns.pop();
            // Queue the matching end; `pending` handling pops the stack when
            // it is delivered.
            self.stack.push(OpenElement {
                lexical,
                name: name.clone(),
            });
            self.pending = Some(XmlEvent::EndElement { name: name.clone() });
        } else {
            self.stack.push(OpenElement {
                lexical,
                name: name.clone(),
            });
        }
        Ok(XmlEvent::StartElement {
            name,
            attributes,
            namespace_decls,
        })
    }

    fn parse_end_tag(&mut self) -> Result<XmlEvent, ParseXmlError> {
        self.expect("</")?;
        let close = self.parse_name_token()?;
        let open = self.stack.last().expect("end tag only inside content");
        if close != open.lexical {
            let expected = open.lexical.clone();
            self.ns.pop();
            return Err(self.err(XmlErrorKind::MismatchedTag {
                expected,
                found: close,
            }));
        }
        self.skip_ws();
        self.expect(">")?;
        self.ns.pop();
        let open = self.stack.pop().expect("checked non-empty above");
        Ok(XmlEvent::EndElement { name: open.name })
    }

    // ---- cursor ----------------------------------------------------------

    fn text_pos(&self) -> TextPos {
        TextPos::new(self.line, self.col, self.pos)
    }

    fn err(&self, kind: XmlErrorKind) -> ParseXmlError {
        ParseXmlError::new(kind, self.text_pos())
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseXmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(found) => Err(self.err(XmlErrorKind::UnexpectedChar {
                    expected: format!("{s:?}"),
                    found,
                })),
                None => Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.bump();
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    // ---- prolog pieces ---------------------------------------------------

    fn parse_xml_decl(&mut self) -> Result<(), ParseXmlError> {
        self.expect("<?xml")?;
        // Tolerantly scan to the closing "?>"; contents (version/encoding)
        // do not affect this in-memory parser.
        loop {
            if self.eat("?>") {
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), ParseXmlError> {
        self.expect("<!DOCTYPE")?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some('<') => depth += 1,
                Some('>') => depth -= 1,
                Some(_) => {}
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
        Ok(())
    }

    fn parse_comment(&mut self) -> Result<String, ParseXmlError> {
        self.expect("<!--")?;
        let mut out = String::new();
        loop {
            if self.starts_with("--") {
                if self.eat("-->") {
                    return Ok(out);
                }
                return Err(self.err(XmlErrorKind::InvalidToken(
                    "'--' is not allowed inside a comment".into(),
                )));
            }
            match self.bump() {
                Some(c) => out.push(c),
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_pi(&mut self) -> Result<(String, String), ParseXmlError> {
        self.expect("<?")?;
        let target = self.parse_name_token()?;
        if target.eq_ignore_ascii_case("xml") {
            return Err(self.err(XmlErrorKind::InvalidToken(
                "processing-instruction target may not be 'xml'".into(),
            )));
        }
        self.skip_ws();
        let mut data = String::new();
        loop {
            if self.eat("?>") {
                return Ok((target, data));
            }
            match self.bump() {
                Some(c) => data.push(c),
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_name_token(&mut self) -> Result<String, ParseXmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start_char(c) => {
                self.bump();
            }
            Some(c) => {
                return Err(self.err(XmlErrorKind::UnexpectedChar {
                    expected: "a name".into(),
                    found: c,
                }))
            }
            None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c)) {
            self.bump();
        }
        Ok(self.src[start..self.pos].to_string())
    }

    // ---- names and values ------------------------------------------------

    fn resolve_element_name(&self, prefix: &str, local: &str) -> Result<QName, ParseXmlError> {
        if prefix.is_empty() {
            Ok(match self.ns.default_namespace() {
                Some(uri) => QName::in_default_namespace(local, uri),
                None => QName::new(local),
            })
        } else {
            match self.ns.resolve(prefix) {
                Some(uri) => Ok(QName::with_namespace(prefix, local, uri)),
                None => Err(self.err(XmlErrorKind::UnboundPrefix(prefix.to_string()))),
            }
        }
    }

    fn resolve_attr_name(&self, prefix: &str, local: &str) -> Result<QName, ParseXmlError> {
        if prefix.is_empty() {
            // Default namespace does not apply to attributes.
            Ok(QName::new(local))
        } else {
            match self.ns.resolve(prefix) {
                Some(uri) => Ok(QName::with_namespace(prefix, local, uri)),
                None => Err(self.err(XmlErrorKind::UnboundPrefix(prefix.to_string()))),
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, ParseXmlError> {
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.bump();
                q
            }
            Some(c) => {
                return Err(self.err(XmlErrorKind::UnexpectedChar {
                    expected: "'\"' or \"'\"".into(),
                    found: c,
                }))
            }
            None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some('<') => {
                    return Err(self.err(XmlErrorKind::InvalidToken(
                        "'<' is not allowed in attribute values".into(),
                    )))
                }
                Some('&') => out.push(self.parse_reference()?),
                // Attribute-value normalization: whitespace -> space.
                Some('\t' | '\n' | '\r') => {
                    self.bump();
                    out.push(' ');
                }
                Some(c) => {
                    self.check_char(c)?;
                    self.bump();
                    out.push(c);
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_reference(&mut self) -> Result<char, ParseXmlError> {
        self.expect("&")?;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != ';') {
            self.bump();
            if self.pos - start > 32 {
                return Err(self.err(XmlErrorKind::InvalidToken(
                    "unterminated entity reference".into(),
                )));
            }
        }
        let body = self.src[start..self.pos].to_string();
        self.expect(";")?;
        if let Some(stripped) = body.strip_prefix('#') {
            parse_char_ref(&format!("#{stripped}"))
                .ok_or_else(|| self.err(XmlErrorKind::InvalidCharRef(stripped.to_string())))
        } else {
            predefined_entity(&body)
                .ok_or_else(|| self.err(XmlErrorKind::UnknownEntity(body.clone())))
        }
    }

    fn check_char(&self, c: char) -> Result<(), ParseXmlError> {
        if is_xml_char(c) {
            Ok(())
        } else {
            Err(self.err(XmlErrorKind::InvalidToken(format!(
                "character U+{:04X} is not allowed in XML",
                c as u32
            ))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<XmlEvent> {
        let mut r = EventReader::new(src);
        let mut out = Vec::new();
        while let Some(ev) = r.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn self_closing_yields_start_then_end() {
        let evs = events("<a/>");
        assert_eq!(evs.len(), 2);
        assert!(matches!(&evs[0], XmlEvent::StartElement { name, .. } if name.local() == "a"));
        assert!(matches!(&evs[1], XmlEvent::EndElement { name } if name.local() == "a"));
    }

    #[test]
    fn text_runs_merge_across_cdata_and_references() {
        let evs = events("<a>x<![CDATA[y]]>&amp;z</a>");
        assert_eq!(evs.len(), 3);
        assert!(matches!(&evs[1], XmlEvent::Text(t) if t == "xy&z"));
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut r = EventReader::new("<a><b/></a>");
        assert_eq!(r.depth(), 0);
        r.next_event().unwrap(); // <a>
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // <b>
        assert_eq!(r.depth(), 2);
        r.next_event().unwrap(); // </b>
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // </a>
        assert_eq!(r.depth(), 0);
        assert!(r.next_event().unwrap().is_none());
    }

    #[test]
    fn namespace_decls_and_resolution_are_streamed() {
        let evs = events("<r xmlns:x=\"urn:x\"><x:a y=\"1\"/></r>");
        match &evs[0] {
            XmlEvent::StartElement {
                namespace_decls, ..
            } => {
                assert_eq!(namespace_decls.len(), 1);
                assert_eq!(namespace_decls[0].prefix, "x");
                assert_eq!(namespace_decls[0].uri, "urn:x");
            }
            other => panic!("expected start, got {other:?}"),
        }
        match &evs[1] {
            XmlEvent::StartElement {
                name, attributes, ..
            } => {
                assert_eq!(name.namespace(), Some("urn:x"));
                assert_eq!(attributes[0].name().local(), "y");
                assert_eq!(attributes[0].value(), "1");
            }
            other => panic!("expected start, got {other:?}"),
        }
    }

    #[test]
    fn top_level_comments_and_pis_stream_around_the_root() {
        let evs = events("<!-- pre --><a/><?post data?>");
        assert!(matches!(&evs[0], XmlEvent::Comment(c) if c == " pre "));
        assert!(matches!(
            &evs[3],
            XmlEvent::ProcessingInstruction { target, .. } if target == "post"
        ));
    }

    #[test]
    fn mismatched_close_reports_expected_open_tag() {
        let mut r = EventReader::new("<a><b></c></a>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        let err = r.next_event().unwrap_err();
        assert!(matches!(
            err.kind(),
            XmlErrorKind::MismatchedTag { expected, found } if expected == "b" && found == "c"
        ));
    }

    #[test]
    fn too_deep_is_rejected_at_the_offending_tag() {
        let mut src = String::new();
        for i in 0..=MAX_DEPTH {
            src.push_str(&format!("<e{i}>"));
        }
        let mut r = EventReader::new(&src);
        let mut err = None;
        for _ in 0..=MAX_DEPTH {
            match r.next_event() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            err.expect("must reject").kind(),
            XmlErrorKind::TooDeep(d) if *d == MAX_DEPTH
        ));
    }
}
