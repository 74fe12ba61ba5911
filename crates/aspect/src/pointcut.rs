//! Pointcuts: predicates over join points.
//!
//! The paper's §5 asks: *"we should look for one or many join points, that
//! means, where are we going to join the navigation aspect with the classes
//! of the conceptual model?"* navsep's answer is a document-level join-point
//! model (see [`crate::joinpoint`]) filtered by these pointcut predicates,
//! written in a small DSL:
//!
//! ```text
//! element("body") && page("painting-*.html") && !attr("data-no-nav")
//! ```

use crate::error::ParsePointcutError;
use crate::joinpoint::JoinPoint;
use std::fmt;

/// A pointcut predicate tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pointcut {
    /// Matches an element with this local name.
    Element(String),
    /// Matches the page path against a `*`-glob.
    Page(String),
    /// Matches when the attribute exists.
    AttrExists(String),
    /// Matches when the attribute equals the value.
    AttrEquals(String, String),
    /// Matches when the `class` attribute contains the token.
    HasClass(String),
    /// Matches the element with this `id`.
    Id(String),
    /// Matches the page's root element.
    Root,
    /// Conjunction.
    And(Box<Pointcut>, Box<Pointcut>),
    /// Disjunction.
    Or(Box<Pointcut>, Box<Pointcut>),
    /// Negation.
    Not(Box<Pointcut>),
    /// Matches every element join point.
    Always,
}

impl Pointcut {
    /// Parses the pointcut DSL.
    ///
    /// Grammar: `expr := term ('||' term)*`, `term := factor ('&&' factor)*`,
    /// `factor := '!' factor | '(' expr ')' | primitive`, with primitives
    /// `element("…")`, `page("…")`, `attr("k")`, `attr("k","v")`,
    /// `class("…")`, `id("…")`, `root()`, `true`.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePointcutError`] with an offset on malformed input.
    ///
    /// # Examples
    ///
    /// ```
    /// use navsep_aspect::Pointcut;
    ///
    /// let pc = Pointcut::parse(r#"element("body") && page("painting-*")"#)?;
    /// assert!(pc.to_string().contains("element"));
    /// # Ok::<(), navsep_aspect::ParsePointcutError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Self, ParsePointcutError> {
        let mut p = Parser { src: text, pos: 0 };
        let pc = p.expr()?;
        p.skip_ws();
        if p.pos < p.src.len() {
            return Err(ParsePointcutError::new(
                format!("trailing input {:?}", &p.src[p.pos..]),
                p.pos,
            ));
        }
        Ok(pc)
    }

    /// Conjunction builder.
    pub fn and(self, other: Pointcut) -> Pointcut {
        Pointcut::And(Box::new(self), Box::new(other))
    }

    /// Disjunction builder.
    pub fn or(self, other: Pointcut) -> Pointcut {
        Pointcut::Or(Box::new(self), Box::new(other))
    }

    /// Negation builder.
    pub fn negate(self) -> Pointcut {
        Pointcut::Not(Box::new(self))
    }

    /// Whether the pointcut selects `jp`.
    ///
    /// Every pointcut primitive is element-local: the element's local
    /// name, its un-namespaced attributes (default namespaces never apply
    /// to attributes, matching `Document::attribute`), the page path, and
    /// whether it is the root element.
    pub fn matches(&self, jp: &JoinPoint<'_>) -> bool {
        let attr = |name: &str| jp.doc.attribute(jp.element, name);
        match self {
            Pointcut::Element(name) => jp.doc.name(jp.element).is_some_and(|q| q.local() == name),
            Pointcut::Page(glob) => glob_match(glob, jp.page),
            Pointcut::AttrExists(name) => attr(name).is_some(),
            Pointcut::AttrEquals(name, value) => attr(name) == Some(value.as_str()),
            Pointcut::HasClass(token) => {
                attr("class").is_some_and(|c| c.split_ascii_whitespace().any(|t| t == token))
            }
            Pointcut::Id(id) => attr("id") == Some(id.as_str()),
            Pointcut::Root => jp.doc.root_element() == Some(jp.element),
            Pointcut::And(a, b) => a.matches(jp) && b.matches(jp),
            Pointcut::Or(a, b) => a.matches(jp) || b.matches(jp),
            Pointcut::Not(a) => !a.matches(jp),
            Pointcut::Always => true,
        }
    }
}

impl fmt::Display for Pointcut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pointcut::Element(n) => write!(f, "element(\"{n}\")"),
            Pointcut::Page(g) => write!(f, "page(\"{g}\")"),
            Pointcut::AttrExists(a) => write!(f, "attr(\"{a}\")"),
            Pointcut::AttrEquals(a, v) => write!(f, "attr(\"{a}\", \"{v}\")"),
            Pointcut::HasClass(c) => write!(f, "class(\"{c}\")"),
            Pointcut::Id(i) => write!(f, "id(\"{i}\")"),
            Pointcut::Root => f.write_str("root()"),
            Pointcut::And(a, b) => write!(f, "({a} && {b})"),
            Pointcut::Or(a, b) => write!(f, "({a} || {b})"),
            Pointcut::Not(a) => write!(f, "!{a}"),
            Pointcut::Always => f.write_str("true"),
        }
    }
}

/// Simple `*`-glob matching (no character classes).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    // Dynamic programming over pattern segments split by '*'.
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == text;
    }
    let mut rest = text;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            match rest.strip_prefix(part) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else {
            match rest.find(part) {
                Some(idx) => rest = &rest[idx + part.len()..],
                None => return false,
            }
        }
    }
    // Pattern ends with '*' (last part empty) — anything left matches.
    parts.last().map(|p| p.is_empty()).unwrap_or(false) || rest.is_empty()
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with([' ', '\t', '\n', '\r']) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<Pointcut, ParsePointcutError> {
        let mut lhs = self.term()?;
        while self.eat("||") {
            let rhs = self.term()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Pointcut, ParsePointcutError> {
        let mut lhs = self.factor()?;
        while self.eat("&&") {
            let rhs = self.factor()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Pointcut, ParsePointcutError> {
        if self.eat("!") {
            return Ok(self.factor()?.negate());
        }
        if self.eat("(") {
            let inner = self.expr()?;
            if !self.eat(")") {
                return Err(ParsePointcutError::new("expected ')'", self.pos));
            }
            return Ok(inner);
        }
        self.primitive()
    }

    fn primitive(&mut self) -> Result<Pointcut, ParsePointcutError> {
        self.skip_ws();
        let start = self.pos;
        while self.src[self.pos..]
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        let ident = &self.src[start..self.pos];
        if ident.is_empty() {
            return Err(ParsePointcutError::new("expected a primitive", self.pos));
        }
        if ident == "true" {
            return Ok(Pointcut::Always);
        }
        if !self.eat("(") {
            return Err(ParsePointcutError::new("expected '('", self.pos));
        }
        self.skip_ws();
        let pc = match ident {
            "root" => Pointcut::Root,
            "element" | "page" | "class" | "id" => {
                let arg = self.string()?;
                match ident {
                    "element" => Pointcut::Element(arg),
                    "page" => Pointcut::Page(arg),
                    "class" => Pointcut::HasClass(arg),
                    _ => Pointcut::Id(arg),
                }
            }
            "attr" => {
                let name = self.string()?;
                if self.eat(",") {
                    self.skip_ws();
                    let value = self.string()?;
                    Pointcut::AttrEquals(name, value)
                } else {
                    Pointcut::AttrExists(name)
                }
            }
            other => {
                return Err(ParsePointcutError::new(
                    format!("unknown primitive {other:?}"),
                    start,
                ))
            }
        };
        if !self.eat(")") {
            return Err(ParsePointcutError::new("expected ')'", self.pos));
        }
        Ok(pc)
    }

    fn string(&mut self) -> Result<String, ParsePointcutError> {
        self.skip_ws();
        if !self.src[self.pos..].starts_with('"') {
            return Err(ParsePointcutError::new("expected a string", self.pos));
        }
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.src[self.pos..].chars().next() {
            if c == '"' {
                let s = self.src[start..self.pos].to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += c.len_utf8();
        }
        Err(ParsePointcutError::new("unterminated string", self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navsep_xml::Document;

    fn jp<'d>(doc: &'d Document, page: &'d str, name: &str) -> JoinPoint<'d> {
        let el = doc
            .descendants(doc.document_node())
            .find(|&n| doc.name(n).map(|q| q.local() == name).unwrap_or(false))
            .unwrap();
        JoinPoint {
            page,
            doc,
            element: el,
        }
    }

    fn body_doc() -> Document {
        Document::parse(
            r#"<html><body class="page museum" id="b1" data-nav="off"><p>t</p></body></html>"#,
        )
        .unwrap()
    }

    #[test]
    fn primitives_match() {
        let doc = body_doc();
        let j = jp(&doc, "painting-guitar.html", "body");
        assert!(Pointcut::parse(r#"element("body")"#).unwrap().matches(&j));
        assert!(!Pointcut::parse(r#"element("div")"#).unwrap().matches(&j));
        assert!(Pointcut::parse(r#"page("painting-*")"#)
            .unwrap()
            .matches(&j));
        assert!(!Pointcut::parse(r#"page("painter-*")"#).unwrap().matches(&j));
        assert!(Pointcut::parse(r#"attr("data-nav")"#).unwrap().matches(&j));
        assert!(Pointcut::parse(r#"attr("data-nav", "off")"#)
            .unwrap()
            .matches(&j));
        assert!(!Pointcut::parse(r#"attr("data-nav", "on")"#)
            .unwrap()
            .matches(&j));
        assert!(Pointcut::parse(r#"class("museum")"#).unwrap().matches(&j));
        assert!(!Pointcut::parse(r#"class("mus")"#).unwrap().matches(&j));
        assert!(Pointcut::parse(r#"id("b1")"#).unwrap().matches(&j));
        assert!(Pointcut::parse("true").unwrap().matches(&j));
    }

    #[test]
    fn root_matches_only_root() {
        let doc = body_doc();
        let html = jp(&doc, "x", "html");
        let body = jp(&doc, "x", "body");
        let pc = Pointcut::parse("root()").unwrap();
        assert!(pc.matches(&html));
        assert!(!pc.matches(&body));
    }

    #[test]
    fn boolean_combinators() {
        let doc = body_doc();
        let j = jp(&doc, "painting-guitar.html", "body");
        let pc = Pointcut::parse(
            r#"element("body") && !attr("missing") && (page("zzz") || class("page"))"#,
        )
        .unwrap();
        assert!(pc.matches(&j));
        let pc = Pointcut::parse(r#"element("body") && attr("missing")"#).unwrap();
        assert!(!pc.matches(&j));
    }

    #[test]
    fn precedence_and_over_or() {
        // a || b && c parses as a || (b && c)
        let pc = Pointcut::parse(r#"element("a") || element("b") && element("c")"#).unwrap();
        assert_eq!(
            pc,
            Pointcut::Element("a".into())
                .or(Pointcut::Element("b".into()).and(Pointcut::Element("c".into())))
        );
    }

    #[test]
    fn parse_errors() {
        assert!(Pointcut::parse("").is_err());
        assert!(Pointcut::parse("element(").is_err());
        assert!(Pointcut::parse(r#"element("a") extra"#).is_err());
        assert!(Pointcut::parse(r#"unknown("x")"#).is_err());
        assert!(Pointcut::parse(r#"element("a"#).is_err());
        assert!(Pointcut::parse(r#"(element("a")"#).is_err());
    }

    #[test]
    fn display_round_trips() {
        for src in [
            r#"element("body")"#,
            r#"(element("a") && page("p-*"))"#,
            r#"!attr("k", "v")"#,
            "root()",
        ] {
            let pc = Pointcut::parse(src).unwrap();
            let again = Pointcut::parse(&pc.to_string()).unwrap();
            assert_eq!(pc, again);
        }
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("painting-*", "painting-guitar.html"));
        assert!(glob_match("*.html", "a.html"));
        assert!(!glob_match("*.html", "a.css"));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b*c", "aXXbYY"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exactly"));
        assert!(glob_match("", ""));
    }
}
