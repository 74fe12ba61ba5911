//! Advice: what to do at a matched join point.

use crate::joinpoint::JoinPoint;
use navsep_xml::ElementBuilder;
use std::fmt;
use std::sync::Arc;

/// Where the advice content lands relative to the matched element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdvicePosition {
    /// As the previous sibling of the element.
    Before,
    /// As the next sibling of the element.
    After,
    /// As the element's first child.
    Prepend,
    /// As the element's last child.
    Append,
    /// Replacing all of the element's children.
    ReplaceContent,
}

impl fmt::Display for AdvicePosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdvicePosition::Before => "before",
            AdvicePosition::After => "after",
            AdvicePosition::Prepend => "prepend",
            AdvicePosition::Append => "append",
            AdvicePosition::ReplaceContent => "replace-content",
        })
    }
}

/// Produces advice content for a specific join point.
pub type ContentFn = Arc<dyn Fn(&JoinPoint<'_>) -> Vec<ElementBuilder> + Send + Sync>;

/// Produces advice content from the page path alone (no document access).
pub type PageContentFn = Arc<dyn Fn(&str) -> Vec<ElementBuilder> + Send + Sync>;

/// The content an advice inserts.
#[derive(Clone)]
pub enum AdviceContent {
    /// A fixed fragment (one or more sibling elements).
    Fragment(Vec<ElementBuilder>),
    /// Plain text.
    Text(String),
    /// Content computed per join point — the function sees the whole
    /// document.
    Generated(ContentFn),
    /// Content computed from the page path only — e.g. navigation links that
    /// depend on *which* page is being woven but not on its contents (the
    /// navsep navigation aspect).
    PageGenerated(PageContentFn),
}

impl fmt::Debug for AdviceContent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdviceContent::Fragment(els) => f
                .debug_tuple("Fragment")
                .field(&format!("{} element(s)", els.len()))
                .finish(),
            AdviceContent::Text(t) => f.debug_tuple("Text").field(t).finish(),
            AdviceContent::Generated(_) => f.write_str("Generated(<fn>)"),
            AdviceContent::PageGenerated(_) => f.write_str("PageGenerated(<fn>)"),
        }
    }
}

impl AdviceContent {
    /// Materializes the content for `jp`.
    pub fn realize(&self, jp: &JoinPoint<'_>) -> Realized {
        match self {
            AdviceContent::Fragment(els) => Realized::Elements(els.clone()),
            AdviceContent::Text(t) => Realized::Text(t.clone()),
            AdviceContent::Generated(f) => Realized::Elements(f(jp)),
            AdviceContent::PageGenerated(f) => Realized::Elements(f(jp.page)),
        }
    }
}

/// Materialized advice content, ready to graft into a page.
#[derive(Debug, Clone)]
pub enum Realized {
    /// Elements to insert.
    Elements(Vec<ElementBuilder>),
    /// Text to insert.
    Text(String),
}

/// One advice: position + content (bound to a pointcut inside an aspect).
#[derive(Debug, Clone)]
pub struct Advice {
    /// Where the content lands.
    pub position: AdvicePosition,
    /// What lands there.
    pub content: AdviceContent,
}

impl Advice {
    /// Creates an advice inserting fixed elements.
    pub fn insert(position: AdvicePosition, elements: Vec<ElementBuilder>) -> Self {
        Advice {
            position,
            content: AdviceContent::Fragment(elements),
        }
    }

    /// Creates an advice inserting text.
    pub fn text(position: AdvicePosition, text: impl Into<String>) -> Self {
        Advice {
            position,
            content: AdviceContent::Text(text.into()),
        }
    }

    /// Creates an advice whose content is computed per join point.
    pub fn generated(
        position: AdvicePosition,
        f: impl Fn(&JoinPoint<'_>) -> Vec<ElementBuilder> + Send + Sync + 'static,
    ) -> Self {
        Advice {
            position,
            content: AdviceContent::Generated(Arc::new(f)),
        }
    }

    /// Creates an advice whose content is computed from the page path alone
    /// (it never reads the page, unlike [`Advice::generated`]).
    pub fn page_generated(
        position: AdvicePosition,
        f: impl Fn(&str) -> Vec<ElementBuilder> + Send + Sync + 'static,
    ) -> Self {
        Advice {
            position,
            content: AdviceContent::PageGenerated(Arc::new(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navsep_xml::Document;

    #[test]
    fn realize_fragment_and_text() {
        let doc = Document::parse("<a/>").unwrap();
        let jp = JoinPoint {
            page: "p",
            doc: &doc,
            element: doc.root_element().unwrap(),
        };
        let adv = Advice::insert(AdvicePosition::Append, vec![ElementBuilder::new("nav")]);
        assert!(matches!(adv.content.realize(&jp), Realized::Elements(v) if v.len() == 1));
        let adv = Advice::text(AdvicePosition::Before, "hi");
        assert!(matches!(adv.content.realize(&jp), Realized::Text(t) if t == "hi"));
    }

    #[test]
    fn generated_content_sees_the_join_point() {
        let doc = Document::parse("<a/>").unwrap();
        let jp = JoinPoint {
            page: "painting-guitar.html",
            doc: &doc,
            element: doc.root_element().unwrap(),
        };
        let adv = Advice::generated(AdvicePosition::Append, |jp| {
            vec![ElementBuilder::new("span").text(jp.page.to_string())]
        });
        let Realized::Elements(els) = adv.content.realize(&jp) else {
            panic!()
        };
        let built = els[0].build_document();
        assert_eq!(
            built.text_content(built.root_element().unwrap()),
            "painting-guitar.html"
        );
    }

    #[test]
    fn page_generated_realizes_from_the_page_path() {
        let adv = Advice::page_generated(AdvicePosition::Append, |page| {
            vec![ElementBuilder::new("span").text(page.to_string())]
        });
        let doc = Document::parse("<a/>").unwrap();
        let jp = JoinPoint {
            page: "p.html",
            doc: &doc,
            element: doc.root_element().unwrap(),
        };
        let Realized::Elements(els) = adv.content.realize(&jp) else {
            panic!()
        };
        let built = els[0].build_document();
        assert_eq!(built.text_content(built.root_element().unwrap()), "p.html");
    }

    #[test]
    fn debug_formats() {
        let adv = Advice::generated(AdvicePosition::After, |_| vec![]);
        assert!(format!("{:?}", adv.content).contains("Generated"));
        let adv = Advice::insert(AdvicePosition::Before, vec![]);
        assert!(format!("{:?}", adv.content).contains("Fragment"));
    }
}
