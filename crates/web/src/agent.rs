//! The user agent: the XLink-aware browser 2002 lacked.
//!
//! The paper's stated blocker was that *"the browsers aren't ready to work
//! with XLink yet"*. This module is the missing piece: a user agent that
//! fetches pages through a [`Handler`], parses them, surfaces both HTML
//! anchors and XLink simple links as traversable [`UiLink`]s, and honours
//! `xlink:actuate="onLoad"` auto-traversals.

use crate::http::{Request, Response};
use crate::server::Handler;
use navsep_xlink::{simple_link, Actuate, Show, XLinkError};
use navsep_xml::{Document, NodeId, ParseXmlError};
use std::error::Error as StdError;
use std::fmt;

/// Errors a fetch can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AgentError {
    /// The server answered with a non-success status.
    HttpStatus {
        /// Requested path.
        path: String,
        /// Status code.
        code: u16,
    },
    /// The body was not well-formed XML/XHTML.
    Parse(ParseXmlError),
    /// A link on the page carried malformed XLink markup.
    Link(XLinkError),
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::HttpStatus { path, code } => {
                write!(f, "fetching {path:?} failed with status {code}")
            }
            AgentError::Parse(e) => write!(f, "response body is not well-formed: {e}"),
            AgentError::Link(e) => write!(f, "bad link markup: {e}"),
        }
    }
}

impl StdError for AgentError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            AgentError::Parse(e) => Some(e),
            AgentError::Link(e) => Some(e),
            AgentError::HttpStatus { .. } => None,
        }
    }
}

impl From<ParseXmlError> for AgentError {
    fn from(e: ParseXmlError) -> Self {
        AgentError::Parse(e)
    }
}

impl From<XLinkError> for AgentError {
    fn from(e: XLinkError) -> Self {
        AgentError::Link(e)
    }
}

/// How a link was expressed on the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UiLinkKind {
    /// An HTML `<a href>` anchor.
    HtmlAnchor,
    /// An XLink simple link.
    XLinkSimple,
}

/// A traversable link surfaced to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UiLink {
    /// Raw href as written on the page.
    pub href: String,
    /// Anchor text (text content of the linking element).
    pub text: String,
    /// How the link was expressed.
    pub kind: UiLinkKind,
    /// XLink `show` (defaulted for anchors).
    pub show: Show,
    /// XLink `actuate` (defaulted for anchors).
    pub actuate: Actuate,
    /// `rel` attribute (anchors) or `xlink:arcrole` (simple links).
    pub rel: Option<String>,
    /// navsep's `data-context` marker: entering this link switches the
    /// session into the named navigational context.
    pub context: Option<String>,
}

/// A fetched, parsed page with its extracted links.
#[derive(Debug, Clone)]
pub struct LoadedPage {
    /// Site path the page was fetched from.
    pub path: String,
    /// The parsed document.
    pub doc: Document,
    /// User-traversable links, document order.
    pub links: Vec<UiLink>,
    /// Links with `actuate="onLoad"`, already separated out.
    pub auto_traversals: Vec<UiLink>,
    /// The store generation that served the page, when the handler exposes
    /// one (the sharded store's `x-navsep-generation` header). Lets a
    /// session observe that a reweave happened mid-browse.
    pub generation: Option<u64>,
    /// The server's answer to a conditional-navigation check
    /// ([`crate::store::STALE_HEADER`]): `Some(true)` means the generation
    /// the client recorded has been superseded by a reweave. `None` when
    /// the fetch was unconditional or the handler does not participate.
    pub stale: Option<bool>,
    /// `true` when a time-travel fetch ([`UserAgent::fetch_at`]) asked for
    /// a generation past the server's retention horizon and the response
    /// **degraded to latest** ([`crate::store::DEGRADED_HEADER`]);
    /// `generation` then carries what was actually served.
    pub degraded: bool,
}

impl LoadedPage {
    /// The first link whose anchor text equals `text`.
    pub fn link_by_text(&self, text: &str) -> Option<&UiLink> {
        self.links.iter().find(|l| l.text == text)
    }

    /// The first link whose `rel`/arcrole equals `rel`.
    pub fn link_by_rel(&self, rel: &str) -> Option<&UiLink> {
        self.links.iter().find(|l| l.rel.as_deref() == Some(rel))
    }

    /// The page `<title>`, when present.
    pub fn title(&self) -> Option<String> {
        let root = self.doc.root_element()?;
        let head = self.doc.first_child_named(root, "head")?;
        let title = self.doc.first_child_named(head, "title")?;
        Some(self.doc.text_content(title))
    }
}

/// The user agent: fetches and interprets pages.
#[derive(Debug)]
pub struct UserAgent<H> {
    handler: H,
}

impl<H: Handler> UserAgent<H> {
    /// Creates an agent fetching through `handler`.
    pub fn new(handler: H) -> Self {
        UserAgent { handler }
    }

    /// Fetches and parses the page at `path`, extracting its links.
    ///
    /// # Errors
    ///
    /// * [`AgentError::HttpStatus`] for non-2xx responses;
    /// * [`AgentError::Parse`] for malformed bodies;
    /// * [`AgentError::Link`] for malformed XLink markup.
    pub fn fetch(&self, path: &str) -> Result<LoadedPage, AgentError> {
        self.fetch_request(Request::get(path))
    }

    /// Like [`fetch`](Self::fetch), but performs a **conditional-navigation
    /// check**: `recorded` is the generation a history entry was served
    /// from, and the returned page's [`stale`](LoadedPage::stale) reports
    /// whether a reweave has superseded it (handlers that stamp
    /// generations only; see [`crate::store::IF_GENERATION_HEADER`]).
    ///
    /// # Errors
    ///
    /// Same as [`fetch`](Self::fetch).
    pub fn fetch_conditional(&self, path: &str, recorded: u64) -> Result<LoadedPage, AgentError> {
        self.fetch_request(
            Request::get(path).header(crate::store::IF_GENERATION_HEADER, recorded.to_string()),
        )
    }

    /// Like [`fetch`](Self::fetch), but a **time-travel fetch**: asks the
    /// server (via [`crate::store::AT_GENERATION_HEADER`]) to serve the
    /// page exactly as `generation` served it, from its retained-epoch
    /// ring. Past the retention horizon the server degrades to latest with
    /// an explicit marker — the returned page's
    /// [`degraded`](LoadedPage::degraded) is then `true`. Handlers that do
    /// not retain epochs simply serve their current content.
    ///
    /// # Errors
    ///
    /// Same as [`fetch`](Self::fetch).
    pub fn fetch_at(&self, path: &str, generation: u64) -> Result<LoadedPage, AgentError> {
        self.fetch_request(
            Request::get(path).header(crate::store::AT_GENERATION_HEADER, generation.to_string()),
        )
    }

    fn fetch_request(&self, request: Request) -> Result<LoadedPage, AgentError> {
        let path = request.path().to_string();
        let response: Response = self.handler.handle(&request);
        if !response.status().is_success() {
            return Err(AgentError::HttpStatus {
                path,
                code: response.status().code(),
            });
        }
        let generation = response
            .header_value(crate::store::GENERATION_HEADER)
            .and_then(|v| v.parse().ok());
        let stale = match response.header_value(crate::store::STALE_HEADER) {
            Some("stale") => Some(true),
            Some("fresh") => Some(false),
            _ => None,
        };
        let degraded = response
            .header_value(crate::store::DEGRADED_HEADER)
            .is_some();
        let doc = Document::parse(&response.body_text())?;
        let links = extract_links(&doc)?;
        let (auto, user): (Vec<UiLink>, Vec<UiLink>) = links
            .into_iter()
            .partition(|l| l.actuate == Actuate::OnLoad);
        Ok(LoadedPage {
            path,
            doc,
            links: user,
            auto_traversals: auto,
            generation,
            stale,
            degraded,
        })
    }

    /// The underlying handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Fetches a page and performs its `actuate="onLoad"` traversals, the
    /// way a conforming XLink application would:
    ///
    /// * `show="embed"` targets are fetched and returned as embedded
    ///   resources (one level deep — embeds of embeds are not chased);
    /// * `show="replace"` targets *redirect* the load (at most
    ///   `MAX_ONLOAD_REDIRECTS` hops, to survive redirect cycles).
    ///
    /// # Errors
    ///
    /// Propagates fetch errors from the primary page; broken embeds are
    /// skipped (a browser renders the page anyway) and reported in the
    /// result's `failed` list.
    pub fn fetch_activated(&self, path: &str) -> Result<ActivatedPage, AgentError> {
        const MAX_ONLOAD_REDIRECTS: usize = 4;
        let mut page = self.fetch(path)?;
        let mut redirects = Vec::new();
        let mut hops = 0;
        while let Some(target) = page
            .auto_traversals
            .iter()
            .find(|l| l.show == Show::Replace)
            .map(|l| resolve_href(&l.href, &page.path))
        {
            if hops >= MAX_ONLOAD_REDIRECTS {
                break;
            }
            hops += 1;
            redirects.push(target.clone());
            page = self.fetch(&target)?;
        }
        let mut embedded = Vec::new();
        let mut failed = Vec::new();
        for link in &page.auto_traversals {
            if link.show != Show::Embed {
                continue;
            }
            let target = resolve_href(&link.href, &page.path);
            match self.fetch(&target) {
                Ok(sub) => embedded.push((target, sub.doc)),
                Err(e) => failed.push((target, e)),
            }
        }
        Ok(ActivatedPage {
            page,
            embedded,
            redirects,
            failed,
        })
    }
}

/// A page after onLoad activation: redirects followed, embeds fetched.
#[derive(Debug)]
pub struct ActivatedPage {
    /// The (possibly redirected) page.
    pub page: LoadedPage,
    /// `(path, document)` for each successfully embedded resource.
    pub embedded: Vec<(String, Document)>,
    /// The redirect chain that was followed, in order.
    pub redirects: Vec<String>,
    /// Embeds that failed to load, with their errors.
    pub failed: Vec<(String, AgentError)>,
}

/// Extracts every traversable link from a page.
fn extract_links(doc: &Document) -> Result<Vec<UiLink>, XLinkError> {
    let mut out = Vec::new();
    for node in doc.descendants(doc.document_node()) {
        if !doc.is_element(node) {
            continue;
        }
        // XLink simple links take priority over plain anchors.
        if let Some(link) = simple_link(doc, node)? {
            out.push(UiLink {
                href: link.href.to_string(),
                text: doc.text_content(node).trim().to_string(),
                kind: UiLinkKind::XLinkSimple,
                show: link.show,
                actuate: link.actuate,
                rel: link.arcrole,
                context: doc.attribute(node, "data-context").map(str::to_string),
            });
            continue;
        }
        if doc.name(node).map(|q| q.local()) == Some("a") {
            if let Some(href) = doc.attribute(node, "href") {
                out.push(UiLink {
                    href: href.to_string(),
                    text: doc.text_content(node).trim().to_string(),
                    kind: UiLinkKind::HtmlAnchor,
                    show: Show::Replace,
                    actuate: Actuate::OnRequest,
                    rel: doc.attribute(node, "rel").map(str::to_string),
                    context: doc.attribute(node, "data-context").map(str::to_string),
                });
            }
        }
    }
    Ok(out)
}

/// Resolves `href` (possibly relative, possibly with a fragment) against the
/// path of the page it appears on; returns the target site path.
pub fn resolve_href(href: &str, base_page: &str) -> String {
    match href.parse::<navsep_xlink::Href>() {
        Ok(h) => {
            let resolved = h.resolve_against(base_page);
            if resolved.is_same_document() {
                base_page.to_string()
            } else {
                resolved.document().trim_start_matches('/').to_string()
            }
        }
        Err(_) => href.to_string(),
    }
}

/// Extracts links from an already-parsed document (e.g. for tests).
pub fn links_of(doc: &Document) -> Result<Vec<UiLink>, XLinkError> {
    extract_links(doc)
}

/// The HTML anchors under a specific element.
pub fn anchors_under(doc: &Document, node: NodeId) -> Vec<(String, String)> {
    doc.descendants(node)
        .filter(|&n| doc.name(n).map(|q| q.local()) == Some("a"))
        .filter_map(|n| {
            doc.attribute(n, "href")
                .map(|h| (h.to_string(), doc.text_content(n).trim().to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use crate::store::ShardedSiteHandler;
    use crate::testing::{serve, Unstamped};

    fn handler() -> ShardedSiteHandler {
        let mut site = Site::new();
        site.put_page(
            "guitar.html",
            Document::parse(
                r#"<html><head><title>Guitar</title></head><body>
  <a href="guernica.html" rel="next" data-context="by-painter:picasso">Next</a>
  <a href="index.html">Back to index</a>
</body></html>"#,
            )
            .unwrap(),
        );
        site.put_page(
            "xlinked.html",
            Document::parse(
                r#"<html xmlns:xlink="http://www.w3.org/1999/xlink"><head><title>X</title></head><body>
  <span xlink:type="simple" xlink:href="auto.xml" xlink:actuate="onLoad" xlink:show="embed">embedded</span>
  <span xlink:type="simple" xlink:href="manual.xml" xlink:arcrole="urn:next">click</span>
</body></html>"#,
            )
            .unwrap(),
        );
        serve(&site)
    }

    #[test]
    fn fetch_extracts_anchors() {
        let agent = UserAgent::new(handler());
        let page = agent.fetch("guitar.html").unwrap();
        assert_eq!(page.title().as_deref(), Some("Guitar"));
        assert_eq!(page.links.len(), 2);
        let next = page.link_by_text("Next").unwrap();
        assert_eq!(next.href, "guernica.html");
        assert_eq!(next.rel.as_deref(), Some("next"));
        assert_eq!(next.context.as_deref(), Some("by-painter:picasso"));
        assert_eq!(next.kind, UiLinkKind::HtmlAnchor);
    }

    #[test]
    fn xlink_simple_links_and_onload() {
        let agent = UserAgent::new(handler());
        let page = agent.fetch("xlinked.html").unwrap();
        // onLoad link separated into auto_traversals.
        assert_eq!(page.auto_traversals.len(), 1);
        assert_eq!(page.auto_traversals[0].href, "auto.xml");
        assert_eq!(page.auto_traversals[0].show, Show::Embed);
        // onRequest link stays user-facing.
        assert_eq!(page.links.len(), 1);
        assert_eq!(page.links[0].kind, UiLinkKind::XLinkSimple);
        assert_eq!(page.link_by_rel("urn:next").unwrap().href, "manual.xml");
    }

    #[test]
    fn conditional_fetch_reports_staleness() {
        use crate::store::ShardedSiteStore;
        use std::sync::Arc;

        let mut site = Site::new();
        site.put_page("a.html", Document::parse("<html><body/></html>").unwrap());
        let store = Arc::new(ShardedSiteStore::from_site(2, &site));
        let agent = UserAgent::new(ShardedSiteHandler::new(Arc::clone(&store)));

        assert_eq!(agent.fetch("a.html").unwrap().stale, None);
        assert_eq!(
            agent.fetch_conditional("a.html", 1).unwrap().stale,
            Some(false)
        );
        site.put_page(
            "a.html",
            Document::parse("<html><body>edited</body></html>").unwrap(),
        );
        store.publish_incremental(&site);
        let page = agent.fetch_conditional("a.html", 1).unwrap();
        assert_eq!(page.stale, Some(true));
        assert_eq!(page.generation, Some(2));
        // A handler without generations doesn't participate in the check.
        let plain = UserAgent::new(Unstamped(handler()));
        assert_eq!(
            plain.fetch_conditional("guitar.html", 1).unwrap().stale,
            None
        );
    }

    #[test]
    fn fetch_at_serves_snapshots_and_reports_degradation() {
        use crate::store::ShardedSiteStore;
        use std::sync::Arc;

        let mut site = Site::new();
        site.put_page(
            "a.html",
            Document::parse("<html><body>v1</body></html>").unwrap(),
        );
        let store = Arc::new(ShardedSiteStore::with_retention(2, 2));
        store.publish_incremental(&site);
        site.put_page(
            "a.html",
            Document::parse("<html><body>v2</body></html>").unwrap(),
        );
        store.publish_incremental(&site);
        let agent = UserAgent::new(ShardedSiteHandler::new(Arc::clone(&store)));

        let old = agent.fetch_at("a.html", 1).unwrap();
        assert_eq!(old.generation, Some(1));
        assert!(!old.degraded);
        assert!(old.doc.to_xml_string().contains("v1"));

        // Evict generation 1 (retention 2): the fetch degrades, explicitly.
        site.put_page(
            "a.html",
            Document::parse("<html><body>v3</body></html>").unwrap(),
        );
        store.publish_incremental(&site);
        let degraded = agent.fetch_at("a.html", 1).unwrap();
        assert!(degraded.degraded);
        assert_eq!(degraded.generation, Some(3));
        assert!(degraded.doc.to_xml_string().contains("v3"));

        // Plain fetches never report degradation.
        assert!(!agent.fetch("a.html").unwrap().degraded);
    }

    #[test]
    fn missing_page_is_http_error() {
        let agent = UserAgent::new(handler());
        assert!(matches!(
            agent.fetch("ghost.html"),
            Err(AgentError::HttpStatus { code: 404, .. })
        ));
    }

    #[test]
    fn malformed_body_is_parse_error() {
        let mut site = Site::new();
        site.put_text("broken.html", "<html><body></html>");
        let agent = UserAgent::new(serve(&site));
        assert!(matches!(
            agent.fetch("broken.html"),
            Err(AgentError::Parse(_))
        ));
    }

    #[test]
    fn resolve_href_handles_relative_and_fragment() {
        assert_eq!(resolve_href("b.html", "dir/a.html"), "dir/b.html");
        assert_eq!(resolve_href("../up.html", "dir/sub/a.html"), "dir/up.html");
        assert_eq!(resolve_href("#frag", "dir/a.html"), "dir/a.html");
        assert_eq!(resolve_href("/abs.html", "dir/a.html"), "abs.html");
    }

    #[test]
    fn anchors_under_subtree() {
        let doc = Document::parse(
            r#"<body><nav><a href="x">X</a></nav><main><a href="y">Y</a></main></body>"#,
        )
        .unwrap();
        let root = doc.root_element().unwrap();
        let nav = doc.first_child_named(root, "nav").unwrap();
        assert_eq!(
            anchors_under(&doc, nav),
            vec![("x".to_string(), "X".to_string())]
        );
    }
}

#[cfg(test)]
mod activation_tests {
    use super::*;
    use crate::site::Site;
    use crate::testing::serve;

    const XL: &str = "xmlns:xlink=\"http://www.w3.org/1999/xlink\"";

    fn embed_site() -> Site {
        let mut site = Site::new();
        site.put_page(
            "main.html",
            Document::parse(&format!(
                r#"<html {XL}><head><title>Main</title></head><body>
  <span xlink:type="simple" xlink:href="widget.xml" xlink:actuate="onLoad" xlink:show="embed">w</span>
  <span xlink:type="simple" xlink:href="ghost.xml" xlink:actuate="onLoad" xlink:show="embed">g</span>
</body></html>"#
            ))
            .unwrap(),
        );
        site.put_document(
            "widget.xml",
            Document::parse("<widget>hello</widget>").unwrap(),
        );
        site.put_page(
            "redirecting.html",
            Document::parse(&format!(
                r#"<html {XL}><body>
  <span xlink:type="simple" xlink:href="main.html" xlink:actuate="onLoad" xlink:show="replace">go</span>
</body></html>"#
            ))
            .unwrap(),
        );
        site.put_page(
            "loop-a.html",
            Document::parse(&format!(
                r#"<html {XL}><body><span xlink:type="simple" xlink:href="loop-b.html"
                     xlink:actuate="onLoad" xlink:show="replace">x</span></body></html>"#
            ))
            .unwrap(),
        );
        site.put_page(
            "loop-b.html",
            Document::parse(&format!(
                r#"<html {XL}><body><span xlink:type="simple" xlink:href="loop-a.html"
                     xlink:actuate="onLoad" xlink:show="replace">x</span></body></html>"#
            ))
            .unwrap(),
        );
        site
    }

    #[test]
    fn embeds_fetched_and_failures_reported() {
        let agent = UserAgent::new(serve(&embed_site()));
        let activated = agent.fetch_activated("main.html").unwrap();
        assert_eq!(activated.embedded.len(), 1);
        let (path, doc) = &activated.embedded[0];
        assert_eq!(path, "widget.xml");
        assert_eq!(doc.text_content(doc.root_element().unwrap()), "hello");
        // The broken embed is reported, not fatal.
        assert_eq!(activated.failed.len(), 1);
        assert_eq!(activated.failed[0].0, "ghost.xml");
        assert!(activated.redirects.is_empty());
    }

    #[test]
    fn onload_replace_redirects() {
        let agent = UserAgent::new(serve(&embed_site()));
        let activated = agent.fetch_activated("redirecting.html").unwrap();
        assert_eq!(activated.page.path, "main.html");
        assert_eq!(activated.redirects, vec!["main.html".to_string()]);
        // The redirect target's own embeds are still processed.
        assert_eq!(activated.embedded.len(), 1);
    }

    #[test]
    fn redirect_cycles_terminate() {
        let agent = UserAgent::new(serve(&embed_site()));
        let activated = agent.fetch_activated("loop-a.html").unwrap();
        // Bounded: at most 4 hops, then the agent settles on whatever page
        // it reached.
        assert!(activated.redirects.len() <= 4);
    }
}
