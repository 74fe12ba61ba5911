//! The in-memory site: path → resource storage.
//!
//! navsep's world is the paper's: a set of XML/XHTML/CSS files making up a
//! web application. A [`Site`] holds them by path, keeps XML parsed, and
//! implements [`navsep_xlink::DocumentProvider`] so linkbases resolve
//! against it directly.

use bytes::Bytes;
use navsep_xlink::DocumentProvider;
use navsep_xml::Document;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Media types the site distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaType {
    /// `application/xml` — data documents and linkbases.
    Xml,
    /// `application/xhtml+xml` — woven pages.
    Html,
    /// `text/css`.
    Css,
    /// `text/plain`.
    Text,
}

impl MediaType {
    /// The MIME string.
    pub fn as_str(self) -> &'static str {
        match self {
            MediaType::Xml => "application/xml",
            MediaType::Html => "application/xhtml+xml",
            MediaType::Css => "text/css",
            MediaType::Text => "text/plain",
        }
    }

    /// Guesses a media type from a path extension.
    pub fn from_path(path: &str) -> Self {
        match path.rsplit('.').next() {
            Some("xml") => MediaType::Xml,
            Some("html") | Some("xhtml") => MediaType::Html,
            Some("css") => MediaType::Css,
            _ => MediaType::Text,
        }
    }
}

impl fmt::Display for MediaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stored resource.
#[derive(Debug, Clone)]
pub enum Resource {
    /// A parsed XML/XHTML document.
    Document {
        /// Its media type (Xml or Html).
        media_type: MediaType,
        /// The parsed document.
        doc: Document,
    },
    /// Raw bytes (CSS, plain text).
    Raw {
        /// Its media type.
        media_type: MediaType,
        /// The bytes.
        body: Bytes,
    },
}

impl Resource {
    /// The resource's media type.
    pub fn media_type(&self) -> MediaType {
        match self {
            Resource::Document { media_type, .. } | Resource::Raw { media_type, .. } => *media_type,
        }
    }

    /// The parsed document, when this is a document resource.
    pub fn document(&self) -> Option<&Document> {
        match self {
            Resource::Document { doc, .. } => Some(doc),
            Resource::Raw { .. } => None,
        }
    }

    /// Serializes the resource to transmitted bytes.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            Resource::Document { doc, .. } => Bytes::from(doc.to_xml_string()),
            Resource::Raw { body, .. } => body.clone(),
        }
    }
}

/// An in-memory site: ordered map of path → [`Resource`].
///
/// Entries are stored as `Arc<Resource>`, so cloning a site is
/// copy-on-write: the clone shares every resource and only bumps reference
/// counts. Replacing an entry in either copy never touches the other. The
/// `*_shared` accessors hand out and take those `Arc`s, which lets the
/// publisher, its last woven site and the store's epochs hold one copy of
/// each unchanged resource between them.
///
/// Paths are stored without a leading `/`: every insert, lookup and removal
/// normalizes, so `/a.xml` and `a.xml` name the same entry.
///
/// # Examples
///
/// ```
/// use navsep_web::Site;
/// use navsep_xml::Document;
///
/// let mut site = Site::new();
/// site.put_document("picasso.xml", Document::parse("<painter/>")?);
/// site.put_css("museum.css", "h1 { color: navy }");
/// assert_eq!(site.len(), 2);
/// assert!(site.get("picasso.xml").is_some());
///
/// // A clone shares every resource with the original.
/// let copy = site.clone();
/// assert!(std::sync::Arc::ptr_eq(
///     site.get_shared("picasso.xml").unwrap(),
///     copy.get_shared("picasso.xml").unwrap(),
/// ));
/// # Ok::<(), navsep_xml::ParseXmlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Site {
    resources: BTreeMap<String, Arc<Resource>>,
}

/// The stored form of a path: no leading `/`.
fn normalize(path: &str) -> &str {
    path.trim_start_matches('/')
}

impl Site {
    /// An empty site.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a parsed document; media type guessed from the extension.
    pub fn put_document(&mut self, path: impl Into<String>, doc: Document) {
        let path = path.into();
        let media_type = match MediaType::from_path(&path) {
            MediaType::Html => MediaType::Html,
            _ => MediaType::Xml,
        };
        self.put_resource(path, Resource::Document { media_type, doc });
    }

    /// Stores an XHTML page.
    pub fn put_page(&mut self, path: impl Into<String>, doc: Document) {
        self.put_resource(
            path,
            Resource::Document {
                media_type: MediaType::Html,
                doc,
            },
        );
    }

    /// Stores a CSS stylesheet.
    pub fn put_css(&mut self, path: impl Into<String>, css: impl Into<String>) {
        self.put_resource(
            path,
            Resource::Raw {
                media_type: MediaType::Css,
                body: Bytes::from(css.into()),
            },
        );
    }

    /// Stores plain text.
    pub fn put_text(&mut self, path: impl Into<String>, text: impl Into<String>) {
        self.put_resource(
            path,
            Resource::Raw {
                media_type: MediaType::Text,
                body: Bytes::from(text.into()),
            },
        );
    }

    /// Stores an already-built [`Resource`] under `path` as-is.
    pub fn put_resource(&mut self, path: impl Into<String>, resource: Resource) {
        self.put_shared(path, Arc::new(resource));
    }

    /// Stores a shared resource under `path` without copying it.
    pub fn put_shared(&mut self, path: impl Into<String>, resource: Arc<Resource>) {
        let mut path = path.into();
        if path.starts_with('/') {
            path = normalize(&path).to_string();
        }
        self.resources.insert(path, resource);
    }

    /// Looks up a resource.
    pub fn get(&self, path: &str) -> Option<&Resource> {
        self.get_shared(path).map(|res| &**res)
    }

    /// Looks up a resource as the `Arc` the site holds.
    pub fn get_shared(&self, path: &str) -> Option<&Arc<Resource>> {
        self.resources.get(normalize(path))
    }

    /// Removes a resource, returning it (copied out only when another site
    /// still shares it; [`remove_shared`](Self::remove_shared) never
    /// copies).
    pub fn remove(&mut self, path: &str) -> Option<Resource> {
        self.remove_shared(path)
            .map(|res| Arc::try_unwrap(res).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Removes a resource, returning the `Arc` the site held.
    pub fn remove_shared(&mut self, path: &str) -> Option<Arc<Resource>> {
        self.resources.remove(normalize(path))
    }

    /// All paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.resources.keys().map(String::as_str)
    }

    /// Iterates `(path, resource)` pairs, sorted by path.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Resource)> {
        self.iter_shared().map(|(path, res)| (path, &**res))
    }

    /// Iterates `(path, resource)` pairs as the `Arc`s the site holds,
    /// sorted by path.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&str, &Arc<Resource>)> {
        self.resources.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// `true` when the site holds nothing.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// Serializes every resource: `(path, text)` pairs, sorted by path.
    /// Used by the change-impact analyzer to diff whole sites.
    pub fn to_file_map(&self) -> BTreeMap<String, String> {
        self.iter()
            .map(|(path, res)| {
                let text = match res {
                    Resource::Document { doc, .. } => doc.to_pretty_xml(),
                    Resource::Raw { body, .. } => String::from_utf8_lossy(body).into_owned(),
                };
                (path.to_string(), text)
            })
            .collect()
    }
}

impl DocumentProvider for Site {
    fn document(&self, path: &str) -> Option<&Document> {
        self.get(path).and_then(Resource::document)
    }
}

impl FromIterator<(String, Document)> for Site {
    fn from_iter<T: IntoIterator<Item = (String, Document)>>(iter: T) -> Self {
        let mut site = Site::new();
        for (path, doc) in iter {
            site.put_document(path, doc);
        }
        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get() {
        let mut s = Site::new();
        s.put_document("a.xml", Document::parse("<a/>").unwrap());
        s.put_css("style.css", "a { b: c }");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("a.xml").unwrap().media_type(), MediaType::Xml);
        assert_eq!(s.get("style.css").unwrap().media_type(), MediaType::Css);
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn leading_slash_normalized_on_lookup() {
        let mut s = Site::new();
        s.put_document("dir/a.xml", Document::parse("<a/>").unwrap());
        assert!(s.get("/dir/a.xml").is_some());
    }

    #[test]
    fn leading_slash_normalized_on_insert() {
        let mut s = Site::new();
        s.put_document("/a.xml", Document::parse("<a/>").unwrap());
        s.put_css("/style.css", "a { b: c }");
        s.put_shared("/shared.txt", Arc::new(s.get("style.css").unwrap().clone()));
        assert_eq!(
            s.paths().collect::<Vec<_>>(),
            ["a.xml", "shared.txt", "style.css"]
        );
        assert!(s.get("/a.xml").is_some() && s.get("a.xml").is_some());
        // Both spellings name one entry: a re-put replaces, never duplicates.
        s.put_document("a.xml", Document::parse("<b/>").unwrap());
        assert_eq!(s.len(), 3);
        assert!(s.remove("/a.xml").is_some());
        assert!(s.get("a.xml").is_none());
    }

    #[test]
    fn clone_shares_resources_and_edits_stay_private() {
        let mut original = Site::new();
        original.put_document("a.xml", Document::parse("<a/>").unwrap());
        original.put_document("b.xml", Document::parse("<b/>").unwrap());
        let mut copy = original.clone();
        for path in ["a.xml", "b.xml"] {
            assert!(Arc::ptr_eq(
                original.get_shared(path).unwrap(),
                copy.get_shared(path).unwrap()
            ));
        }
        copy.put_document("a.xml", Document::parse("<edited/>").unwrap());
        let removed = copy.remove("b.xml").unwrap();
        assert_eq!(
            removed.to_bytes(),
            original.get("b.xml").unwrap().to_bytes()
        );
        assert!(original.get("a.xml").unwrap().to_bytes().ends_with(b"<a/>"));
        assert_eq!(original.len(), 2);
        assert_eq!(copy.len(), 1);
    }

    #[test]
    fn document_provider_impl() {
        let mut s = Site::new();
        s.put_document("a.xml", Document::parse("<a/>").unwrap());
        s.put_css("c.css", "x{}");
        let d: &dyn DocumentProvider = &s;
        assert!(d.document("a.xml").is_some());
        assert!(d.document("c.css").is_none()); // raw resources aren't documents
    }

    #[test]
    fn media_type_guessing() {
        assert_eq!(MediaType::from_path("x.xml"), MediaType::Xml);
        assert_eq!(MediaType::from_path("x.html"), MediaType::Html);
        assert_eq!(MediaType::from_path("x.css"), MediaType::Css);
        assert_eq!(MediaType::from_path("README"), MediaType::Text);
    }

    #[test]
    fn page_vs_document_media_types() {
        let mut s = Site::new();
        s.put_page("p.html", Document::parse("<html/>").unwrap());
        s.put_document("d.xml", Document::parse("<d/>").unwrap());
        assert_eq!(s.get("p.html").unwrap().media_type(), MediaType::Html);
        assert_eq!(s.get("d.xml").unwrap().media_type(), MediaType::Xml);
    }

    #[test]
    fn file_map_is_deterministic() {
        let mut s = Site::new();
        s.put_document("b.xml", Document::parse("<b/>").unwrap());
        s.put_document("a.xml", Document::parse("<a/>").unwrap());
        let files = s.to_file_map();
        let paths: Vec<&String> = files.keys().collect();
        assert_eq!(paths, ["a.xml", "b.xml"]);
    }

    #[test]
    fn from_iterator() {
        let site: Site = vec![
            ("a.xml".to_string(), Document::parse("<a/>").unwrap()),
            ("b.xml".to_string(), Document::parse("<b/>").unwrap()),
        ]
        .into_iter()
        .collect();
        assert_eq!(site.len(), 2);
    }

    #[test]
    fn remove_returns_resource() {
        let mut s = Site::new();
        s.put_text("t.txt", "hi");
        let r = s.remove("t.txt").unwrap();
        assert_eq!(r.media_type(), MediaType::Text);
        assert!(s.is_empty());
    }
}
