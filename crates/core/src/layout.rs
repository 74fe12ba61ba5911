//! Site layout conventions shared by the tangled and separated pipelines.
//!
//! Both pipelines must produce *the same final pages* (that equivalence is
//! experiment F6), so the mapping from model objects to paths and the CSS
//! are fixed here, once.

/// Path of the page presenting `slug` (flat site, as in the paper's figures).
pub fn page_path(slug: &str) -> String {
    format!("{slug}.html")
}

/// Path of the data document for `slug` (the paper's `picasso.xml`,
/// `avignon.xml`, …).
pub fn data_path(slug: &str) -> String {
    format!("{slug}.xml")
}

/// The slug presented by a page path, when it follows [`page_path`].
pub fn slug_of_page(path: &str) -> Option<&str> {
    path.strip_suffix(".html")
}

/// The slug stored in a data path, when it follows [`data_path`].
pub fn slug_of_data(path: &str) -> Option<&str> {
    path.strip_suffix(".xml")
}

/// Maps a data-document path to its page path (`guitar.xml → guitar.html`).
pub fn data_to_page(path: &str) -> Option<String> {
    slug_of_data(path).map(page_path)
}

/// Path of the stylesheet both pipelines link.
pub const CSS_PATH: &str = "museum.css";

/// Path of the XLink linkbase in the separated authoring (paper Fig. 9).
pub const LINKBASE_PATH: &str = "links.xml";

/// Path of the presentation transform in the separated authoring.
pub const TRANSFORM_PATH: &str = "transform.xml";

/// Optional path of site-defined extra aspects (paper §7 future work:
/// the aspect language embedded in the web application as XML).
pub const ASPECTS_PATH: &str = "aspects.xml";

/// `true` for the paths of the specs the weave compiles — the linkbase,
/// the transform and `aspects.xml` — rather than transforms into pages.
/// Takes a path in its stored form (no leading `/`).
pub fn is_spec_path(path: &str) -> bool {
    [LINKBASE_PATH, TRANSFORM_PATH, ASPECTS_PATH].contains(&path)
}

/// The shared stylesheet — presentation, the concern XML/CSS already
/// separated before the paper starts.
pub const MUSEUM_CSS: &str = "\
body { font-family: serif; margin: 2em }
h1 { color: #222 }
dl.facts dt { font-weight: bold }
ul.index { list-style: square }
div.navigation { margin-top: 1.5em; border-top: 1px solid #999 }
div.navigation a { margin-right: 1em }
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_round_trips() {
        assert_eq!(page_path("guitar"), "guitar.html");
        assert_eq!(data_path("guitar"), "guitar.xml");
        assert_eq!(slug_of_page("guitar.html"), Some("guitar"));
        assert_eq!(slug_of_data("guitar.xml"), Some("guitar"));
        assert_eq!(slug_of_page("guitar.xml"), None);
        assert_eq!(data_to_page("guitar.xml").as_deref(), Some("guitar.html"));
        assert_eq!(data_to_page("style.css"), None);
    }

    #[test]
    fn specs_are_not_data() {
        for spec in [LINKBASE_PATH, TRANSFORM_PATH, ASPECTS_PATH] {
            assert!(is_spec_path(spec), "{spec}");
        }
        assert!(!is_spec_path("guitar.xml"));
        assert!(!is_spec_path(CSS_PATH));
    }

    #[test]
    fn css_parses_with_navsep_style() {
        let css: navsep_style::CssStylesheet = MUSEUM_CSS.parse().unwrap();
        assert!(css.rules().len() >= 5);
    }
}
