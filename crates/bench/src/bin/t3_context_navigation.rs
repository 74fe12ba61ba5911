//! Table T3 regenerator: the paper's §2 scenarios, observed through a real
//! navigation session on the woven site.
//!
//! 1. **Context-dependent "Next"** — reach the Guitar painting via its
//!    author, Next goes to Guernica; reach it via Cubism, Next goes to Les
//!    Demoiselles d'Avignon (another Cubist work, by context order).
//! 2. **Scrolling is not navigation** — the Google-style "more results"
//!    links of §2 carry no navigational context; the session's context stays
//!    unchanged when following them.

use navsep_bench::{banner, print_table};
use navsep_core::museum::{museum_navigation, paper_museum};
use navsep_core::spec::contextual_spec;
use navsep_core::{separated_sources, Weave, WeaveCache};
use navsep_hypermodel::AccessStructureKind;
use navsep_web::{NavigationSession, ShardedSiteHandler, ShardedSiteStore, Site};
use navsep_xml::Document;
use std::sync::Arc;

/// `site` served from a one-shard store.
fn serve(site: &Site) -> ShardedSiteHandler {
    ShardedSiteHandler::new(Arc::new(ShardedSiteStore::from_site(1, site)))
}

fn main() {
    let store = paper_museum();
    let nav = museum_navigation();
    let spec = contextual_spec(AccessStructureKind::IndexedGuidedTour);
    let sources = separated_sources(&store, &nav, &spec).expect("authoring");
    // Steady-state weave: compiled specs come from (and prime) the cache,
    // so the table reflects reweave cost, not first-compile cost.
    let cache = WeaveCache::new();
    let cached = Weave {
        cache: Some(&cache),
        ..Weave::default()
    };
    cached.run(&sources).expect("warm-up weave");
    let woven = cached.run(&sources).expect("weaving");
    assert!(cache.hits() >= 3, "steady-state weave must reuse the cache");

    banner("T3.1 — the same node, two contexts, two different 'Next's");
    let mut rows = Vec::new();
    for (entry, entry_label) in [
        ("picasso.html", "via the author"),
        ("cubism.html", "via the movement"),
    ] {
        let mut session = NavigationSession::new(serve(&woven.site));
        session.visit(entry).expect("entry page");
        session.follow("Guitar").expect("index entry to Guitar");
        let context = session.current_context().unwrap_or("-").to_string();
        // Follow the Next link belonging to the active context.
        let next = session
            .current_page()
            .expect("on guitar page")
            .links
            .iter()
            .find(|l| l.rel.as_deref() == Some("next") && l.context.as_deref() == Some(&context))
            .expect("context-scoped Next link")
            .clone();
        session.follow_link(&next).expect("follow Next");
        rows.push(vec![
            entry_label.to_string(),
            context,
            "guitar.html".to_string(),
            session.current_path().unwrap_or("-").to_string(),
        ]);
    }
    print_table(&["arrival", "active context", "at", "Next leads to"], &rows);
    println!(
        "\n§2: \"if we got the information navigating through the author … we will\n\
         move to the next painting by the same author. However, if we got the\n\
         painting through a pictorial movement, the result … will be different.\""
    );

    banner("T3.2 — scrolling links are not navigation");
    let mut site = Site::new();
    site.put_page(
        "results-1.html",
        Document::parse(
            r#"<html><head><title>Search results</title></head><body>
  <p>Results 1-10 for "picasso"</p>
  <a href="guitar.html" data-context="search:picasso">Guitar</a>
  <a href="results-2.html">More results</a>
</body></html>"#,
        )
        .expect("page"),
    );
    site.put_page(
        "results-2.html",
        Document::parse(
            r#"<html><head><title>Search results 2</title></head><body>
  <p>Results 11-20</p>
</body></html>"#,
        )
        .expect("page"),
    );
    let mut session = NavigationSession::new(serve(&site));
    session.visit("results-1.html").expect("visit");
    let before = session.current_context().map(str::to_string);
    session.follow("More results").expect("scroll");
    let after = session.current_context().map(str::to_string);
    print_table(
        &[
            "action",
            "context before",
            "context after",
            "moved info space?",
        ],
        &[vec![
            "follow 'More results'".into(),
            format!("{before:?}"),
            format!("{after:?}"),
            "no — scrolling".into(),
        ]],
    );
    println!(
        "\n§2: \"We do not think that we are navigating when we push on one of\n\
         these specific links … These links are just a way to do scrolling.\""
    );
}
