//! Scrolling vs navigating — the paper's §2 distinction, plus a custom
//! aspect composed with navigation.
//!
//! Run with `cargo run --example search_scrolling`.
//!
//! A search-results page has two kinds of links: result links that *enter an
//! information space* (navigation — they carry a context) and "More results"
//! links that merely scroll. The example also weaves an extra `audit` aspect
//! into the museum to show the weaver composes arbitrary concerns, not just
//! navigation.

use navsep::aspect::{AdvicePosition, Aspect, Pointcut};
use navsep::core::museum::{museum_navigation, paper_museum};
use navsep::core::spec::paper_spec;
use navsep::core::{separated_sources, Weave};
use navsep::hypermodel::AccessStructureKind;
use navsep::web::{NavigationSession, ShardedSiteHandler, ShardedSiteStore, Site};
use navsep::xml::{Document, ElementBuilder};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // --- part 1: the google-style results page of §2 -------------------
    let mut site = Site::new();
    site.put_page(
        "results-1.html",
        Document::parse(
            r#"<html><head><title>Results for "picasso"</title></head><body>
  <h1>Results 1-2 of 4</h1>
  <ul>
    <li><a href="guitar.html" data-context="search:picasso">Guitar</a></li>
    <li><a href="guernica.html" data-context="search:picasso">Guernica</a></li>
  </ul>
  <a href="results-2.html" rel="scroll">More results</a>
</body></html>"#,
        )?,
    );
    site.put_page(
        "results-2.html",
        Document::parse(
            r#"<html><head><title>Results page 2</title></head><body>
  <h1>Results 3-4 of 4</h1>
  <a href="results-1.html" rel="scroll">Previous results</a>
</body></html>"#,
        )?,
    );
    site.put_page(
        "guitar.html",
        Document::parse(
            r#"<html><head><title>Guitar</title></head><body><h1>Guitar</h1></body></html>"#,
        )?,
    );
    site.put_page(
        "guernica.html",
        Document::parse(
            r#"<html><head><title>Guernica</title></head><body><h1>Guernica</h1></body></html>"#,
        )?,
    );

    let store = Arc::new(ShardedSiteStore::from_site(1, &site));
    let mut session = NavigationSession::new(ShardedSiteHandler::new(store));
    session.visit("results-1.html")?;
    println!(
        "on {:?}, context = {:?}",
        session.current_path(),
        session.current_context()
    );

    session.follow("More results")?;
    println!(
        "followed 'More results' → {:?}, context = {:?}  (scrolling: no context change)",
        session.current_path(),
        session.current_context()
    );
    session.back()?;
    session.follow("Guitar")?;
    println!(
        "followed 'Guitar'      → {:?}, context = {:?}  (navigation: entered a space)",
        session.current_path(),
        session.current_context()
    );

    // --- part 2: navigation is just one aspect among others -------------
    let store = paper_museum();
    let nav = museum_navigation();
    let sources = separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index))?;
    let audit = Aspect::new("audit").with_precedence(100).rule(
        Pointcut::parse(r#"element("body")"#)?,
        AdvicePosition::Append,
        vec![ElementBuilder::new("small")
            .attr("class", "audit")
            .text("woven by navsep")],
    );
    let woven = Weave {
        aspects: &[audit],
        ..Weave::default()
    }
    .run(&sources)?;
    let guitar = woven.site.get("guitar.html").unwrap().document().unwrap();
    let xml = guitar.to_pretty_xml();
    println!("\n--- guitar.html with navigation + audit aspects woven ---");
    println!("{xml}");
    assert!(xml.contains("woven by navsep"));
    Ok(())
}
