//! The museum walkthrough: the paper's §2 scenario, live.
//!
//! Run with `cargo run --example museum_tour`.
//!
//! Builds the two-context museum (by painter *and* by pictorial movement),
//! serves the woven site from a concurrent worker pool, and walks two
//! sessions to the same painting — showing that "Next" depends on how you
//! got there.

use navsep::core::museum::{museum_navigation, paper_museum};
use navsep::core::spec::contextual_spec;
use navsep::core::{separated_sources, weave_separated};
use navsep::hypermodel::AccessStructureKind;
use navsep::style::to_display_text;
use navsep::web::{NavigationSession, Request, ServerPool, ShardedSiteHandler, ShardedSiteStore};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let store = paper_museum();
    let nav = museum_navigation();
    let spec = contextual_spec(AccessStructureKind::IndexedGuidedTour);
    let woven = weave_separated(&separated_sources(&store, &nav, &spec)?)?;

    // Serve the site from a 4-worker pool (the web tier of 2002, simulated).
    let store = Arc::new(ShardedSiteStore::from_site(1, &woven.site));
    let handler = Arc::new(ShardedSiteHandler::new(store));
    let pool = ServerPool::start(Arc::clone(&handler), 4);
    let ok = pool.request_sync(Request::get("picasso.html"));
    println!("server warm-up: GET /picasso.html → {}", ok.status());

    // Session 1: arrive at Guitar through the author.
    println!("\n=== session 1: via the author ===");
    let mut s1 = NavigationSession::new(Arc::clone(&handler));
    s1.visit("picasso.html")?;
    println!("{}\n", to_display_text(&s1.current_page().unwrap().doc));
    s1.follow("Guitar")?;
    println!("entered context: {:?}", s1.current_context());
    let next = contextual_next(&s1);
    println!("Next from guitar.html goes to … {next}");

    // Session 2: arrive at the same painting through the movement.
    println!("\n=== session 2: via the movement ===");
    let mut s2 = NavigationSession::new(Arc::clone(&handler));
    s2.visit("cubism.html")?;
    s2.follow("Guitar")?;
    println!("entered context: {:?}", s2.current_context());
    let next = contextual_next(&s2);
    println!("Next from guitar.html goes to … {next}");

    println!(
        "\nSame page, different contexts, different Next — the paper's §2,\n\
         reproduced on a woven site whose links all live in links.xml."
    );
    println!(
        "\nrequests served by the pool+handler: {}",
        handler.requests_served()
    );
    pool.shutdown();
    Ok(())
}

/// The href of the Next link belonging to the session's active context.
fn contextual_next<H: navsep::web::Handler>(session: &NavigationSession<H>) -> String {
    let ctx = session.current_context().unwrap_or_default().to_string();
    session
        .current_page()
        .expect("session has a page")
        .links
        .iter()
        .find(|l| l.rel.as_deref() == Some("next") && l.context.as_deref() == Some(ctx.as_str()))
        .map(|l| l.href.clone())
        .unwrap_or_else(|| "(no next in this context)".to_string())
}
