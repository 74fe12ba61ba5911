//! End-to-end navigation: woven site, concurrent server, browsing sessions
//! with contexts and history (experiment T3's substrate).

use navsep::core::museum::{museum_navigation, paper_museum};
use navsep::core::spec::{contextual_spec, paper_spec};
use navsep::core::{separated_sources, weave_separated};
use navsep::hypermodel::AccessStructureKind;
use navsep::web::{
    NavigationSession, Request, ServerPool, ShardedSiteHandler, ShardedSiteStore, Site,
};
use std::sync::Arc;

/// `site` served from a one-shard store.
fn serve(site: &Site) -> ShardedSiteHandler {
    ShardedSiteHandler::new(Arc::new(ShardedSiteStore::from_site(1, site)))
}

fn woven_site(two_families: bool) -> Site {
    let store = paper_museum();
    let nav = museum_navigation();
    let spec = if two_families {
        contextual_spec(AccessStructureKind::IndexedGuidedTour)
    } else {
        paper_spec(AccessStructureKind::IndexedGuidedTour)
    };
    weave_separated(&separated_sources(&store, &nav, &spec).unwrap())
        .unwrap()
        .site
}

#[test]
fn full_tour_through_the_woven_site() {
    let mut s = NavigationSession::new(serve(&woven_site(false)));
    s.visit("picasso.html").unwrap();
    s.follow("Guitar").unwrap();
    assert_eq!(s.current_context(), Some("by-painter:picasso"));
    // Walk the guided tour to the end.
    s.follow_rel("next").unwrap();
    assert_eq!(s.current_path(), Some("guernica.html"));
    s.follow_rel("next").unwrap();
    assert_eq!(s.current_path(), Some("avignon.html"));
    // Last member: no next.
    assert!(s.follow_rel("next").is_err());
    // Back to the index from anywhere.
    s.follow_rel("up").unwrap();
    assert_eq!(s.current_path(), Some("picasso.html"));
    // History is intact all the way back.
    s.back().unwrap(); // avignon
    s.back().unwrap(); // guernica
    s.back().unwrap(); // guitar
    s.back().unwrap(); // picasso
    assert_eq!(s.current_path(), Some("picasso.html"));
}

#[test]
fn context_dependent_next_on_the_same_page() {
    let site = woven_site(true);
    // Via the author.
    let mut s = NavigationSession::new(serve(&site));
    s.visit("picasso.html").unwrap();
    s.follow("Guitar").unwrap();
    let ctx = s.current_context().unwrap().to_string();
    assert_eq!(ctx, "by-painter:picasso");
    let next = s
        .current_page()
        .unwrap()
        .links
        .iter()
        .find(|l| l.rel.as_deref() == Some("next") && l.context.as_deref() == Some(&ctx))
        .unwrap()
        .clone();
    s.follow_link(&next).unwrap();
    assert_eq!(s.current_path(), Some("guernica.html"));

    // Via the movement: same page, different Next.
    let mut s = NavigationSession::new(serve(&site));
    s.visit("cubism.html").unwrap();
    s.follow("Guitar").unwrap();
    let ctx = s.current_context().unwrap().to_string();
    assert_eq!(ctx, "by-movement:cubism");
    let next = s
        .current_page()
        .unwrap()
        .links
        .iter()
        .find(|l| l.rel.as_deref() == Some("next") && l.context.as_deref() == Some(&ctx))
        .unwrap()
        .clone();
    s.follow_link(&next).unwrap();
    assert_eq!(s.current_path(), Some("avignon.html"));
}

#[test]
fn guernica_absent_from_movement_context() {
    // Guernica is Surrealism, not Cubism: the cubism index must not list it.
    let site = woven_site(true);
    let mut s = NavigationSession::new(serve(&site));
    s.visit("cubism.html").unwrap();
    let page = s.current_page().unwrap();
    assert!(page.link_by_text("Guitar").is_some());
    assert!(page.link_by_text("Guernica").is_none());
}

#[test]
fn concurrent_sessions_share_one_pool() {
    let handler = Arc::new(serve(&woven_site(false)));
    let pool = ServerPool::start(Arc::clone(&handler), 4);
    // Hammer the pool from several threads while sessions browse.
    let mut threads = Vec::new();
    for _ in 0..4 {
        let handler = Arc::clone(&handler);
        threads.push(std::thread::spawn(move || {
            let mut s = NavigationSession::new(handler);
            s.visit("picasso.html").unwrap();
            s.follow("Guitar").unwrap();
            s.follow_rel("next").unwrap();
            s.current_path().unwrap().to_string()
        }));
    }
    for _ in 0..32 {
        assert!(pool
            .request_sync(Request::get("guitar.html"))
            .status()
            .is_success());
    }
    for t in threads {
        assert_eq!(t.join().unwrap(), "guernica.html");
    }
    pool.shutdown();
    assert!(handler.requests_served() >= 32 + 4 * 3);
}

#[test]
fn republish_switches_access_structure_live() {
    // The separated discipline makes the requirement change a re-weave:
    // a publish swaps the site under the same handler.
    let store = paper_museum();
    let nav = museum_navigation();
    let v1 = weave_separated(
        &separated_sources(&store, &nav, &paper_spec(AccessStructureKind::Index)).unwrap(),
    )
    .unwrap()
    .site;
    let v2 = weave_separated(
        &separated_sources(
            &store,
            &nav,
            &paper_spec(AccessStructureKind::IndexedGuidedTour),
        )
        .unwrap(),
    )
    .unwrap()
    .site;

    let handler = Arc::new(serve(&v1));
    let mut s = NavigationSession::new(Arc::clone(&handler));
    s.visit("guitar.html").unwrap();
    assert!(s.follow_rel("next").is_err(), "v1 is Index-only");

    handler.store().publish_incremental(&v2);
    s.visit("guitar.html").unwrap();
    s.follow_rel("next").unwrap();
    assert_eq!(s.current_path(), Some("guernica.html"));
}
