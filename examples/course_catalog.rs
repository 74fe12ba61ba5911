//! The separation applied to a different domain: a course catalog.
//!
//! Run with `cargo run --example course_catalog`.
//!
//! Nothing in navsep is museum-specific: here lessons are grouped into
//! courses (a Guided Tour — lessons are meant to be taken in order) and into
//! difficulty levels (an Index). The same linkbase discipline, weaver and
//! session machinery apply unchanged.

use navsep::core::spec::{FamilySpec, SiteSpec};
use navsep::core::{separated_sources_with, weave_separated};
use navsep::hypermodel::{
    AccessStructureKind, Cardinality, ConceptualSchema, InstanceStore, NavigationalSchema,
};
use navsep::style::to_display_text;
use navsep::web::{NavigationSession, ShardedSiteHandler, ShardedSiteStore};
use std::error::Error;
use std::sync::Arc;

const CATALOG_TRANSFORM: &str = r#"<transform>
  <template match="lesson">
    <html>
      <head>
        <title><value-of select="title"/></title>
        <link rel="stylesheet" type="text/css" href="museum.css"/>
      </head>
      <body class="lesson">
        <h1><value-of select="title"/></h1>
        <dl class="facts">
          <if test="minutes"><dt>Minutes</dt><dd><value-of select="minutes"/></dd></if>
        </dl>
      </body>
    </html>
  </template>
  <template match="course">
    <html>
      <head>
        <title><value-of select="name"/></title>
        <link rel="stylesheet" type="text/css" href="museum.css"/>
      </head>
      <body class="index">
        <h1><value-of select="name"/></h1>
        <dl class="facts"/>
      </body>
    </html>
  </template>
  <template match="level">
    <html>
      <head>
        <title><value-of select="name"/></title>
        <link rel="stylesheet" type="text/css" href="museum.css"/>
      </head>
      <body class="index">
        <h1><value-of select="name"/></h1>
        <dl class="facts"/>
      </body>
    </html>
  </template>
</transform>
"#;

fn catalog() -> Result<(InstanceStore, NavigationalSchema), Box<dyn Error>> {
    let schema = ConceptualSchema::new()
        .class("Course", &["name"])
        .class("Level", &["name"])
        .class("Lesson", &["title", "minutes"])
        .relationship("teaches", "Course", "Lesson", Cardinality::Many)
        .relationship("rated", "Level", "Lesson", Cardinality::Many);
    let mut store = InstanceStore::new(schema);
    store.create("rust-101", "Course", &[("name", "Rust 101")])?;
    store.create("easy", "Level", &[("name", "Beginner friendly")])?;
    store.create(
        "ownership",
        "Lesson",
        &[("title", "Ownership"), ("minutes", "25")],
    )?;
    store.create(
        "borrowing",
        "Lesson",
        &[("title", "Borrowing"), ("minutes", "30")],
    )?;
    store.create(
        "lifetimes",
        "Lesson",
        &[("title", "Lifetimes"), ("minutes", "40")],
    )?;
    store.link("teaches", "rust-101", "ownership")?;
    store.link("teaches", "rust-101", "borrowing")?;
    store.link("teaches", "rust-101", "lifetimes")?;
    store.link("rated", "easy", "ownership")?;
    store.link("rated", "easy", "borrowing")?;
    let nav = NavigationalSchema::new()
        .node_class("LessonNode", "Lesson", "title", &["title", "minutes"])
        .node_class("CourseNode", "Course", "name", &["name"])
        .node_class("LevelNode", "Level", "name", &["name"]);
    Ok((store, nav))
}

fn main() -> Result<(), Box<dyn Error>> {
    let (store, nav) = catalog()?;
    let spec = SiteSpec {
        families: vec![
            FamilySpec {
                name: "by-course".into(),
                group_class: "Course".into(),
                group_title_attribute: "name".into(),
                group_node_class: "CourseNode".into(),
                relationship: "teaches".into(),
                member_node_class: "LessonNode".into(),
                access: AccessStructureKind::GuidedTour, // lessons in order
            },
            FamilySpec {
                name: "by-level".into(),
                group_class: "Level".into(),
                group_title_attribute: "name".into(),
                group_node_class: "LevelNode".into(),
                relationship: "rated".into(),
                member_node_class: "LessonNode".into(),
                access: AccessStructureKind::Index, // levels are browsed
            },
        ],
    };

    let sources = separated_sources_with(&store, &nav, &spec, CATALOG_TRANSFORM, "body{}")?;
    println!("separated authoring:");
    for p in sources.paths() {
        println!("  {p}");
    }
    let woven = weave_separated(&sources)?;

    // Take the course tour.
    let store = Arc::new(ShardedSiteStore::from_site(1, &woven.site));
    let mut session = NavigationSession::new(ShardedSiteHandler::new(store));
    session.visit("rust-101.html")?;
    println!(
        "\n--- rust-101.html ---\n{}",
        to_display_text(&session.current_page().unwrap().doc)
    );
    session.follow("Start tour")?;
    let mut tour = vec![session.current_path().unwrap().to_string()];
    while session.follow_rel("next").is_ok() {
        tour.push(session.current_path().unwrap().to_string());
    }
    println!("guided tour order: {}", tour.join(" → "));
    assert_eq!(tour, ["ownership.html", "borrowing.html", "lifetimes.html"]);

    // Browse by level instead: an index, no tour chain.
    session.visit("easy.html")?;
    let page = session.current_page().unwrap();
    println!(
        "\nlevel index lists: {:?}",
        page.links
            .iter()
            .map(|l| l.text.as_str())
            .collect::<Vec<_>>()
    );
    Ok(())
}
