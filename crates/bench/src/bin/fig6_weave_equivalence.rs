//! Figure 6 regenerator: the separation of the navigational aspect — data,
//! presentation and navigation woven into the final application — verified
//! equivalent to the tangled baseline.

use navsep_bench::{banner, print_table, Setup};
use navsep_core::{assert_site_equivalent, Weave, WeaveCache};
use navsep_hypermodel::AccessStructureKind;

fn main() {
    banner("Figure 6 — separation of the navigational aspect");
    println!(
        r#"
     data (*.xml)          presentation (transform.xml + museum.css)
          \                        /
           base pages (XSLT-lite transform)      navigation (links.xml, XLink)
                     \                                /
                      +------ ASPECT WEAVER ---------+
                                    |
                              web application
"#
    );

    // One cache across all three weaves: the transform compiles once and is
    // reused (steady state); only each access structure's linkbase is new.
    let cache = WeaveCache::new();
    let cached = Weave {
        cache: Some(&cache),
        ..Weave::default()
    };
    for access in [
        AccessStructureKind::Index,
        AccessStructureKind::GuidedTour,
        AccessStructureKind::IndexedGuidedTour,
    ] {
        banner(&format!("Weave with access structure: {access}"));
        let setup = Setup::paper(access);
        let tangled = setup.tangled();
        let sources = setup.separated();
        let woven = cached.run(&sources).expect("pipeline");

        let rows: Vec<Vec<String>> = woven
            .reports
            .iter()
            .map(|r| {
                vec![
                    r.page.clone(),
                    r.join_points.to_string(),
                    r.applications().to_string(),
                ]
            })
            .collect();
        print_table(&["page", "join points", "advice applied"], &rows);

        match assert_site_equivalent(&tangled, &woven.site) {
            Ok(()) => println!("\n✔ woven site is DOM-equivalent to the tangled baseline"),
            Err(diff) => println!("\n✘ MISMATCH: {diff}"),
        }
    }
    println!(
        "\nspec cache: {} compilations, {} reuses (transform compiled once \
         across all three access structures)",
        cache.misses(),
        cache.hits()
    );
}
