//! # navsep-bench — the experiment harness
//!
//! Regenerates **every figure of the paper** and the quantitative tables
//! navsep defines to substantiate its qualitative claims (see `DESIGN.md`
//! §4 and `EXPERIMENTS.md` at the workspace root).
//!
//! Figure regenerators are binaries (`cargo run -p navsep-bench --bin …`):
//!
//! | bin | paper artifact |
//! |-----|----------------|
//! | `fig1_weaver_pipeline` | Fig. 1 — AOP mechanisms |
//! | `fig2_access_structures` | Fig. 2 — Index / Indexed Guided Tour |
//! | `fig3_fig4_tangled_pages` | Figs. 3–4 — the Guitar node, tangled |
//! | `fig5_class_model` | Fig. 5 — implementation classes |
//! | `fig6_weave_equivalence` | Fig. 6 — separation + weaving |
//! | `fig7_9_separated_files` | Figs. 7–9 — `picasso.xml`, `avignon.xml`, `links.xml` |
//! | `t1_change_impact` | Table T1 — cost of the access-structure switch |
//! | `t3_context_navigation` | Table T3 — context-dependent "Next" |
//!
//! Criterion benches (`cargo bench -p navsep-bench`) cover T2 (weaving
//! throughput) and T4 (substrate costs).
//!
//! Beyond the paper's artifacts, `history_workload` drives concurrent
//! navigation sessions through random traversals while a `SitePublisher`
//! reweaves the site, measuring traversal throughput and stale-entry
//! detection (`--smoke` for the CI-sized run).

use navsep_core::museum::{generated_museum, museum_navigation, paper_museum};
use navsep_core::spec::paper_spec;
use navsep_core::{separated_sources, tangled_site, SiteSpec};
use navsep_hypermodel::{AccessStructureKind, InstanceStore, NavigationalSchema};
use navsep_web::Site;
use navsep_xml::{Document, ElementBuilder};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A ready-made experimental setup: a museum plus its spec.
#[derive(Debug)]
pub struct Setup {
    /// The instance store.
    pub store: InstanceStore,
    /// The navigational schema.
    pub nav: NavigationalSchema,
    /// The site spec.
    pub spec: SiteSpec,
}

impl Setup {
    /// The paper's exact corpus under the given access structure.
    pub fn paper(access: AccessStructureKind) -> Self {
        Setup {
            store: paper_museum(),
            nav: museum_navigation(),
            spec: paper_spec(access),
        }
    }

    /// A scaled corpus: one painter with `n` paintings (one context of size
    /// `n`, matching the paper's single-context scenario).
    pub fn scaled(n: usize, access: AccessStructureKind) -> Self {
        Setup {
            store: generated_museum(1, n, 2, 0xC0FFEE),
            nav: museum_navigation(),
            spec: paper_spec(access),
        }
    }

    /// A wide corpus: `painters` contexts of `per` members each.
    pub fn wide(painters: usize, per: usize, access: AccessStructureKind) -> Self {
        Setup {
            store: generated_museum(painters, per, 3, 0xC0FFEE),
            nav: museum_navigation(),
            spec: paper_spec(access),
        }
    }

    /// The tangled site for this setup.
    ///
    /// # Panics
    ///
    /// Panics on derivation failure (setups are schema-valid by
    /// construction).
    pub fn tangled(&self) -> Site {
        tangled_site(&self.store, &self.nav, &self.spec).expect("setup is schema-valid")
    }

    /// The separated authoring for this setup.
    ///
    /// # Panics
    ///
    /// Panics on derivation failure.
    pub fn separated(&self) -> Site {
        separated_sources(&self.store, &self.nav, &self.spec).expect("setup is schema-valid")
    }
}

/// Whether `NAVSEP_BENCH_FAST=1` is set (CI smoke mode: fewer rounds, same
/// corpus sizes).
pub fn fast_mode() -> bool {
    std::env::var("NAVSEP_BENCH_FAST").is_ok_and(|v| v == "1")
}

/// `(q1, median, q3)` of `samples` (sorted in place), linearly
/// interpolated between neighbouring ranks.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (samples.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        samples[lo] + (samples[hi] - samples[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// One giant museum *page*: `rooms` rooms of `paintings_per_room` paintings,
/// each painting carrying four leaf children — `rooms * (1 + 5 *
/// paintings_per_room) + 1` elements. `museum_page(400, 50)` is the ~100k
/// element document the compiled-weave scale benches run on.
///
/// The attribute population is deliberately index-shaped: every element has
/// an `id`, every tenth room is `name="cubism"`, every seventh painting is
/// `class="star"` — so id buckets, name buckets, tag buckets, and unbucketed
/// predicates all have work to do.
pub fn museum_page(rooms: usize, paintings_per_room: usize) -> Document {
    let mut museum = ElementBuilder::new("museum").attr("id", "m0");
    for r in 0..rooms {
        let mut room = ElementBuilder::new("room")
            .attr("id", format!("room-{r}"))
            .attr("name", if r % 10 == 0 { "cubism" } else { "baroque" });
        for p in 0..paintings_per_room {
            let mut painting = ElementBuilder::new("painting").attr("id", format!("p-{r}-{p}"));
            if p % 7 == 0 {
                painting = painting.attr("class", "star");
            }
            room = room.child(
                painting
                    .child(ElementBuilder::new("title").text(format!("Painting {r}.{p}")))
                    .child(ElementBuilder::new("artist").text(format!("Painter {}", r % 23)))
                    .child(ElementBuilder::new("year").text(format!("{}", 1800 + (r + p) % 200)))
                    .child(ElementBuilder::new("medium").text("oil on canvas")),
            );
        }
        museum = museum.child(room);
    }
    museum.build_document()
}

/// Where scale benches record their headline numbers.
pub fn bench_json_path() -> PathBuf {
    manifest_dir(std::env::var_os("CARGO_MANIFEST_DIR")).join("../../BENCH_weave.json")
}

/// Where the traffic fleet records its per-scenario serving numbers.
pub fn traffic_json_path() -> PathBuf {
    manifest_dir(std::env::var_os("CARGO_MANIFEST_DIR")).join("../../BENCH_traffic.json")
}

/// This package's directory: `runtime`, the `CARGO_MANIFEST_DIR` cargo
/// sets for the bench, test or `cargo run` process, else the directory the
/// package was compiled in. Resolving it at run time keeps a copy of the
/// checkout, whose up-to-date bench binaries cargo may reuse from a copied
/// `target/`, from writing into the original checkout's files.
fn manifest_dir(runtime: Option<std::ffi::OsString>) -> PathBuf {
    runtime.map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Records one named section (a JSON object literal) into
/// `BENCH_weave.json`, preserving every other section. The file keeps one
/// section per line so different benches can merge their results without a
/// JSON parser.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn record_bench_section(section: &str, json_object: &str) {
    record_bench_section_in(&bench_json_path(), section, json_object);
}

/// [`record_bench_section`] against an arbitrary merge-file path (e.g.
/// [`traffic_json_path`]) — same one-section-per-line format.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn record_bench_section_in(path: &std::path::Path, section: &str, json_object: &str) {
    let existing = std::fs::read_to_string(path).ok();
    let merged = merge_bench_sections(existing.as_deref(), section, json_object);
    std::fs::write(path, merged).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Pure merge behind [`record_bench_section`]: replaces (or appends) one
/// section of the one-section-per-line JSON document.
pub fn merge_bench_sections(existing: Option<&str>, section: &str, json_object: &str) -> String {
    let mut sections: BTreeMap<String, String> = BTreeMap::new();
    if let Some(text) = existing {
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if line == "{" || line == "}" || line.is_empty() {
                continue;
            }
            if let Some((key, value)) = line.split_once(':') {
                sections.insert(
                    key.trim().trim_matches('"').to_string(),
                    value.trim().to_string(),
                );
            }
        }
    }
    sections.insert(section.to_string(), json_object.trim().to_string());
    let mut out = String::from("{\n");
    let last = sections.len().saturating_sub(1);
    for (i, (key, value)) in sections.iter().enumerate() {
        out.push_str(&format!(
            "  \"{key}\": {value}{}\n",
            if i == last { "" } else { "," }
        ));
    }
    out.push('}');
    out.push('\n');
    out
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_files_resolve_against_the_running_checkout() {
        let copy = std::path::Path::new("/elsewhere/checkout/crates/bench");
        assert_eq!(manifest_dir(Some(copy.into())), copy);
        assert_eq!(
            manifest_dir(None),
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        );
        // Under cargo the process sees its own package directory.
        assert_eq!(
            bench_json_path(),
            manifest_dir(std::env::var_os("CARGO_MANIFEST_DIR")).join("../../BENCH_weave.json")
        );
        assert!(traffic_json_path().ends_with("../../BENCH_traffic.json"));
    }

    #[test]
    fn setups_build() {
        let p = Setup::paper(AccessStructureKind::Index);
        assert_eq!(p.tangled().len(), 7);
        let s = Setup::scaled(5, AccessStructureKind::IndexedGuidedTour);
        // 5 paintings + 1 painter + css.
        assert_eq!(s.tangled().len(), 7);
        assert!(s.separated().len() >= 8); // data + links + transform + css
    }

    #[test]
    fn wide_setup_scales_pages() {
        let s = Setup::wide(3, 4, AccessStructureKind::Index);
        // 12 paintings + 3 painters + css.
        assert_eq!(s.tangled().len(), 16);
    }

    #[test]
    fn museum_page_element_count_matches_formula() {
        let doc = museum_page(4, 3);
        assert_eq!(doc.index().element_count(), 4 * (1 + 5 * 3) + 1);
        // The scale corpus really is ~100k elements.
        assert_eq!(400 * (1 + 5 * 50) + 1, 100_401);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&mut [7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&mut [4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&mut [4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
    }

    #[test]
    fn bench_sections_merge_and_replace() {
        let first = merge_bench_sections(None, "weave", r#"{"speedup": 7.0}"#);
        assert_eq!(first, "{\n  \"weave\": {\"speedup\": 7.0}\n}\n");
        let second = merge_bench_sections(Some(&first), "xpointer", r#"{"speedup": 9.0}"#);
        assert!(second.contains("\"weave\": {\"speedup\": 7.0},"));
        assert!(second.contains("\"xpointer\": {\"speedup\": 9.0}"));
        let replaced = merge_bench_sections(Some(&second), "weave", r#"{"speedup": 8.5}"#);
        assert!(replaced.contains("\"weave\": {\"speedup\": 8.5},"));
        assert!(replaced.contains("\"xpointer\": {\"speedup\": 9.0}"));
        assert!(!replaced.contains("7.0"));
    }
}
