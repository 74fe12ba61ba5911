//! The names the benchmark reports, with units, and for each per-layer
//! metric the end-to-end metric and workload it should move.

/// The workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "serve_zipf",
        "read-only zipf(1.1) GET/HEAD over all pages: wire, event loop, pool hop, handler and \
         store.get do the work, the weave none",
    ),
    (
        "author_edits",
        "closed-loop author, no readers: 1-page edits, css edits and the Index<->IGT links.xml \
         swap; the publish pipeline does the work",
    ),
    (
        "serve_during_churn",
        "zipf readers, half back-button replays, while the author commits on a 4-epoch ring: \
         writes and reads contend for 2 cores",
    ),
];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("publish_edit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit, moves, on)`.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str); 40] = [
    ("wire.parse_ns", "ns", "read_p50_us", "serve_zipf"),
    ("wire.serialize_ns", "ns", "read_p50_us", "serve_zipf"),
    ("handler.handle_ns", "ns", "read_p50_us", "serve_zipf"),
    ("store.get_ns", "ns", "read_p50_us", "serve_zipf"),
    ("server.hop_us", "us", "read_p50_us", "serve_zipf"),
    ("serve.unattributed_us", "us", "read_p50_us", "serve_zipf"),
    ("store.get_at_ns", "ns", "read_p50_us", "serve_during_churn"),
    ("store.degraded_ratio", "ratio", "read_p50_us", "serve_during_churn"),
    ("listener.requests_served", "count", "read_p50_us", "serve_zipf"),
    ("listener.bad_requests", "count", "read_p50_us", "serve_zipf"),
    ("server.shed", "count", "read_p50_us", "serve_zipf"),
    ("client.lateness_p99_us", "us", "read_p50_us", "serve_zipf"),
    ("client.read_peak_rps", "1/s", "read_p50_us", "serve_zipf"),
    ("client.read_p95_us", "us", "read_p50_us", "serve_during_churn"),
    ("client.read_p99_us", "us", "read_p50_us", "serve_during_churn"),
    ("sources.clone_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("site.clone_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("xlink.resolve_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("xml.content_hash_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("store.publish_incremental_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("style.compile_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("xlink.parse_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("style.transform_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("aspect.weave_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("aspect.compile_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("site.assemble_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("xml.serialize_ms", "ms", "author.spec_p50_ms", "author_edits"),
    ("publish.unattributed_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("publish.overattributed_commits", "count", "publish_edit_p90_ms", "author_edits"),
    ("publisher.commit_ms", "ms", "read_p50_us", "serve_during_churn"),
    ("store.reuse_ratio", "ratio", "publish_edit_p90_ms", "author_edits"),
    ("store.shards_swapped", "count", "publish_edit_p90_ms", "author_edits"),
    ("cache.hit_ratio", "ratio", "author.spec_p50_ms", "author_edits"),
    ("publisher.pages_rewoven", "count", "publish_edit_p90_ms", "author_edits"),
    ("publisher.retries", "count", "publish_edit_p90_ms", "author_edits"),
    ("publisher.commits", "count", "publish_edit_p90_ms", "author_edits"),
    ("author.edit_p50_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("author.spec_p50_ms", "ms", "publish_edit_p90_ms", "author_edits"),
    ("trace.overhead_read_p50_us", "us", "read_p50_us", "serve_zipf"),
    ("trace.overhead_publish_edit_p50_ms", "ms", "publish_edit_p90_ms", "author_edits"),
];

/// The unit of a reported metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// Every `"name": "<x>"` inside the array that follows `"<key>":`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let rest = &json[start..];
        let open = rest.find('[').expect("array");
        let close = rest.find(']').expect("array end");
        rest[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let first = chunk.find('"').expect("value") + 1;
                let len = chunk[first..].find('"').expect("value end");
                chunk[first..first + len].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_reports() {
        let json = benchmark_json();
        let workloads: BTreeSet<String> = names_in(&json, "workloads").into_iter().collect();
        let ours: BTreeSet<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(workloads, ours);
        let e2e: BTreeSet<String> = names_in(&json, "end_to_end").into_iter().collect();
        let ours: BTreeSet<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(e2e, ours);
        let layer: BTreeSet<String> = names_in(&json, "per_layer").into_iter().collect();
        let ours: BTreeSet<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(layer, ours);
    }

    #[test]
    fn every_layer_metric_moves_a_reported_metric_on_a_workload() {
        let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let reported: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).chain(e2e.clone()).collect();
        let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        for (name, _, moves, on) in PER_LAYER {
            assert!(reported.contains(moves), "{name} moves unknown {moves}");
            assert!(workloads.contains(on), "{name} names unknown workload {on}");
        }
        let names: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).chain(e2e).collect();
        assert_eq!(
            names.len(),
            PER_LAYER.len() + END_TO_END.len(),
            "names are unique"
        );
    }

    #[test]
    fn layer_map_file_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let text = std::fs::read_to_string(path).expect("layers.json");
        for (name, _, moves, on) in PER_LAYER {
            let line = text
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("layers.json lacks {name}"));
            assert!(line.contains(moves) && line.contains(on), "{name}: {line}");
        }
        for (name, why) in WORKLOADS {
            assert!(
                text.contains(name) && text.contains(why),
                "layers.json lacks {name}"
            );
        }
    }
}
