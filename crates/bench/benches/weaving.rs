//! T2: the cost of the separation — full-pipeline weaving throughput versus
//! the tangled generator, as the site grows.
//!
//! The paper delegates composition to "the AOP mechanisms" without costing
//! it; this bench supplies the missing numbers. Expected shape: weaving is
//! a constant factor over tangled generation (it re-does the same page
//! construction plus transform + linkbase work), scaling linearly in pages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use navsep_bench::Setup;
use navsep_core::{tangled_site, weave_separated, Weave, WeaveCache};
use navsep_hypermodel::AccessStructureKind;

fn bench_weave_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("weave_pipeline");
    for n in [10usize, 50, 200] {
        let setup = Setup::scaled(n, AccessStructureKind::IndexedGuidedTour);
        let sources = setup.separated();
        group.throughput(Throughput::Elements(n as u64 + 1)); // pages woven
        group.bench_with_input(BenchmarkId::new("pages", n), &sources, |b, sources| {
            b.iter(|| weave_separated(sources).expect("pipeline").site.len())
        });
    }
    group.finish();
}

fn bench_weave_pipeline_cached(c: &mut Criterion) {
    // Steady state: transform, linkbase, navigation map, and aspects are
    // compiled once (outside the measurement) and reused, so the loop
    // measures transform-apply + weave only — the reweave cost the paper's
    // "change only links.xml" story actually pays.
    let mut group = c.benchmark_group("weave_pipeline_cached");
    for n in [10usize, 50, 200] {
        let setup = Setup::scaled(n, AccessStructureKind::IndexedGuidedTour);
        let sources = setup.separated();
        let cache = WeaveCache::new();
        let cached = Weave {
            cache: Some(&cache),
            ..Weave::default()
        };
        cached.run(&sources).expect("warm-up weave");
        group.throughput(Throughput::Elements(n as u64 + 1));
        group.bench_with_input(BenchmarkId::new("pages", n), &sources, |b, sources| {
            b.iter(|| cached.run(sources).expect("pipeline").site.len())
        });
        // The transform, the expanded linkbase and the compiled weaver
        // each miss exactly once (the warm-up); the loop itself never
        // recompiles.
        assert_eq!(cache.misses(), 3, "steady state must not recompile");
    }
    group.finish();
}

fn bench_tangled_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("tangled_generation");
    for n in [10usize, 50, 200] {
        let setup = Setup::scaled(n, AccessStructureKind::IndexedGuidedTour);
        group.throughput(Throughput::Elements(n as u64 + 1));
        group.bench_with_input(BenchmarkId::new("pages", n), &setup, |b, setup| {
            b.iter(|| {
                tangled_site(&setup.store, &setup.nav, &setup.spec)
                    .expect("tangled")
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_authoring_generation(c: &mut Criterion) {
    // Producing the separated sources themselves (data + links.xml).
    let mut group = c.benchmark_group("separated_authoring");
    for n in [10usize, 50, 200] {
        let setup = Setup::scaled(n, AccessStructureKind::IndexedGuidedTour);
        group.bench_with_input(BenchmarkId::new("pages", n), &setup, |b, setup| {
            b.iter(|| setup.separated().len())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_weave_pipeline,
    bench_weave_pipeline_cached,
    bench_tangled_baseline,
    bench_authoring_generation
);
criterion_main!(benches);
