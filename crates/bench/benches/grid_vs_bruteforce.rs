//! Unit-disk-graph construction: the `SpatialIndex` grid path versus
//! the `O(n²)` brute-force reference, at paper scale and beyond.
//!
//! Deployments keep the paper's density (radius 20 m, ~500 nodes per
//! 200 m × 200 m) while the area grows with `n`, so the comparison
//! reflects scaling the *network*, not packing one arena ever denser.
//! Besides the criterion output, the measured repeat-sample statistics
//! (samples / median / stddev, ROADMAP "criterion stub fidelity") land
//! in `BENCH_construction.json` at the workspace root, including the
//! grid-over-brute-force speedup. The acceptance bar (≥ 5× at
//! n = 10000) is asserted before the file is written. The committed
//! copy is the CI `bench-gate` baseline.
//!
//! Run with: `cargo bench -p sp-bench --bench grid_vs_bruteforce`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_bench::{memory_json_fields, sample_stats};
use sp_net::{DeploymentConfig, Network};

const SIZES: [usize; 3] = [500, 2000, 10_000];

/// The acceptance bar: at n = 10000 the grid path must beat brute
/// force at least this many times over.
const MIN_SPEEDUP_AT_10K: f64 = 5.0;

/// The paper's density at scale `n` (area grows with the node count).
fn deployment(n: usize) -> DeploymentConfig {
    DeploymentConfig::paper_density(n)
}

fn construction_benches(c: &mut Criterion) {
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("construction");
    for n in SIZES {
        let cfg = deployment(n);
        let positions = cfg.deploy_uniform(7);

        // Sanity: both paths must produce the identical graph.
        let grid = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
        let brute = Network::from_positions_brute_force(positions.clone(), cfg.radius, cfg.area);
        assert_eq!(
            grid.edge_count(),
            brute.edge_count(),
            "paths diverge at n={n}"
        );

        let runs = if n >= 10_000 { 5 } else { 7 };
        let grid_s = sample_stats(runs, || {
            Network::from_positions(positions.clone(), cfg.radius, cfg.area)
        });
        let brute_s = sample_stats(runs, || {
            Network::from_positions_brute_force(positions.clone(), cfg.radius, cfg.area)
        });
        let speedup = brute_s.median / grid_s.median;
        assert!(
            n != 10_000 || speedup >= MIN_SPEEDUP_AT_10K,
            "grid speedup {speedup:.2}x at n={n} is under the {MIN_SPEEDUP_AT_10K}x acceptance bar"
        );
        let footprint = grid.memory_footprint();
        eprintln!(
            "n={n}: grid {:.3} ms | brute {:.3} ms | speedup {speedup:.1}x | {:.1} B/node CSR",
            grid_s.median * 1e3,
            brute_s.median * 1e3,
            footprint.adjacency_bytes_per_node()
        );
        rows.push(format!(
            "    {{\"n\": {}, \"edges\": {}, {}, {}, \"speedup\": {:.2}, {}}}",
            n,
            grid.edge_count(),
            grid_s.json_fields("grid"),
            brute_s.json_fields("bruteforce"),
            speedup,
            memory_json_fields("", &footprint)
        ));

        // Criterion lines for the same comparison (its own timing loop).
        group.bench_function(BenchmarkId::new("grid", n), |b| {
            b.iter(|| Network::from_positions(positions.clone(), cfg.radius, cfg.area));
        });
        if n <= 2000 {
            group.bench_function(BenchmarkId::new("bruteforce", n), |b| {
                b.iter(|| {
                    Network::from_positions_brute_force(positions.clone(), cfg.radius, cfg.area)
                });
            });
        }
    }
    group.finish();

    let json = format!(
        "{{\n  \"benchmark\": \"grid_vs_bruteforce\",\n  \"unit\": \"seconds (median over samples)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_construction.json");
    std::fs::write(out, &json).expect("write BENCH_construction.json");
    eprintln!("wrote {out}");
}

criterion_group!(benches, construction_benches);
criterion_main!(benches);
