//! Unit-disk-graph construction: the `SpatialIndex` grid path versus
//! the `O(n²)` brute-force reference, at paper scale and beyond.
//!
//! Deployments keep the paper's density (radius 20 m, ~500 nodes per
//! 200 m × 200 m) while the area grows with `n`, so the comparison
//! reflects scaling the *network*, not packing one arena ever denser.
//! The measured repeat-sample statistics (samples / median / stddev)
//! land in `BENCH_construction.json` at the workspace root, including
//! the grid-over-brute-force speedup. The acceptance bar (≥ 5× at
//! n = 10000) is asserted before the file is written. The committed
//! copy is the CI `bench-gate` baseline.
//!
//! Run with: `cargo bench -p sp-bench --bench grid_vs_bruteforce`

use sp_bench::{memory_json_fields, sample_stats, write_artifact, MEDIAN_UNIT};
use sp_net::{DeploymentConfig, Network};

const SIZES: [usize; 3] = [500, 2000, 10_000];

/// The acceptance bar: at n = 10000 the grid path must beat brute
/// force at least this many times over.
const MIN_SPEEDUP_AT_10K: f64 = 5.0;

fn main() {
    let mut rows = Vec::new();
    for n in SIZES {
        let cfg = DeploymentConfig::paper_density(n);
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
    }
    write_artifact(
        "BENCH_construction.json",
        "grid_vs_bruteforce",
        MEDIAN_UNIT,
        &rows,
    );
}
