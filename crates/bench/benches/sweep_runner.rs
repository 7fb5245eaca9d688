//! The sweep runner end-to-end: spec-string resolution through both
//! registries plus the parallel `run_sweep` over each deployment
//! scenario, at smoke scale.
//!
//! The measured repeat-sample statistics (samples / median / stddev)
//! land in `BENCH_sweep.json` at the workspace root, one row per
//! scenario; the committed copy is the CI `bench-gate` baseline.
//!
//! Run with: `cargo bench -p sp-bench --bench sweep_runner`

use sp_bench::{sample_stats, write_artifact, MEDIAN_UNIT};
use sp_experiments::SweepSpec;

/// One smoke sweep per scenario: 2 node counts × 4 networks, the
/// paper's four schemes (the CI spec run uses the corridor row).
const SPECS: [(&str, &str); 3] = [
    ("IA", "scenario=IA;nodes=400,600;nets=4;schemes=PAPER"),
    (
        "corridor",
        "scenario=corridor;nodes=400,600;nets=4;schemes=PAPER",
    ),
    (
        "clustered",
        "scenario=clustered;nodes=400,600;nets=4;schemes=PAPER",
    ),
];

fn main() {
    let mut rows = Vec::new();
    for (tag, spec_str) in SPECS {
        let spec = SweepSpec::parse(spec_str).expect("bench specs parse");
        let results = spec.run();
        let routes: u64 = results
            .points
            .iter()
            .flat_map(|p| p.schemes.iter().map(|s| s.quality.routes))
            .sum();
        assert!(routes > 0, "{tag}: sweep produced no routes");

        let sweep_s = sample_stats(5, || spec.run());
        // The front end itself must stay out of the noise floor.
        let parse_s = sample_stats(64, || SweepSpec::parse(spec_str).unwrap());
        eprintln!(
            "{tag}: sweep {:.1} ms ({routes} routes) | parse {:.3} ms",
            sweep_s.median * 1e3,
            parse_s.median * 1e3
        );
        rows.push(format!(
            "    {{\"scenario\": \"{}\", \"routes\": {}, {}, {}}}",
            tag,
            routes,
            sweep_s.json_fields("sweep"),
            parse_s.json_fields("parse")
        ));
    }
    write_artifact("BENCH_sweep.json", "sweep_runner", MEDIAN_UNIT, &rows);
}
