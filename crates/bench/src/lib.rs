//! Benchmark-only crate: see the `benches/` directory. Each bench
//! writes one `BENCH_*.json` artifact at the repository root, which the
//! CI `bench-gate` job compares against its committed baseline;
//! `repro-figures` (in `sp-experiments`) produces the paper's figures.
//!
//! The library part holds the shared wall-clock sampling helper every
//! `BENCH_*.json` writer uses, so all baselines carry the same
//! `samples` / median / stddev statistics the CI `bench-gate` binary
//! compares, and the JSON rendering of per-event latency percentiles
//! read from the workspace's one estimator, [`LatencyHistogram`].

use sp_sync::LatencyHistogram;
use std::hint::black_box;
use std::time::Instant;

/// Repeat-sample wall-clock statistics of one measured routine, in
/// seconds. This is what every `BENCH_*.json` row records: the gate
/// compares `median`, while `stddev` documents the noise floor the
/// tolerance has to absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of timed runs collected (including rejected outliers).
    pub samples: usize,
    /// Runs discarded by the stub's Tukey IQR fence before the median,
    /// mean, and stddev were computed.
    pub outliers_rejected: usize,
    /// Median seconds across retained runs.
    pub median: f64,
    /// Mean seconds across retained runs.
    pub mean: f64,
    /// Sample standard deviation across retained runs (0 for fewer
    /// than 2).
    pub stddev: f64,
}

impl SampleStats {
    /// Summarizes raw per-run seconds. Delegates to the vendored
    /// criterion stub's [`criterion::Estimate`] so the workspace has
    /// exactly one median/stddev/outlier-rejection implementation
    /// behind every `BENCH_*.json` artifact the gate compares.
    pub fn of(samples: &[f64]) -> SampleStats {
        let e = criterion::Estimate::from_samples(String::new(), samples);
        SampleStats {
            samples: e.samples,
            outliers_rejected: e.outliers_rejected,
            median: e.median_ns,
            mean: e.mean_ns,
            stddev: e.stddev_ns,
        }
    }

    /// The `"<prefix>_samples": n, "<prefix>_outliers_rejected": k,
    /// "<prefix>_seconds": median, "<prefix>_stddev": stddev` JSON
    /// fragment every bench row embeds for one timed quantity — sample
    /// counts are per metric, so a row mixing differently-sampled
    /// measurements stays self-describing.
    pub fn json_fields(&self, prefix: &str) -> String {
        format!(
            "\"{prefix}_samples\": {}, \"{prefix}_outliers_rejected\": {}, \"{prefix}_seconds\": {:.6}, \"{prefix}_stddev\": {:.6}",
            self.samples, self.outliers_rejected, self.median, self.stddev
        )
    }
}

/// The `"<prefix>_latency_count": n, "<prefix>_p50_seconds": …,
/// "<prefix>_p95_seconds": …, "<prefix>_p99_seconds": …` JSON fragment
/// for one latency population — what the `service_latency` bench
/// records for per-query serving latency. Unlike [`SampleStats`]
/// (repeat-samples of one routine, gated on the median), the histogram
/// counts *every* event in a sustained stream, so the p95/p99 capture
/// the tail a median hides. The `*_p50/p95/p99_seconds` keys are gated
/// by `ci/bench_gate` like every other `*_seconds` metric, with the
/// tighter `--latency-slack` absolute floor (percentiles live at
/// microsecond scale, far below the wall-clock slack). Nine decimals
/// keep nanosecond resolution in the artifact.
pub fn latency_json_fields(prefix: &str, latency: &LatencyHistogram) -> String {
    let secs = |q| latency.quantile(q).as_secs_f64();
    format!(
        "\"{prefix}_latency_count\": {}, \"{prefix}_p50_seconds\": {:.9}, \"{prefix}_p95_seconds\": {:.9}, \"{prefix}_p99_seconds\": {:.9}",
        latency.count(),
        secs(0.50),
        secs(0.95),
        secs(0.99)
    )
}

/// The `"<prefix>csr_bytes_per_node": …, "<prefix>total_bytes_per_node": …`
/// JSON fragment for one [`sp_net::TopologyFootprint`] — the memory
/// estimator rows in `BENCH_construction.json` / `BENCH_distributed.json`
/// embed. The `*_bytes_per_node` keys are gated by `ci/bench_gate`
/// exactly like the `*_seconds` medians (memory regressions fail CI the
/// same way time regressions do).
pub fn memory_json_fields(prefix: &str, f: &sp_net::TopologyFootprint) -> String {
    format!(
        "\"{prefix}csr_bytes_per_node\": {:.1}, \"{prefix}total_bytes_per_node\": {:.1}",
        f.adjacency_bytes_per_node(),
        f.bytes_per_node()
    )
}

/// Times `runs` executions of `f` and summarizes them.
pub fn sample_stats<R>(runs: usize, mut f: impl FnMut() -> R) -> SampleStats {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    SampleStats::of(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computation() {
        let s = SampleStats::of(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mean, 2.5);
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sample_counts() {
        assert_eq!(SampleStats::of(&[]).median, 0.0);
        let one = SampleStats::of(&[7.0]);
        assert_eq!((one.samples, one.median, one.stddev), (1, 7.0, 0.0));
    }

    #[test]
    fn json_fields_render_count_outliers_median_and_spread() {
        let s = SampleStats::of(&[0.5, 0.5]);
        assert_eq!(
            s.json_fields("sweep"),
            "\"sweep_samples\": 2, \"sweep_outliers_rejected\": 0, \"sweep_seconds\": 0.500000, \"sweep_stddev\": 0.000000"
        );
    }

    #[test]
    fn outlier_rejection_passes_through_from_the_stub() {
        let s = SampleStats::of(&[0.1, 0.11, 0.09, 0.105, 0.095, 9.0]);
        assert_eq!(s.samples, 6);
        assert_eq!(s.outliers_rejected, 1);
        assert!((s.median - 0.1).abs() < 1e-12);
    }

    #[test]
    fn memory_fields_render_per_node_ratios() {
        let cfg = sp_net::deploy::DeploymentConfig::paper_default(200);
        let net = sp_net::Network::from_positions(cfg.deploy_uniform(5), cfg.radius, cfg.area);
        let s = memory_json_fields("mem_", &net.memory_footprint());
        assert!(s.contains("\"mem_csr_bytes_per_node\": "), "{s}");
        assert!(s.contains("\"mem_total_bytes_per_node\": "), "{s}");
    }

    #[test]
    fn latency_json_fields_carry_nanosecond_resolution() {
        let mut l = LatencyHistogram::new();
        for us in [2, 1, 3, 4] {
            l.record(std::time::Duration::from_micros(us));
        }
        // Each percentile reads its bucket's upper edge: 2,000 ns sits
        // in a bucket 8 ns wide, 4,000 ns in one 16 ns wide.
        assert_eq!(
            latency_json_fields("query", &l),
            "\"query_latency_count\": 4, \"query_p50_seconds\": 0.000002007, \
             \"query_p95_seconds\": 0.000004015, \"query_p99_seconds\": 0.000004015"
        );
    }

    #[test]
    fn sample_stats_times_the_routine() {
        let s = sample_stats(5, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(s.samples, 5);
        assert!(s.median >= 0.001);
    }
}
