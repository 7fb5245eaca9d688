//! Benchmark-only crate: see the `benches/` directory. Each bench
//! writes one `BENCH_*.json` artifact at the repository root, which the
//! CI `bench-gate` job compares against its committed baseline;
//! `repro-figures` (in `sp-experiments`) produces the paper's figures.
//!
//! This library is the workspace's one bench harness. Every bench is a
//! plain `fn main` that times each gated routine once, through
//! [`sample_stats`] or [`SampleStats::of`] over samples it took itself,
//! so all baselines carry the same `samples` / median / stddev
//! statistics the CI `bench-gate` binary compares. It also holds the
//! one artifact writer ([`write_artifact`]), the one
//! `SP_BENCH_SCALE=large` switch ([`large_scale`]) and the JSON
//! rendering of per-event latency percentiles read from the
//! workspace's one estimator, [`LatencyHistogram`].

use sp_sync::LatencyHistogram;
use std::hint::black_box;
use std::time::Instant;

/// The `unit` string of every artifact whose rows are repeat-sample
/// medians (all but `service_latency`'s, which adds its percentiles).
pub const MEDIAN_UNIT: &str = "seconds (median over samples)";

/// Repeat-sample wall-clock statistics of one measured routine, in
/// seconds. This is what every `BENCH_*.json` row records: the gate
/// compares `median`, while `stddev` documents the noise floor the
/// tolerance has to absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of timed runs collected (including rejected outliers).
    pub samples: usize,
    /// Runs discarded by the Tukey IQR fence before the median, mean,
    /// and stddev were computed.
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
    /// Summarizes raw per-run seconds.
    ///
    /// With four or more samples, Tukey's rule rejects samples outside
    /// `[Q1 - 1.5·IQR, Q3 + 1.5·IQR]` (quartiles by linear
    /// interpolation over the sorted samples) before the median, mean,
    /// and stddev are computed, so a single scheduler hiccup does not
    /// drag the reported spread. The rejection is strictly spike-scale:
    /// when the fence would discard more than `max(1, n/10)` samples (a
    /// wide or timer-quantized distribution, not a hiccup), nothing is
    /// rejected, and neither is anything when the IQR is zero. An
    /// even-length median averages the two middle samples.
    pub fn of(samples: &[f64]) -> SampleStats {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let collected = sorted.len();
        if collected >= 4 {
            let q1 = interpolated_quantile(&sorted, 0.25);
            let q3 = interpolated_quantile(&sorted, 0.75);
            let fence = 1.5 * (q3 - q1);
            // A zero IQR (timer-quantized or constant samples) would
            // reject everything that differs by even 1 ns — keep the
            // fence only when there is an actual interquartile spread,
            // and only when what it cuts is spike-sized.
            if fence > 0.0 {
                let inside = |s: &f64| *s >= q1 - fence && *s <= q3 + fence;
                let kept = sorted.iter().filter(|s| inside(s)).count();
                if collected - kept <= (collected / 10).max(1) {
                    sorted.retain(inside);
                }
            }
        }
        let n = sorted.len();
        let at = |i: usize| sorted.get(i).copied().unwrap_or_default();
        let median = match n {
            0 => 0.0,
            _ if !n.is_multiple_of(2) => at(n / 2),
            _ => (at(n / 2 - 1) + at(n / 2)) / 2.0,
        };
        let mean = if n == 0 {
            0.0
        } else {
            sorted.iter().sum::<f64>() / n as f64
        };
        let stddev = if n < 2 {
            0.0
        } else {
            let var = sorted.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        SampleStats {
            samples: collected,
            outliers_rejected: collected - n,
            median,
            mean,
            stddev,
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

/// The `q`-quantile of an ascending-sorted slice, by linear
/// interpolation between the two nearest order statistics.
fn interpolated_quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * sorted.len().saturating_sub(1) as f64;
    let at = |i: usize| sorted.get(i).copied().unwrap_or_default();
    let lo = pos.floor() as usize;
    at(lo) + (at(pos.ceil() as usize) - at(lo)) * (pos - lo as f64)
}

/// The `"<prefix>_latency_count": n, "<prefix>_p50_seconds": …,
/// "<prefix>_p95_seconds": …, "<prefix>_p99_seconds": …` JSON fragment
/// for one latency population — what the `service_latency` bench
/// records for per-query serving latency. Unlike [`SampleStats`]
/// (repeat-samples of one routine, gated on the median), the histogram
/// counts *every* event in a sustained stream, so the p95/p99 capture
/// the tail a median hides. The `*_p50/p95/p99_seconds` keys are gated
/// by `ci/bench_gate` like every other `*_seconds` metric, with the
/// tighter 25 µs latency slack as absolute floor (percentiles live at
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

/// True when `SP_BENCH_SCALE=large` asks for the million-node rows.
/// The committed baselines are generated with the toggle on (as in the
/// CI bench-gate job), so the gate's row counts match; local runs
/// without it produce a shorter artifact and skip those rows.
pub fn large_scale() -> bool {
    sp_sync::env_flag("SP_BENCH_SCALE", "large")
}

/// The text [`write_artifact`] writes.
fn render_artifact(benchmark: &str, unit: &str, rows: &[String]) -> String {
    format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"unit\": \"{unit}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// The path of artifact `file` at the root of the repository this
/// crate was compiled from.
fn artifact_path(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Writes the artifact of `benchmark` to `file` at the root of the
/// repository this crate was compiled from, and reports the path on
/// stderr. The artifact names the `unit` its seconds are in and holds
/// one already-rendered JSON object per line of `rows`, in order.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_artifact(file: &str, benchmark: &str, unit: &str, rows: &[String]) {
    let out = artifact_path(file);
    std::fs::write(&out, render_artifact(benchmark, unit, rows))
        // sp-analyze: allow(panic, a bench that cannot write its artifact must fail, not pass silently)
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
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
    fn estimate_median_and_stddev_are_exact_on_known_samples() {
        let s = SampleStats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mean, 2.5);
        // Sample stddev of 1..=4 is sqrt(5/3); nothing is far enough
        // out for the IQR fence to reject.
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.outliers_rejected, 0);
        let single = SampleStats::of(&[9.0]);
        assert_eq!((single.median, single.stddev), (9.0, 0.0));
        assert_eq!(single.outliers_rejected, 0);
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
    fn iqr_fence_rejects_a_scheduler_spike() {
        // Five tight samples and one spike: the spike is rejected, the
        // median and stddev describe the tight cluster, and the
        // collected count is still reported.
        let s = SampleStats::of(&[1.0, 1.1, 0.9, 1.05, 0.95, 50.0]);
        assert_eq!(s.samples, 6);
        assert_eq!(s.outliers_rejected, 1);
        assert!((s.median - 1.0).abs() < 1e-12);
        assert!(s.stddev < 0.1, "spread without the spike, got {}", s.stddev);
        // Low outliers are fenced symmetrically.
        let low = SampleStats::of(&[10.0, 10.1, 9.9, 10.05, 9.95, 0.001]);
        assert_eq!(low.outliers_rejected, 1);
        assert!((low.median - 10.0).abs() < 1e-12);
    }

    #[test]
    fn outlier_rejection_passes_through_from_the_stub() {
        // The fence taken over from the former criterion stub's
        // estimator rejects a spike at sub-second scale too.
        let s = SampleStats::of(&[0.1, 0.11, 0.09, 0.105, 0.095, 9.0]);
        assert_eq!(s.samples, 6);
        assert_eq!(s.outliers_rejected, 1);
        assert!((s.median - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fewer_than_four_samples_are_never_rejected() {
        let s = SampleStats::of(&[1.0, 1000.0, 1.0]);
        assert_eq!(s.samples, 3);
        assert_eq!(s.outliers_rejected, 0);
        assert_eq!(s.median, 1.0);
    }

    #[test]
    fn structural_spread_is_not_trimmed_as_outliers() {
        // A quantized distribution where ~20% of samples sit on a
        // higher timer step: far beyond spike scale (cap is n/10 = 2),
        // so nothing may be rejected even though the Tukey fence
        // (IQR = 1 here) would cut all four.
        let mut samples = vec![10.0; 12];
        samples.extend([11.0; 4]);
        samples.extend([30.0, 30.0, 30.0, 30.0]);
        let s = SampleStats::of(&samples);
        assert_eq!(s.samples, 20);
        assert_eq!(s.outliers_rejected, 0, "structural tail kept");
        assert!(s.stddev > 0.0);
        // One spike in the same base distribution still goes.
        let mut spiked = vec![10.0, 10.2, 9.8, 10.1, 9.9, 10.3];
        spiked.push(500.0);
        assert_eq!(SampleStats::of(&spiked).outliers_rejected, 1);
        // Two spikes in nine samples exceed the cap of max(1, 9/10) = 1,
        // so both stay.
        let mut two = vec![10.0, 10.2, 9.8, 10.1, 9.9, 10.05, 9.95];
        two.extend([500.0, 600.0]);
        assert_eq!(SampleStats::of(&two).outliers_rejected, 0);
    }

    #[test]
    fn zero_iqr_does_not_reject_quantized_samples() {
        // Timer-quantized metrics: the quartiles coincide, so the
        // fence is zero — nothing may be rejected, and the reported
        // spread must reflect the real (small) noise.
        let s = SampleStats::of(&[1.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!(s.outliers_rejected, 0);
        assert_eq!(s.samples, 5);
        assert_eq!(s.median, 1.0);
        assert!(s.stddev > 0.0, "spread must not collapse to zero");
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

    #[test]
    fn writer_reproduces_the_committed_artifacts() {
        // One artifact per unit string: the rows split back out of the
        // committed file and rendered again give the file byte for byte.
        let cases = [
            ("BENCH_sweep.json", "sweep_runner", MEDIAN_UNIT),
            (
                "BENCH_service.json",
                "service_latency",
                "seconds (median over samples; percentiles over all queries)",
            ),
        ];
        for (file, benchmark, unit) in cases {
            let text = std::fs::read_to_string(artifact_path(file)).expect("committed artifact");
            let (_, body) = text.split_once("\"results\": [\n").expect("results array");
            let rows: Vec<String> = body
                .trim_end_matches("\n  ]\n}\n")
                .split(",\n")
                .map(str::to_owned)
                .collect();
            assert!(rows.len() >= 3, "{file}: {} rows", rows.len());
            assert_eq!(render_artifact(benchmark, unit, &rows), text, "{file}");
        }
    }
}
