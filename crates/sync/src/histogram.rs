//! The workspace's one latency estimator: a fixed log-linear bucket
//! histogram that records in one increment, merges exactly and reads
//! nearest-rank quantiles.
//!
//! Durations are bucketed in whole nanoseconds. Every value below
//! 128 ns has its own bucket; above that, each power-of-two octave
//! `[2^e, 2^(e+1))` splits into 128 buckets of width `2^(e-7)`, so a
//! bucket is at most 1/128 as wide as any value in it. Durations of
//! `2^41` ns (about 36.6 minutes) or more land in the top bucket. The
//! counts live in one array allocated at construction, so
//! [`LatencyHistogram::record`] never samples, draws a random number
//! or allocates, and merging per-worker histograms weighs each worker
//! by the events it recorded.

use std::fmt;
use std::time::Duration;

/// Buckets per octave, as a power of two: `2^7 = 128`.
const SUB_BITS: u32 = 7;

/// Durations from `2^TOP_BITS` ns on share the top bucket.
const TOP_BITS: u32 = 41;

/// The largest duration kept apart from the top bucket, in ns.
const MAX_NS: u64 = (1 << TOP_BITS) - 1;

/// One 128-bucket block for the exact range `0..128` ns, then one per
/// octave `2^7 ..= 2^40` ns: 35 blocks, 4,480 buckets, 35 KB.
const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) as usize) << SUB_BITS;

/// The bucket holding `ns`. Within an octave the top [`SUB_BITS`] + 1
/// bits of `ns` pick the bucket; below 128 ns the shift is zero, so
/// the bucket is `ns` itself.
fn bucket(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    let shift = (63 - (ns | (1 << SUB_BITS)).leading_zeros()) - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
}

/// The largest nanosecond value [`bucket`] maps to `b`.
fn upper_edge(b: usize) -> u64 {
    let shift = (b >> SUB_BITS).saturating_sub(1) as u32;
    let lead = (b - ((shift as usize) << SUB_BITS)) as u64;
    ((lead + 1) << shift) - 1
}

/// A mergeable, allocation-free latency histogram: the one estimator
/// behind the server's `STATS`/JSONL percentiles and the benches'
/// `*_p50/p95/p99_seconds` keys.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64]>,
}

impl LatencyHistogram {
    /// An empty histogram; the only allocation it ever makes.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
        }
    }

    /// Counts one event of `latency`.
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        if let Some(slot) = self.counts.get_mut(bucket(ns)) {
            *slot += 1;
        }
    }

    /// Adds every event `other` counted, as if recorded here.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
    }

    /// Events recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank `q`-quantile (`q` in `[0, 1]`): the upper edge of
    /// the bucket holding the `ceil(q * count)`-th smallest event. It
    /// never reads below the exact nearest-rank value and exceeds it
    /// by less than 1/128 of it. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let count = self.count();
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count.max(1));
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(upper_edge(b));
            }
        }
        Duration::ZERO
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn of(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &ns in samples {
            h.record(Duration::from_nanos(ns));
        }
        h
    }

    #[test]
    fn every_upper_edge_maps_back_to_its_bucket() {
        assert_eq!(bucket(0), 0);
        for b in 0..BUCKETS - 1 {
            assert_eq!(bucket(upper_edge(b)), b, "upper edge of bucket {b}");
            assert_eq!(bucket(upper_edge(b) + 1), b + 1, "successor of bucket {b}");
        }
        assert_eq!(upper_edge(BUCKETS - 1), MAX_NS);
    }

    #[test]
    fn durations_past_the_top_octave_land_in_the_top_bucket() {
        assert_eq!(bucket(MAX_NS + 1), BUCKETS - 1);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_secs(3 * 3600));
        h.record(Duration::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Duration::from_nanos(MAX_NS));
        assert_eq!(h.counts[BUCKETS - 1], 2);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::ZERO);
        }
    }

    #[test]
    fn durations_under_128_ns_are_exact() {
        for ns in 0..128 {
            assert_eq!(of(&[ns]).quantile(0.5), Duration::from_nanos(ns));
        }
        let all: Vec<u64> = (0..128).collect();
        assert_eq!(of(&all).quantile(0.5), Duration::from_nanos(63));
    }

    /// Samples spread over the whole tracked range: a 10-bit mantissa
    /// shifted into any of 31 octaves, so below `2^41` ns.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec((0u64..1024, 0u32..31).prop_map(|(m, e)| m << e), 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantile_brackets_the_exact_nearest_rank(xs in samples(), q in 0.0..=1.0f64) {
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = of(&xs).quantile(q).as_nanos() as u64;
            prop_assert!(
                exact <= got && got - exact <= exact / 128,
                "q={q}: histogram read {got} ns for exact {exact} ns"
            );
        }

        #[test]
        fn merge_equals_recording_the_concatenation(a in samples(), b in samples()) {
            let mut merged = of(&a);
            merged.merge(&of(&b));
            let joined: Vec<u64> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(merged.count(), joined.len() as u64);
            prop_assert!(merged == of(&joined));
        }
    }
}
