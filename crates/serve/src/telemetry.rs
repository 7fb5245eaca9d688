//! Lock-light serving telemetry: per-worker counter cells aggregated
//! on demand into a [`StatsSnapshot`].
//!
//! Each worker owns one [`WorkerTelemetry`] cell behind its own
//! `Mutex` — the hot query path locks only its own uncontended cell
//! (a few nanoseconds), never a shared one, so telemetry cannot
//! serialize the worker pool. `STATS` requests and the periodic JSONL
//! exporter call [`Telemetry::aggregate`], which sweeps the cells one
//! short lock at a time.
//!
//! Route quality is the same [`RouteQuality`] fold an offline
//! [`sp_core::TrafficEngine`] batch reports: each worker adds every
//! answered [`RouteRecord`] to its own fold, and aggregation merges
//! the folds, so `STATS` `queries`, `delivered` and `hops_hist` equal
//! an offline batch's `routes`, `delivered` and `hops_hist` over the
//! same queries.
//!
//! Latency percentiles come from one [`LatencyHistogram`] per worker:
//! constant memory under unbounded load, and recording a query is one
//! bucket increment that never allocates. [`Telemetry::aggregate`]
//! merges the per-worker histograms, so each worker counts in
//! proportion to the queries it served.

use sp_core::{RouteQuality, RouteRecord};
use sp_sync::{lock_recover, LatencyHistogram};
use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

/// One worker's counters. Updated only by its owning worker, read by
/// aggregation sweeps.
#[derive(Debug)]
pub struct WorkerTelemetry {
    /// Every answered `QUERY` folded.
    pub quality: RouteQuality,
    /// Queries answered with a streamed hop trace.
    pub traced: u64,
    /// Malformed requests answered with a named protocol error.
    pub protocol_errors: u64,
    /// `MOVE` batches applied.
    pub move_batches: u64,
    /// Total nodes moved across those batches.
    pub moved_nodes: u64,
    /// `CHAOS` recipes applied.
    pub chaos_batches: u64,
    /// Per-query serving latencies.
    latency: LatencyHistogram,
}

impl WorkerTelemetry {
    fn new() -> WorkerTelemetry {
        WorkerTelemetry {
            quality: RouteQuality::default(),
            traced: 0,
            protocol_errors: 0,
            move_batches: 0,
            moved_nodes: 0,
            chaos_batches: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Records one answered query.
    pub fn record_query(&mut self, answer: &RouteRecord, traced: bool, latency: Duration) {
        self.quality.add(answer);
        if traced {
            self.traced += 1;
        }
        self.latency.record(latency);
    }

    /// Records one malformed request.
    pub fn record_protocol_error(&mut self) {
        self.protocol_errors += 1;
    }

    /// Records one applied `MOVE` batch.
    pub fn record_move(&mut self, nodes: u64) {
        self.move_batches += 1;
        self.moved_nodes += nodes;
    }

    /// Records one applied `CHAOS` recipe.
    pub fn record_chaos(&mut self) {
        self.chaos_batches += 1;
    }
}

/// The aggregated view of every worker's counters at one sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Worker cells aggregated.
    pub workers: u32,
    /// Total `QUERY` requests answered.
    pub queries: u64,
    /// Queries delivered.
    pub delivered: u64,
    /// Queries answered with a hop trace.
    pub traced: u64,
    /// Named protocol errors answered.
    pub protocol_errors: u64,
    /// `MOVE` batches applied.
    pub move_batches: u64,
    /// Nodes moved across those batches.
    pub moved_nodes: u64,
    /// `CHAOS` recipes applied.
    pub chaos_batches: u64,
    /// Latency samples recorded (every answered query).
    pub latency_count: u64,
    /// Median per-query latency over the merged histograms, seconds.
    pub latency_p50: f64,
    /// 95th-percentile latency, seconds.
    pub latency_p95: f64,
    /// 99th-percentile latency, seconds.
    pub latency_p99: f64,
    /// Pooled hop histogram ([`sp_core::HOP_BUCKETS`] buckets).
    pub hops_hist: Vec<u64>,
}

impl StatsSnapshot {
    /// Queries that did not deliver (stuck or TTL-exhausted).
    pub fn routing_failures(&self) -> u64 {
        self.queries.saturating_sub(self.delivered)
    }

    /// One JSONL line of the snapshot, stamped with the service epoch
    /// and a caller-supplied timestamp (milliseconds since the Unix
    /// epoch). Schema documented in the README's "Serving over TCP"
    /// section.
    pub fn jsonl_line(&self, epoch: u64, timestamp_ms: u128) -> String {
        let hist = self
            .hops_hist
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"ts_ms\":{},\"epoch\":{},\"workers\":{},\"queries\":{},",
                "\"delivered\":{},\"routing_failures\":{},\"traced\":{},",
                "\"protocol_errors\":{},\"move_batches\":{},\"moved_nodes\":{},",
                "\"chaos_batches\":{},\"latency_count\":{},",
                "\"latency_p50_s\":{:.9},\"latency_p95_s\":{:.9},",
                "\"latency_p99_s\":{:.9},\"hops_hist\":[{}]}}"
            ),
            timestamp_ms,
            epoch,
            self.workers,
            self.queries,
            self.delivered,
            self.routing_failures(),
            self.traced,
            self.protocol_errors,
            self.move_batches,
            self.moved_nodes,
            self.chaos_batches,
            self.latency_count,
            self.latency_p50,
            self.latency_p95,
            self.latency_p99,
            hist
        )
    }
}

/// The server's telemetry: one [`WorkerTelemetry`] cell per worker.
#[derive(Debug)]
pub struct Telemetry {
    cells: Vec<Mutex<WorkerTelemetry>>,
}

impl Telemetry {
    /// One cell per worker.
    pub fn new(workers: usize) -> Telemetry {
        Telemetry {
            cells: (0..workers)
                .map(|_| Mutex::new(WorkerTelemetry::new()))
                .collect(),
        }
    }

    /// Worker cell count.
    pub fn workers(&self) -> usize {
        self.cells.len()
    }

    /// Runs `f` against worker `w`'s cell under its (uncontended)
    /// lock. Out-of-range workers are ignored — telemetry never
    /// panics the serving path.
    pub fn with(&self, w: usize, f: impl FnOnce(&mut WorkerTelemetry)) {
        if let Some(cell) = self.cells.get(w) {
            f(&mut lock_recover(cell));
        }
    }

    /// Sweeps every cell (one short lock each) into a pooled
    /// [`StatsSnapshot`], merging the per-worker route-quality folds
    /// and latency histograms.
    pub fn aggregate(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot {
            workers: self.cells.len() as u32,
            ..StatsSnapshot::default()
        };
        let mut quality = RouteQuality::default();
        let mut latency = LatencyHistogram::new();
        for cell in &self.cells {
            let cell = lock_recover(cell);
            quality.merge(&cell.quality);
            snap.traced += cell.traced;
            snap.protocol_errors += cell.protocol_errors;
            snap.move_batches += cell.move_batches;
            snap.moved_nodes += cell.moved_nodes;
            snap.chaos_batches += cell.chaos_batches;
            latency.merge(&cell.latency);
        }
        snap.queries = quality.routes;
        snap.delivered = quality.delivered;
        snap.hops_hist = quality.hops_hist.to_vec();
        snap.latency_count = latency.count();
        snap.latency_p50 = latency.quantile(0.50).as_secs_f64();
        snap.latency_p95 = latency.quantile(0.95).as_secs_f64();
        snap.latency_p99 = latency.quantile(0.99).as_secs_f64();
        snap
    }

    /// Aggregates and appends one JSONL line to `w`.
    pub fn write_jsonl(
        &self,
        w: &mut impl Write,
        epoch: u64,
        timestamp_ms: u128,
    ) -> std::io::Result<()> {
        let line = self.aggregate().jsonl_line(epoch, timestamp_ms);
        writeln!(w, "{line}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{RouteOutcome, HOP_BUCKETS};
    use sp_net::NodeId;

    fn answer(delivered: bool, hops: usize) -> RouteRecord {
        RouteRecord {
            src: NodeId(0),
            dst: NodeId(1),
            outcome: if delivered {
                RouteOutcome::Delivered
            } else {
                RouteOutcome::TtlExhausted
            },
            hops,
            length: hops as f64,
            perimeter_entries: 0,
            backup_entries: 0,
        }
    }

    #[test]
    fn aggregate_pools_counters_across_workers() {
        let t = Telemetry::new(3);
        t.with(0, |c| {
            c.record_query(&answer(true, 4), false, Duration::from_millis(1))
        });
        t.with(1, |c| {
            c.record_query(&answer(false, 40), true, Duration::from_millis(2))
        });
        t.with(2, |c| {
            c.record_move(7);
            c.record_chaos();
            c.record_protocol_error();
        });
        let s = t.aggregate();
        assert_eq!(s.workers, 3);
        assert_eq!(s.queries, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.routing_failures(), 1);
        assert_eq!(s.traced, 1);
        assert_eq!(s.protocol_errors, 1);
        assert_eq!(s.move_batches, 1);
        assert_eq!(s.moved_nodes, 7);
        assert_eq!(s.chaos_batches, 1);
        assert_eq!(s.latency_count, 2);
        assert_eq!(s.hops_hist[4], 1);
        assert_eq!(s.hops_hist[HOP_BUCKETS - 1], 1, "40 hops overflows");
        assert!(s.latency_p50 >= 0.001 && s.latency_p99 >= 0.002);
        assert!(s.latency_p99 <= 0.002 * (1.0 + 1.0 / 128.0));
    }

    #[test]
    fn merged_latency_weighs_workers_by_queries_served() {
        // A busy slow worker and a nearly idle fast one: the merged
        // median is the busy worker's latency, not a per-worker blend.
        let t = Telemetry::new(2);
        t.with(0, |c| {
            for _ in 0..100_000 {
                c.record_query(&answer(true, 3), false, Duration::from_millis(1));
            }
        });
        t.with(1, |c| {
            for _ in 0..4_096 {
                c.record_query(&answer(true, 3), false, Duration::from_micros(10));
            }
        });
        let s = t.aggregate();
        assert_eq!(s.latency_count, 104_096);
        assert!(
            (0.001..=0.001 * (1.0 + 1.0 / 128.0)).contains(&s.latency_p50),
            "p50 {} s",
            s.latency_p50
        );
        assert!(s.latency_p50 <= s.latency_p95 && s.latency_p95 <= s.latency_p99);
    }

    #[test]
    fn jsonl_line_is_valid_shape() {
        let t = Telemetry::new(2);
        t.with(0, |c| {
            c.record_query(&answer(true, 2), false, Duration::from_micros(500))
        });
        let line = t.aggregate().jsonl_line(9, 1_700_000_000_000);
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in [
            "\"ts_ms\":1700000000000",
            "\"epoch\":9",
            "\"queries\":1",
            "\"latency_p50_s\":",
            "\"hops_hist\":[",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        // Exactly one object per line, no embedded newline.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn out_of_range_worker_is_ignored() {
        let t = Telemetry::new(1);
        t.with(5, |c| c.record_chaos());
        assert_eq!(t.aggregate().chaos_batches, 0);
    }
}
