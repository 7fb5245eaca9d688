//! Batched traffic: the per-route [`RouteRecord`], its mergeable
//! [`RouteQuality`] fold, and the parallel [`TrafficEngine`].
//!
//! The paper motivates straightforward paths with streaming WASN
//! workloads that push "large amount of data" over fixed flows; serving
//! that regime means routing *batches* of packets, not one-shot
//! queries. A streaming caller owns one [`crate::RouteBuffer`] and
//! routes packet after packet through [`crate::Routing::route_into`]:
//! the buffer's generation-stamped visited set and retained-capacity
//! path/phase vectors make that allocation-free after the first
//! packet. On top of the buffered API:
//!
//! * [`RouteRecord`] is the one per-route record — outcome, hops,
//!   length, perimeter and backup entries — and
//!   [`RouteRecord::from_trace`] is the one place a borrowed trace
//!   becomes one, for offline batches and served queries alike;
//! * [`RouteQuality`] folds records into integer counts and a hop
//!   histogram. Folds merge exactly in any order, so a batch folded
//!   here and the `sp-serve` workers' per-thread folds report the same
//!   numbers for the same routes;
//! * [`TrafficEngine`] takes a whole batch of `(src, dst)` flows and
//!   shards it across threads over the shared [`sp_sync::WorkQueue`] —
//!   each worker owns a thread-local buffer, chunks merge back in
//!   flow order, and the output is **bit-identical to serial execution
//!   at any thread count** (the parity property tests enforce this).
//!   The default worker count is [`sp_sync::default_threads`]. A batch
//!   pinned to one [`crate::RoutingService`] epoch is this engine over
//!   the pinned snapshot's network and router.

use crate::{RouteBuffer, RouteOutcome, RouteRef, Routing};
use sp_net::{Network, NodeId};
use sp_sync::WorkQueue;

/// Flows per work-queue claim. Large enough that the atomic cursor is
/// cold, small enough that stragglers rebalance.
const FLOW_CHUNK: usize = 64;

/// Hop-histogram buckets of [`RouteQuality`]: hops `0..=31`
/// individually, bucket 32 for everything longer.
pub const HOP_BUCKETS: usize = 33;

/// Everything recorded about one routed flow or served query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRecord {
    /// The flow's source.
    pub src: NodeId,
    /// The flow's destination.
    pub dst: NodeId,
    /// Terminal status of the route.
    pub outcome: RouteOutcome,
    /// Hops walked.
    pub hops: usize,
    /// Euclidean path length walked.
    pub length: f64,
    /// Perimeter-phase entries.
    pub perimeter_entries: usize,
    /// Backup-phase entries (SLGF2 family).
    pub backup_entries: usize,
}

impl RouteRecord {
    /// The record of `trace`, a route from `src` to `dst` over `net`.
    pub fn from_trace(
        net: &Network,
        src: NodeId,
        dst: NodeId,
        trace: &RouteRef<'_>,
    ) -> RouteRecord {
        RouteRecord {
            src,
            dst,
            outcome: trace.outcome,
            hops: trace.hops(),
            length: trace.length(net),
            perimeter_entries: trace.perimeter_entries,
            backup_entries: trace.backup_entries,
        }
    }

    /// True when the flow's packet reached its destination.
    pub fn delivered(&self) -> bool {
        self.outcome == RouteOutcome::Delivered
    }
}

/// The mergeable fold of [`RouteRecord`]s. Every field is an integer
/// count, so [`RouteQuality::merge`] gives the same result in any
/// order — per-worker folds pool exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteQuality {
    /// Routes attempted.
    pub routes: u64,
    /// Routes whose packet was delivered.
    pub delivered: u64,
    /// Hops summed over delivered routes.
    pub delivered_hops: u64,
    /// Perimeter-phase entries summed over every route.
    pub perimeter_entries: u64,
    /// Backup-phase entries summed over every route.
    pub backup_entries: u64,
    /// Routes by hop count over every route: bucket `min(hops, 32)`.
    pub hops_hist: [u64; HOP_BUCKETS],
}

impl Default for RouteQuality {
    fn default() -> RouteQuality {
        RouteQuality {
            routes: 0,
            delivered: 0,
            delivered_hops: 0,
            perimeter_entries: 0,
            backup_entries: 0,
            hops_hist: [0; HOP_BUCKETS],
        }
    }
}

impl RouteQuality {
    /// Folds one record in.
    pub fn add(&mut self, r: &RouteRecord) {
        self.routes += 1;
        self.perimeter_entries += r.perimeter_entries as u64;
        self.backup_entries += r.backup_entries as u64;
        if r.delivered() {
            self.delivered += 1;
            self.delivered_hops += r.hops as u64;
        }
        if let Some(slot) = self.hops_hist.get_mut(r.hops.min(HOP_BUCKETS - 1)) {
            *slot += 1;
        }
    }

    /// Folds another fold in, as if its records had been added here.
    pub fn merge(&mut self, other: &RouteQuality) {
        self.routes += other.routes;
        self.delivered += other.delivered;
        self.delivered_hops += other.delivered_hops;
        self.perimeter_entries += other.perimeter_entries;
        self.backup_entries += other.backup_entries;
        for (mine, theirs) in self.hops_hist.iter_mut().zip(&other.hops_hist) {
            *mine += theirs;
        }
    }

    /// Delivered / attempted, in `[0, 1]` (0 when nothing was routed).
    pub fn delivery_ratio(&self) -> f64 {
        if self.routes == 0 {
            0.0
        } else {
            self.delivered as f64 / self.routes as f64
        }
    }

    /// Mean hops over delivered routes (0 when none delivered).
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delivered_hops as f64 / self.delivered as f64
        }
    }
}

/// One completed batch: per-flow records in flow order plus their fold.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// One record per input flow, in input order.
    pub records: Vec<RouteRecord>,
    /// The records folded.
    pub quality: RouteQuality,
}

/// Routes whole batches of flows over one network, sharded across
/// threads. Results are merged in flow order and are bit-identical to
/// serial execution at any thread count.
///
/// ```
/// use sp_core::{LgfRouter, TrafficEngine};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(300);
/// let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
/// let flows: Vec<_> = (1..40).map(|i| (NodeId(0), NodeId(i))).collect();
/// let report = TrafficEngine::new(&net).run(&LgfRouter::new(), &flows);
/// assert_eq!(report.records.len(), flows.len());
/// assert_eq!(report.quality.routes, flows.len() as u64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrafficEngine<'n> {
    net: &'n Network,
    threads: usize,
}

impl<'n> TrafficEngine<'n> {
    /// An engine over `net` with [`sp_sync::default_threads`] workers.
    pub fn new(net: &'n Network) -> TrafficEngine<'n> {
        TrafficEngine {
            net,
            threads: sp_sync::default_threads(),
        }
    }

    /// Pins the worker count (1 = serial; same results either way).
    pub fn with_threads(mut self, threads: usize) -> TrafficEngine<'n> {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The network flows route on.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// Routes every flow and maps each trace through `map` (called with
    /// the flow index, the flow, and the borrowed trace), returning the
    /// mapped values in flow order. This is the allocation-scaling
    /// primitive: the trace never leaves the worker's buffer, so `map`
    /// decides what survives (a compact record, an energy debit, a
    /// cloned path — whatever the caller needs).
    pub fn run_map<R, T, F>(&self, router: &R, flows: &[(NodeId, NodeId)], map: F) -> Vec<T>
    where
        R: Routing + Sync + ?Sized,
        T: Send,
        F: Fn(usize, (NodeId, NodeId), RouteRef<'_>) -> T + Sync,
    {
        // Workers claim [`FLOW_CHUNK`]-sized flow chunks off the shared
        // [`sp_sync::WorkQueue`] cursor and route them with a
        // worker-local warm buffer; chunks reassemble in index order,
        // so the merged output is the serial output.
        WorkQueue::chunked(FLOW_CHUNK).run_with(
            self.threads,
            flows.len(),
            || RouteBuffer::with_capacity(self.net.len()),
            |buf, i| {
                let (src, dst) = flows[i];
                let r = router.route_into(self.net, src, dst, buf);
                map(i, (src, dst), r)
            },
        )
    }

    /// Routes every flow, returning per-flow [`RouteRecord`]s (in flow
    /// order) plus their [`RouteQuality`] fold.
    pub fn run<R>(&self, router: &R, flows: &[(NodeId, NodeId)]) -> TrafficReport
    where
        R: Routing + Sync + ?Sized,
    {
        let net = self.net;
        let records = self.run_map(router, flows, |_, (src, dst), r| {
            RouteRecord::from_trace(net, src, dst, &r)
        });
        let mut quality = RouteQuality::default();
        for r in &records {
            quality.add(r);
        }
        TrafficReport { records, quality }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LgfRouter;
    use proptest::prelude::*;
    use sp_net::deploy::DeploymentConfig;

    fn prepared(n: usize, seed: u64) -> Network {
        let cfg = DeploymentConfig::paper_default(n);
        Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
    }

    fn some_flows(net: &Network, count: usize) -> Vec<(NodeId, NodeId)> {
        let comp = net.largest_component();
        (0..count)
            .map(|k| {
                (
                    comp[(k * 53) % comp.len()],
                    comp[(k * 101 + 17) % comp.len()],
                )
            })
            .filter(|(s, d)| s != d)
            .collect()
    }

    #[test]
    fn engine_records_match_serial_sessions_at_any_thread_count() {
        let net = prepared(350, 5);
        let flows = some_flows(&net, 150);
        let router = LgfRouter::new();
        let serial = TrafficEngine::new(&net)
            .with_threads(1)
            .run(&router, &flows);
        assert_eq!(serial.records.len(), flows.len());
        for threads in [2, 3, 8] {
            let t = TrafficEngine::new(&net)
                .with_threads(threads)
                .run(&router, &flows);
            assert_eq!(serial, t, "threads={threads}");
        }
    }

    #[test]
    fn stats_fold_matches_records() {
        let net = prepared(300, 9);
        let flows = some_flows(&net, 40);
        let report = TrafficEngine::new(&net).run(&LgfRouter::new(), &flows);
        let q = &report.quality;
        let delivered = report.records.iter().filter(|r| r.delivered()).count();
        assert_eq!(q.routes, flows.len() as u64);
        assert_eq!(q.delivered, delivered as u64);
        assert!(q.delivery_ratio() > 0.0);
        assert!(q.mean_hops() >= 1.0);
        let hops: usize = report
            .records
            .iter()
            .filter(|r| r.delivered())
            .map(|r| r.hops)
            .sum();
        assert_eq!(q.delivered_hops, hops as u64);
        assert_eq!(q.hops_hist.iter().sum::<u64>(), q.routes);
    }

    /// A random record: any outcome, hops past the histogram's end.
    fn record() -> impl Strategy<Value = RouteRecord> {
        (0u8..3, 0usize..48, 0usize..4, 0usize..4).prop_map(|(o, hops, pe, be)| RouteRecord {
            src: NodeId(0),
            dst: NodeId(1),
            outcome: match o {
                0 => RouteOutcome::Delivered,
                1 => RouteOutcome::Stuck(NodeId(2)),
                _ => RouteOutcome::TtlExhausted,
            },
            hops,
            length: hops as f64,
            perimeter_entries: pe,
            backup_entries: be,
        })
    }

    fn fold(records: &[RouteRecord]) -> RouteQuality {
        let mut q = RouteQuality::default();
        for r in records {
            q.add(r);
        }
        q
    }

    proptest! {
        /// Merging two folds equals folding the concatenated records,
        /// so per-worker folds pool exactly.
        #[test]
        fn merge_equals_folding_the_concatenation(
            a in prop::collection::vec(record(), 0..40),
            b in prop::collection::vec(record(), 0..40),
        ) {
            let mut merged = fold(&a);
            merged.merge(&fold(&b));
            let both: Vec<RouteRecord> = a.iter().chain(&b).copied().collect();
            prop_assert_eq!(merged, fold(&both));
        }
    }

    #[test]
    fn long_routes_land_in_the_last_hop_bucket() {
        let mut q = RouteQuality::default();
        for hops in [31, 32, 33, 500] {
            q.add(&RouteRecord {
                src: NodeId(0),
                dst: NodeId(1),
                outcome: RouteOutcome::TtlExhausted,
                hops,
                length: 0.0,
                perimeter_entries: 0,
                backup_entries: 0,
            });
        }
        assert_eq!(
            q.hops_hist[HOP_BUCKETS - 2],
            1,
            "31 hops has its own bucket"
        );
        assert_eq!(q.hops_hist[HOP_BUCKETS - 1], 3, "32 hops and longer");
        assert_eq!(q.delivered_hops, 0, "undelivered hops are not summed");
    }

    #[test]
    fn run_map_preserves_flow_order_and_indices() {
        let net = prepared(300, 11);
        let flows = some_flows(&net, 130); // > 2 chunks
        let engine = TrafficEngine::new(&net).with_threads(4);
        let tagged = engine.run_map(&LgfRouter::new(), &flows, |i, flow, r| (i, flow, r.hops()));
        assert_eq!(tagged.len(), flows.len());
        for (i, (idx, flow, _)) in tagged.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*flow, flows[i]);
        }
    }

    #[test]
    fn empty_batch_is_empty_report() {
        let net = prepared(50, 1);
        let report = TrafficEngine::new(&net).run(&LgfRouter::new(), &[]);
        assert!(report.records.is_empty());
        assert_eq!(report.quality, RouteQuality::default());
        assert_eq!(report.quality.delivery_ratio(), 0.0);
    }

    #[test]
    fn thread_knob_floors_at_one() {
        let net = prepared(50, 1);
        assert_eq!(TrafficEngine::new(&net).with_threads(0).threads(), 1);
        assert!(TrafficEngine::new(&net).threads() >= 1);
    }
}
