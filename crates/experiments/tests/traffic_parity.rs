//! Property tests for the buffered routing API and the parallel
//! traffic engine:
//!
//! * `route_into` into a **reused** buffer must be indistinguishable
//!   from the one-shot legacy `route()` — outcome, path, phases, and
//!   phase-entry counters — for **every scheme**, across random
//!   networks and flow sets;
//! * `TrafficEngine` output must be bit-identical to serial execution
//!   at thread counts {1, 2, 3, 8}.

use proptest::prelude::*;
use sp_core::{RouteBuffer, Routing, TrafficEngine};
use sp_experiments::{PreparedNetwork, Scheme};
use sp_net::{deploy::DeploymentConfig, Network, NodeId};

fn prepared(n: usize, seed: u64) -> PreparedNetwork {
    let cfg = DeploymentConfig::paper_default(n);
    PreparedNetwork::new(Network::from_positions(
        cfg.deploy_uniform(seed),
        cfg.radius,
        cfg.area,
    ))
}

/// Deterministic flow draw over the largest component (including some
/// src == dst and repeated-endpoint flows — reused buffers must not
/// care).
fn flows(net: &Network, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let comp = net.largest_component();
    let mut state = seed ^ 0x7aff_1c5e;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..count)
        .map(|_| (comp[lcg() % comp.len()], comp[lcg() % comp.len()]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant of the API redesign: buffered routing
    /// with buffer reuse is observably identical to the legacy
    /// allocating path for every scheme.
    #[test]
    fn route_into_matches_legacy_route_for_every_scheme(
        seed in 0u64..2_000,
        n in 220usize..420,
    ) {
        let prep = prepared(n, seed);
        let ctx = prep.ctx();
        let batch = flows(&prep.net, 6, seed);
        for scheme in Scheme::ALL {
            let router = scheme.build(&ctx);
            // ONE buffer reused across all flows of all sizes — stale
            // state from a previous packet must never leak through.
            let mut buf = RouteBuffer::new();
            for &(s, d) in &batch {
                let legacy = router.route(&prep.net, s, d);
                let buffered = router.route_into(&prep.net, s, d, &mut buf);
                prop_assert_eq!(
                    buffered.outcome, legacy.outcome,
                    "{}: outcome {}->{}", scheme, s, d
                );
                prop_assert_eq!(
                    buffered.path, legacy.path.as_slice(),
                    "{}: path {}->{}", scheme, s, d
                );
                prop_assert_eq!(
                    buffered.phases, legacy.phases.as_slice(),
                    "{}: phases {}->{}", scheme, s, d
                );
                prop_assert_eq!(buffered.perimeter_entries, legacy.perimeter_entries);
                prop_assert_eq!(buffered.backup_entries, legacy.backup_entries);
                prop_assert_eq!(buffered.to_result(), legacy);
            }
        }
    }

    /// The engine's merge is flow-ordered and its routing deterministic:
    /// any thread count reproduces the serial report bit for bit.
    #[test]
    fn traffic_engine_is_thread_count_invariant(
        seed in 0u64..2_000,
        flow_count in 1usize..200,
    ) {
        let prep = prepared(260, seed);
        let ctx = prep.ctx();
        let batch = flows(&prep.net, flow_count, seed ^ 0x7f10);
        for &scheme in &[Scheme::Slgf2, Scheme::Lgf, Scheme::Gfg] {
            let router = scheme.build(&ctx);
            let serial = TrafficEngine::new(&prep.net)
                .with_threads(1)
                .run(router.as_ref(), &batch);
            prop_assert_eq!(serial.records.len(), batch.len());
            for threads in [2usize, 3, 8] {
                let threaded = TrafficEngine::new(&prep.net)
                    .with_threads(threads)
                    .run(router.as_ref(), &batch);
                prop_assert_eq!(
                    &serial, &threaded,
                    "{}: threads={} diverged from serial", scheme, threads
                );
            }
        }
    }
}

/// The per-call `route()` wrapper and the engine agree too (the compat
/// wrapper is what the throughput bench baselines against).
#[test]
fn engine_records_match_per_call_route() {
    let prep = prepared(350, 99);
    let ctx = prep.ctx();
    let batch = flows(&prep.net, 64, 99);
    let router = Scheme::Slgf2.build(&ctx);
    let report = TrafficEngine::new(&prep.net).run(router.as_ref(), &batch);
    for (record, &(s, d)) in report.records.iter().zip(&batch) {
        let legacy = router.route(&prep.net, s, d);
        assert_eq!(record.src, s);
        assert_eq!(record.dst, d);
        assert_eq!(record.outcome, legacy.outcome);
        assert_eq!(record.hops, legacy.hops());
        assert_eq!(record.length, legacy.length(&prep.net));
        assert_eq!(record.perimeter_entries, legacy.perimeter_entries);
        assert_eq!(record.backup_entries, legacy.backup_entries);
    }
}
