//! Every scheme's routes pinned to recorded digests.
//!
//! `traffic_parity` compares buffered routing with one-shot routing and
//! the scheme tests check properties of single routes, so neither
//! notices a refactor that changes which hop a scheme picks while still
//! delivering. This test routes 120 pairs on each of six seeded fields
//! (interest-area and forbidden-area deployments of 300 to 700 nodes)
//! under every `Scheme::ALL` entry and folds outcome, path, phases and
//! the perimeter/backup entry counts into one digest per scheme. Any
//! change to a route fails here and has to be rebaselined on purpose.

use sp_core::{RouteBuffer, RouteOutcome, RoutePhase, Routing};
use sp_experiments::{PreparedNetwork, Scheme};
use sp_net::{DeploymentConfig, FaModel, Network, NodeId};

/// Pairs routed per field.
const PAIRS: usize = 120;

/// Per scheme: its name, the digest of all its routes, and how many of
/// its routes took at least one perimeter or backup hop (so the pin
/// visibly covers the recovery phases, not just greedy forwarding).
const EXPECTED: [(&str, u64, usize); 8] = [
    ("GF", 0xf7f0e3a38bda79fe, 102),
    ("LGF", 0xe6f0000f665fda18, 465),
    ("SLGF", 0x6a545a22e475b4fc, 447),
    ("SLGF2", 0x729f49ef78ddc926, 447),
    ("SLGF2-noEH", 0x73340efd99f94506, 447),
    ("SLGF2-noBP", 0x72b85ba01ccfecd4, 447),
    ("GFG", 0x1a129369450ca3af, 102),
    ("SLGF2-F", 0x2417846e54ee9b92, 447),
];

/// FNV-1a over little-endian words: a digest that stays the same
/// across toolchains and hosts.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Three interest-area and three forbidden-area fields.
fn fields() -> Vec<PreparedNetwork> {
    let fa = FaModel::paper_default();
    [(300, 11, false), (500, 12, false), (700, 13, false)]
        .into_iter()
        .chain([(300, 21, true), (500, 22, true), (700, 23, true)])
        .map(|(n, seed, obstacles)| {
            let cfg = DeploymentConfig::paper_default(n);
            let positions = if obstacles {
                cfg.deploy_with_obstacles(&fa.generate_obstacles(&cfg, seed), seed)
            } else {
                cfg.deploy_uniform(seed)
            };
            PreparedNetwork::new(Network::from_positions(positions, cfg.radius, cfg.area))
        })
        .collect()
}

/// Distinct source/destination pairs from the largest component, drawn
/// by a fixed LCG.
fn pairs(net: &Network, seed: u64) -> Vec<(NodeId, NodeId)> {
    let comp = net.largest_component();
    let mut state = seed ^ 0x5eed_d16e_57a1_0f00;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        comp[(state >> 33) as usize % comp.len()]
    };
    let mut out = Vec::with_capacity(PAIRS);
    while out.len() < PAIRS {
        let (s, d) = (next(), next());
        if s != d {
            out.push((s, d));
        }
    }
    out
}

fn phase_code(p: RoutePhase) -> u64 {
    match p {
        RoutePhase::Greedy => 0,
        RoutePhase::Backup => 1,
        RoutePhase::Perimeter => 2,
    }
}

/// The digest of `scheme` over every field's pairs, and the count of
/// its routes with a perimeter or backup hop.
fn digest(scheme: Scheme, fields: &[PreparedNetwork]) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut recovered = 0;
    let mut buf = RouteBuffer::new();
    for (i, prep) in fields.iter().enumerate() {
        let router = scheme.build(&prep.ctx());
        for (s, d) in pairs(&prep.net, i as u64) {
            let r = router.route_into(&prep.net, s, d, &mut buf);
            match r.outcome {
                RouteOutcome::Delivered => h.word(0),
                RouteOutcome::Stuck(at) => {
                    h.word(1);
                    h.word(u64::from(at.0));
                }
                RouteOutcome::TtlExhausted => h.word(2),
            }
            h.word(r.path.len() as u64);
            for &v in r.path {
                h.word(u64::from(v.0));
            }
            for &p in r.phases {
                h.word(phase_code(p));
            }
            h.word(r.perimeter_entries as u64);
            h.word(r.backup_entries as u64);
            if r.phases.iter().any(|&p| p != RoutePhase::Greedy) {
                recovered += 1;
            }
        }
    }
    (h.0, recovered)
}

#[test]
fn every_scheme_routes_as_recorded() {
    let fields = fields();
    let got: Vec<(String, u64, usize)> = Scheme::ALL
        .into_iter()
        .map(|s| {
            let (d, recovered) = digest(s, &fields);
            (s.name().to_owned(), d, recovered)
        })
        .collect();
    let expected: Vec<(String, u64, usize)> = EXPECTED
        .iter()
        .map(|&(name, d, recovered)| (name.to_owned(), d, recovered))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d, recovered)| format!("    (\"{name}\", {d:#018x}, {recovered}),\n"))
        .collect();
    assert_eq!(got, expected, "recorded routes changed; got:\n{table}");
}
