//! Every figure the harness draws from routes, pinned to recorded
//! digests.
//!
//! `route_digests` pins the routes themselves; this pins what the
//! figures make of them. It sweeps small interest-area and
//! forbidden-area fields under every `Scheme::ALL` entry three ways
//! (pristine, under a regional outage with lossy links, and after five
//! ticks of waypoint motion) and draws all ten `Metric` views of each
//! sweep through `figures::figure_from_sweep`. It also draws the A1,
//! A6, A9, A10, A13, A15 and A17 figures at their unit-test sizes and
//! A14 on one quick forbidden-area size. Each figure's series labels
//! and the bits of every point fold into one digest, so a change to a
//! count, a loss draw, an estimator or a series fails here and has to
//! be rebaselined on purpose. The positions a scenario blend deploys
//! are pinned the same way.

use sp_experiments::figures::{self, Metric};
use sp_experiments::{
    lifetime_figure, run_sweep, ChaosRecipe, MobilityRecipe, Scenario, Scheme, StreamingConfig,
    SweepConfig, SweepSpec,
};
use sp_metrics::Figure;

/// Per figure: its key and the digest of its series.
const EXPECTED: [(&str, u64); 73] = [
    ("IA/pristine/MaxHops", 0x4418cb785df1fdb8),
    ("IA/pristine/MeanHops", 0x5ec0448fb016174b),
    ("IA/pristine/MeanLength", 0x6b81f7626c852c0c),
    ("IA/pristine/DeliveryRatio", 0x0dd21e388d234b9e),
    ("IA/pristine/PerimeterEntries", 0x4867fefa1a98d034),
    ("IA/pristine/BackupEntries", 0xf5e8e6b9c7e4065c),
    ("IA/pristine/MeanEnergy", 0xdce9b68edb192b5b),
    ("IA/pristine/MeanInterference", 0xd80dd187f207d965),
    ("IA/pristine/MeanHopStretch", 0x685d7b0b9307ed47),
    ("IA/pristine/MeanLengthStretch", 0xfd407687874f77d8),
    ("IA/chaos/MaxHops", 0xbf91bb3efeab5fc0),
    ("IA/chaos/MeanHops", 0x5845dbabfdcf5fbe),
    ("IA/chaos/MeanLength", 0x07ad69b3637b00d6),
    ("IA/chaos/DeliveryRatio", 0xd81fb66d43b6a249),
    ("IA/chaos/PerimeterEntries", 0xda17451cc118210f),
    ("IA/chaos/BackupEntries", 0xb17732c5d71eddf2),
    ("IA/chaos/MeanEnergy", 0x09a450fb226c4e5b),
    ("IA/chaos/MeanInterference", 0xcf11634987d76186),
    ("IA/chaos/MeanHopStretch", 0xf5ab71a0e7dc5714),
    ("IA/chaos/MeanLengthStretch", 0x8af176f7e9ff4c0f),
    ("IA/mobility/MaxHops", 0x9408b4b59fa7eb06),
    ("IA/mobility/MeanHops", 0xdc4f7094cfa18ac0),
    ("IA/mobility/MeanLength", 0x7b7d39f66ab25877),
    ("IA/mobility/DeliveryRatio", 0xe4e4effc700b7c31),
    ("IA/mobility/PerimeterEntries", 0x348ed532f7605529),
    ("IA/mobility/BackupEntries", 0xd55f5fae2281da6c),
    ("IA/mobility/MeanEnergy", 0xe95f7735c237473b),
    ("IA/mobility/MeanInterference", 0xec0f4d8775f73f2d),
    ("IA/mobility/MeanHopStretch", 0x8afcd541a0f825bb),
    ("IA/mobility/MeanLengthStretch", 0x0a99c27b56d3f89c),
    ("FA/pristine/MaxHops", 0x34946767ba4b0a80),
    ("FA/pristine/MeanHops", 0xe42abb968c8a3c1f),
    ("FA/pristine/MeanLength", 0x01d111eabe97f2cf),
    ("FA/pristine/DeliveryRatio", 0xdb9aef44dd35528d),
    ("FA/pristine/PerimeterEntries", 0xd3c6ea337f446f9b),
    ("FA/pristine/BackupEntries", 0xc532b948a0008477),
    ("FA/pristine/MeanEnergy", 0x33bab79b6b7c0302),
    ("FA/pristine/MeanInterference", 0xcf4ceafc986c5304),
    ("FA/pristine/MeanHopStretch", 0xb552d03b5f4e2e89),
    ("FA/pristine/MeanLengthStretch", 0x9a40817e7184809b),
    ("FA/chaos/MaxHops", 0x8a5ac115f7c1276d),
    ("FA/chaos/MeanHops", 0xade03728a711c8eb),
    ("FA/chaos/MeanLength", 0xd9e31736bc113b89),
    ("FA/chaos/DeliveryRatio", 0x48314d15948a5019),
    ("FA/chaos/PerimeterEntries", 0x2f08479eba4f12ef),
    ("FA/chaos/BackupEntries", 0xc24031c33e3b812e),
    ("FA/chaos/MeanEnergy", 0xf64ffc40afa49103),
    ("FA/chaos/MeanInterference", 0xc254028cc30c7b58),
    ("FA/chaos/MeanHopStretch", 0x4b2e96b7f8e12349),
    ("FA/chaos/MeanLengthStretch", 0x540f38a545310fbb),
    ("FA/mobility/MaxHops", 0x3809dc42b4eb33d3),
    ("FA/mobility/MeanHops", 0x4a049c0f3dab2245),
    ("FA/mobility/MeanLength", 0x95a3152559e044c0),
    ("FA/mobility/DeliveryRatio", 0x28c31f576c5bacb2),
    ("FA/mobility/PerimeterEntries", 0x12f8c4ba9bf89d59),
    ("FA/mobility/BackupEntries", 0x323d5ccf4f6273bf),
    ("FA/mobility/MeanEnergy", 0x32e075d71a8abb7d),
    ("FA/mobility/MeanInterference", 0x02f186846db0f63a),
    ("FA/mobility/MeanHopStretch", 0xd6591ee30e55d15b),
    ("FA/mobility/MeanLengthStretch", 0x59601f586eb4ffea),
    ("A6", 0x9d96dea4e130af71),
    ("A13/0", 0x240f2261bd360fec),
    ("A13/1", 0x3c95a0b2c4533c27),
    ("A17/0", 0x507dc30039386a5e),
    ("A17/1", 0x94bdf1421fe2e70a),
    ("A17/2", 0xa6a3530fc1b5a303),
    ("A17/3", 0xd95443a126bb0a5e),
    ("A1", 0x06ddc4365d58d02b),
    ("A9", 0xff22b34f07ec280c),
    ("A10", 0x5a19cbf1e1d1e60c),
    ("A14", 0x41d4458d99d3dd8a),
    ("A15", 0x53a0462c3dbac158),
    ("blend/IA:0.7+clustered:0.3", 0xd348d63b3aef473d),
];

const METRICS: [(&str, Metric); 10] = [
    ("MaxHops", Metric::MaxHops),
    ("MeanHops", Metric::MeanHops),
    ("MeanLength", Metric::MeanLength),
    ("DeliveryRatio", Metric::DeliveryRatio),
    ("PerimeterEntries", Metric::PerimeterEntries),
    ("BackupEntries", Metric::BackupEntries),
    ("MeanEnergy", Metric::MeanEnergy),
    ("MeanInterference", Metric::MeanInterference),
    ("MeanHopStretch", Metric::MeanHopStretch),
    ("MeanLengthStretch", Metric::MeanLengthStretch),
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

/// The digest of every series of `fig`: its label, its point count and
/// the bits of each point.
fn digest(fig: &Figure) -> u64 {
    let mut h = Fnv::new();
    for s in &fig.series {
        h.word(s.label.len() as u64);
        for b in s.label.bytes() {
            h.word(u64::from(b));
        }
        h.word(s.points.len() as u64);
        for &(x, y) in &s.points {
            h.word(x.to_bits());
            h.word(y.to_bits());
        }
    }
    h.0
}

/// Fails with every mismatching key and the full table of digests
/// computed here, ready to paste over `EXPECTED` when a change to the
/// figures is meant.
fn check(got: &[(String, u64)]) {
    let table: String = got
        .iter()
        .map(|(key, d)| format!("    (\"{key}\", {d:#018x}),\n"))
        .collect();
    let mut wrong = Vec::new();
    for (key, d) in got {
        match EXPECTED.iter().find(|(k, _)| k == key) {
            Some(&(_, want)) if want == *d => {}
            Some(&(_, want)) => wrong.push(format!("{key}: {d:#018x}, recorded {want:#018x}")),
            None => wrong.push(format!("{key}: no recorded digest")),
        }
    }
    assert!(
        wrong.is_empty(),
        "figures differ from their recorded digests:\n{}\ncomputed:\n{table}",
        wrong.join("\n")
    );
}

/// A small sweep of `scenario` as `variant` sets it.
fn sweep(scenario: Scenario, variant: &str) -> SweepConfig {
    let mut cfg = SweepConfig {
        node_counts: vec![300, 450],
        networks_per_point: 3,
        pairs_per_network: 8,
        deployment: scenario,
        base_seed: 0xf16_d16e,
        chaos: None,
        mobility: None,
    };
    match variant {
        "pristine" => {}
        "chaos" => {
            cfg.chaos = Some(ChaosRecipe::parse("region:r=0.15@round5+drop:p=0.05").unwrap());
        }
        "mobility" => {
            cfg.mobility = Some(MobilityRecipe::parse("waypoint:speed=2,ticks=5").unwrap());
        }
        other => unreachable!("no sweep variant {other}"),
    }
    cfg
}

fn sweep_figures_match(scenario: Scenario) {
    let schemes = Scheme::ALL;
    let mut got = Vec::new();
    for variant in ["pristine", "chaos", "mobility"] {
        let results = run_sweep(&sweep(scenario.clone(), variant), &schemes);
        for (name, metric) in METRICS {
            let fig = figures::figure_from_sweep(&results, metric, name);
            got.push((
                format!("{}/{variant}/{name}", scenario.name()),
                digest(&fig),
            ));
        }
    }
    check(&got);
}

#[test]
fn interest_area_sweep_figures_are_as_recorded() {
    sweep_figures_match(Scenario::Ia);
}

#[test]
fn forbidden_area_sweep_figures_are_as_recorded() {
    sweep_figures_match(Scenario::Fa);
}

#[test]
fn failure_mobility_and_chaos_figures_are_as_recorded() {
    let mut got = vec![(
        "A6".to_string(),
        digest(&figures::failure_robustness_figure(
            Scenario::Ia,
            400,
            2,
            &[0.0, 0.1],
        )),
    )];
    let a13 = figures::mobility_staleness_figure(350, 2, 3, &[0.0, 30.0], (1.0, 2.0));
    let a17 = figures::chaos_delivery_family(Scenario::Ia, 300, 2, &figures::CHAOS_FAMILY_SCHEMES);
    for (tag, figs) in [("A13", a13), ("A17", a17)] {
        for (i, fig) in figs.iter().enumerate() {
            got.push((format!("{tag}/{i}"), digest(fig)));
        }
    }
    check(&got);
}

#[test]
fn construction_repair_accuracy_and_lifetime_figures_are_as_recorded() {
    let ia = |base_seed| SweepConfig {
        node_counts: vec![400],
        networks_per_point: 1,
        pairs_per_network: 1,
        deployment: Scenario::Ia,
        base_seed,
        chaos: None,
        mobility: None,
    };
    let mut fa = SweepConfig::quick(Scenario::Fa);
    fa.node_counts = vec![400];
    let lifetime = StreamingConfig {
        flows: 2,
        packet_bits: 1024.0,
        node_energy_nj: 1.6e6,
        max_rounds: 10_000,
    };
    let got = [
        ("A1", figures::construction_cost_figure(&ia(5), 1)),
        (
            "A9",
            figures::maintenance_cost_figure(Scenario::Ia, &[400], 2, 3),
        ),
        ("A10", figures::async_cost_figure(&ia(11), 2)),
        ("A14", figures::estimate_accuracy_figure(&fa, 2)),
        (
            "A15",
            lifetime_figure(250, 1, &[Scheme::Slgf2, Scheme::Gfg], &lifetime),
        ),
    ]
    .map(|(key, fig)| (key.to_owned(), digest(&fig)));
    check(&got);
}

#[test]
fn a_scenario_blend_deploys_as_recorded() {
    let spec = SweepSpec::parse("scenario=IA:0.7+clustered:0.3").unwrap();
    let positions = spec
        .config
        .deployment
        .deploy(&spec.config.deployment_config(401), 7);
    let mut h = Fnv::new();
    h.word(positions.len() as u64);
    for p in &positions {
        h.word(p.x.to_bits());
        h.word(p.y.to_bits());
    }
    check(&[("blend/IA:0.7+clustered:0.3".to_owned(), h.0)]);
}
