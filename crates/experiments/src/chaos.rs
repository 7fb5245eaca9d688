//! The chaos classes and the `chaos=` recipe grammar.
//!
//! A **chaos class** turns a parameter list plus a deployed topology
//! into a [`ChaosPlan`] fragment. The four classes cover the failure
//! families of the chaos engine:
//!
//! | class       | spec clause              | keys (default, range) | effect |
//! |-------------|--------------------------|-----------------------|--------|
//! | `region`    | `region:r=0.15@round5`   | `r` (0.15, [0, 1]) | correlated outage: kills every node inside a seeded random disk of radius `r · min(width, height)` at the given round |
//! | `partition` | `partition:len=5@round3` | `len` (5, [0, 10⁶]) | severs every link crossing a seeded random chord of the area for `len` rounds |
//! | `drop`      | `drop:p=0.01,jitter=2`   | `p` (0.01, [0, 1]), `jitter` (0, ≥ 0) | per-link-delivery packet loss with probability `p`, plus up to `jitter` units of extra per-hop delay in the async engine |
//! | `flap`      | `flap:n=2,down=4@round2` | `n` (1, [0, 10⁶]), `down` (5, [0, 10⁶]) | kills `n` seeded random nodes at the round and revives them `down` rounds later |
//!
//! Each class declares its keys as [`ParamSpec`]s, and
//! [`ChaosRecipe::parse`] checks every clause against them: an unknown
//! key, a non-finite or out-of-range value, or an `@round` anchor past
//! [`crate::clause::MAX_STEPS`] is a parse error naming the clause, so
//! a hostile spec never reaches a generator.
//!
//! Clauses compose with `+` ([`ChaosPlan::merge`] semantics), so
//! `chaos=region:r=0.15@round5+drop:p=0.01` is a regional outage *and*
//! a lossy network in one plan:
//!
//! ```
//! use sp_experiments::ChaosRecipe;
//! use sp_net::{DeploymentConfig, Network};
//!
//! let recipe = ChaosRecipe::parse("region:r=0.2@round3+drop:p=0.05").unwrap();
//! let cfg = DeploymentConfig::paper_default(300);
//! let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
//! let plan = recipe.build(&net, 7);
//! assert!(!plan.kills_due_at(3).is_empty(), "the disk killed someone");
//! assert!((plan.drop_p() - 0.05).abs() < 1e-12);
//! // Same seed, same plan — chaos is replayable by construction.
//! assert_eq!(plan.kills_due_at(3), recipe.build(&net, 7).kills_due_at(3));
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_geom::Point;
use sp_net::Network;
use sp_sim::{ChaosPlan, CutWindow};

use crate::clause::{self, ParamSpec, MAX_STEPS};

/// Salt folded into every recipe seed so chaos RNG streams never
/// collide with deployment or flow sampling streams.
const CHAOS_SEED_SALT: u64 = 0xc4a0_0bad_cafe;

/// Everything a chaos generator may observe while building its plan
/// fragment: the deployed topology, a pre-salted seed unique to the
/// clause, the clause's `@round` anchor, and its `k=v` parameters.
struct ChaosArgs<'a> {
    net: &'a Network,
    seed: u64,
    round: usize,
    params: &'a [(String, f64)],
    specs: &'static [ParamSpec],
}

impl ChaosArgs<'_> {
    /// The clause parameter `key`, or its declared default when the
    /// clause omits it. Given values were range-checked at parse time.
    fn param(&self, key: &str) -> f64 {
        clause::param(self.params, self.specs, key)
    }
}

/// One chaos class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosClass {
    /// Correlated regional outage: a seeded random disk of nodes dies.
    Region,
    /// Network partition: a seeded random chord severs crossing links
    /// for a round window.
    Partition,
    /// Lossy links: probabilistic per-link-delivery packet drop.
    Drop,
    /// Flapping nodes: killed at the anchor round, revived later.
    Flap,
}

impl ChaosClass {
    /// Every class, in the order errors list them.
    pub const ALL: [ChaosClass; 4] = [
        ChaosClass::Region,
        ChaosClass::Partition,
        ChaosClass::Drop,
        ChaosClass::Flap,
    ];

    /// The name a `chaos=` clause starts with.
    pub fn name(self) -> &'static str {
        match self {
            ChaosClass::Region => "region",
            ChaosClass::Partition => "partition",
            ChaosClass::Drop => "drop",
            ChaosClass::Flap => "flap",
        }
    }

    /// The class named `name`, if any.
    pub fn by_name(name: &str) -> Option<ChaosClass> {
        ChaosClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Every key this class's clauses may set, with its default and
    /// accepted range.
    pub fn params(self) -> &'static [ParamSpec] {
        match self {
            ChaosClass::Region => REGION,
            ChaosClass::Partition => PARTITION,
            ChaosClass::Drop => DROP,
            ChaosClass::Flap => FLAP,
        }
    }

    /// Builds this class's plan fragment.
    fn build(self, args: &ChaosArgs<'_>) -> ChaosPlan {
        match self {
            ChaosClass::Region => region_outage(args),
            ChaosClass::Partition => partition_cut(args),
            ChaosClass::Drop => lossy_links(args),
            ChaosClass::Flap => flapping_nodes(args),
        }
    }
}

// ---------------------------------------------------------------------
// The generators.

const STEPS: f64 = MAX_STEPS as f64;
const REGION: &[ParamSpec] = &[ParamSpec::new("r", 0.15, 0.0, 1.0)];
const PARTITION: &[ParamSpec] = &[ParamSpec::new("len", 5.0, 0.0, STEPS)];
const DROP: &[ParamSpec] = &[
    ParamSpec::new("p", 0.01, 0.0, 1.0),
    ParamSpec::new("jitter", 0.0, 0.0, f64::INFINITY),
];
const FLAP: &[ParamSpec] = &[
    ParamSpec::new("n", 1.0, 0.0, STEPS),
    ParamSpec::new("down", 5.0, 0.0, STEPS),
];

/// `region:r=0.15@roundN`: kills every node within a disk of radius
/// `r · min(width, height)` around a seeded random center.
fn region_outage(args: &ChaosArgs<'_>) -> ChaosPlan {
    let r = args.param("r");
    let area = args.net.area();
    let radius = r * area.width().min(area.height());
    let mut rng = StdRng::seed_from_u64(args.seed);
    let center = Point::new(
        rng.random_range(area.min().x..=area.max().x),
        rng.random_range(area.min().y..=area.max().y),
    );
    let mut plan = ChaosPlan::new().with_seed(args.seed);
    for u in args.net.node_ids() {
        if args.net.position(u).distance(center) <= radius {
            plan.kill_at(args.round, u);
        }
    }
    plan
}

/// `partition:len=5@roundN`: severs every link crossing a seeded random
/// chord (vertical or horizontal, through the middle half of the area)
/// for `len` rounds starting at the anchor.
fn partition_cut(args: &ChaosArgs<'_>) -> ChaosPlan {
    let len = (args.param("len") as usize).max(1);
    let area = args.net.area();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let vertical = rng.random_bool(0.5);
    // Stay in the middle half so the cut actually crosses the network
    // instead of clipping a corner.
    let frac = rng.random_range(0.25..=0.75);
    let (a, b) = if vertical {
        let x = area.min().x + frac * area.width();
        (
            Point::new(x, area.min().y - 1.0),
            Point::new(x, area.max().y + 1.0),
        )
    } else {
        let y = area.min().y + frac * area.height();
        (
            Point::new(area.min().x - 1.0, y),
            Point::new(area.max().x + 1.0, y),
        )
    };
    let mut plan = ChaosPlan::new().with_seed(args.seed);
    plan.add_cut(CutWindow {
        a,
        b,
        from_round: args.round,
        until_round: args.round + len,
    });
    plan
}

/// `drop:p=0.01,jitter=2`: per-link-delivery loss probability, plus a
/// per-hop delay jitter bound honored by the async engine's heap.
fn lossy_links(args: &ChaosArgs<'_>) -> ChaosPlan {
    ChaosPlan::new()
        .with_seed(args.seed)
        .with_drop(args.param("p"))
        .with_jitter(args.param("jitter"))
}

/// `flap:n=1,down=5@roundN`: kills `n` seeded random nodes at the
/// anchor round and revives them `down` rounds later.
fn flapping_nodes(args: &ChaosArgs<'_>) -> ChaosPlan {
    let n = (args.param("n") as usize).min(args.net.len());
    let down = (args.param("down") as usize).max(1);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut ids: Vec<u32> = (0..args.net.len() as u32).collect();
    let mut plan = ChaosPlan::new().with_seed(args.seed);
    for _ in 0..n {
        let i = rng.random_range(0..ids.len());
        let victim = sp_net::NodeId(ids.swap_remove(i));
        plan.kill_at(args.round, victim);
        plan.revive_at(args.round + down, victim);
    }
    plan
}

// ---------------------------------------------------------------------
// The recipe: parsed clause list.

/// One parsed `name[:k=v,…][@roundN]` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosClause {
    /// The class the name resolved to.
    pub class: ChaosClass,
    /// `k=v` parameters in clause order.
    pub params: Vec<(String, f64)>,
    /// The `@roundN` anchor (0 when unspecified).
    pub round: usize,
}

/// A parsed `chaos=` recipe: an ordered clause list, buildable into one
/// merged [`ChaosPlan`] per network instance. Plans are deterministic
/// in `(recipe, topology, seed)` — rerunning a sweep replays the exact
/// same failures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosRecipe {
    /// The clauses, in spec order.
    pub clauses: Vec<ChaosClause>,
}

impl ChaosRecipe {
    /// Parses `name[:k=v,…][@roundN]` clauses joined by `+`, e.g.
    /// `region:r=0.15@round5+drop:p=0.01`. Each clause's keys must be
    /// declared by its class and hold finite values in range, and `N`
    /// is at most [`MAX_STEPS`].
    pub fn parse(value: &str) -> Result<ChaosRecipe, String> {
        let mut clauses = Vec::new();
        for tok in value.split('+') {
            let tok = tok.trim();
            if tok.is_empty() {
                return Err(format!("chaos {value:?}: empty clause"));
            }
            let (head, round) = match tok.split_once('@') {
                Some((head, anchor)) => {
                    let n = anchor
                        .strip_prefix("round")
                        .and_then(|n| n.parse::<usize>().ok())
                        .filter(|&n| n <= MAX_STEPS)
                        .ok_or_else(|| {
                            format!(
                                "chaos clause {tok:?}: anchor {anchor:?} is not roundN \
                                 with N <= {MAX_STEPS}"
                            )
                        })?;
                    (head, n)
                }
                None => (tok, 0),
            };
            let (name, params) = clause::split(head);
            let class = ChaosClass::by_name(name).ok_or_else(|| {
                clause::unknown("chaos class", name, ChaosClass::ALL.map(ChaosClass::name))
            })?;
            let what = format!("chaos clause {tok:?}");
            let params = clause::parse_params(&what, params, class.params())?;
            clauses.push(ChaosClause {
                class,
                params,
                round,
            });
        }
        Ok(ChaosRecipe { clauses })
    }

    /// True when no clauses were given — builds quiet plans.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Builds the merged plan for one network instance. Each clause
    /// gets its own salted RNG stream (position-dependent), so
    /// reordering clauses changes the draw streams but a fixed recipe
    /// replays exactly.
    pub fn build(&self, net: &Network, seed: u64) -> ChaosPlan {
        let mut plan = ChaosPlan::new().with_seed(seed ^ CHAOS_SEED_SALT);
        for (idx, clause) in self.clauses.iter().enumerate() {
            let args = ChaosArgs {
                net,
                seed: seed
                    ^ CHAOS_SEED_SALT
                    ^ ((idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                round: clause.round,
                params: &clause.params,
                specs: clause.class.params(),
            };
            plan.merge(&clause.class.build(&args));
        }
        plan
    }

    /// The canonical spec form, e.g. `region:r=0.15@round5+drop:p=0.01`.
    pub fn spec_string(&self) -> String {
        self.clauses
            .iter()
            .map(|c| {
                let mut s = clause::render(c.class.name(), &c.params);
                if c.round > 0 {
                    s.push_str(&format!("@round{}", c.round));
                }
                s
            })
            .collect::<Vec<_>>()
            .join("+")
    }
}

impl std::fmt::Display for ChaosRecipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::DeploymentConfig;

    fn net(n: usize, seed: u64) -> Network {
        let cfg = DeploymentConfig::paper_default(n);
        Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
    }

    #[test]
    fn names_and_lookup_cover_every_chaos_class() {
        assert_eq!(ChaosClass::Region.name(), "region");
        assert_eq!(ChaosClass::Partition.name(), "partition");
        assert_eq!(ChaosClass::Drop.name(), "drop");
        assert_eq!(ChaosClass::Flap.name(), "flap");
        assert_eq!(ChaosClass::by_name("drop"), Some(ChaosClass::Drop));
        assert_eq!(ChaosClass::by_name("meteor"), None);
        assert_eq!(ChaosClass::ALL.len(), 4);
    }

    #[test]
    fn recipe_grammar_round_trips() {
        let r =
            ChaosRecipe::parse("region:r=0.2@round5+drop:p=0.01+flap:n=2,down=4@round2").unwrap();
        assert_eq!(r.clauses.len(), 3);
        assert_eq!(r.clauses[0].class, ChaosClass::Region);
        assert_eq!(r.clauses[0].round, 5);
        assert_eq!(r.clauses[0].params, vec![("r".to_owned(), 0.2)]);
        assert_eq!(r.clauses[1].round, 0);
        assert_eq!(r.clauses[2].params.len(), 2);
        assert_eq!(
            r.spec_string(),
            "region:r=0.2@round5+drop:p=0.01+flap:n=2,down=4@round2"
        );
        assert_eq!(ChaosRecipe::parse(&r.spec_string()).unwrap(), r);
    }

    #[test]
    fn drop_clause_carries_loss_and_jitter() {
        let net = net(100, 1);
        let plan = ChaosRecipe::parse("drop:p=0.02,jitter=1.5")
            .unwrap()
            .build(&net, 9);
        assert!((plan.drop_p() - 0.02).abs() < 1e-12);
        assert!((plan.jitter() - 1.5).abs() < 1e-12);
        // Jitter defaults off, keeping a pure drop clause quiet at p=0.
        let quiet = ChaosRecipe::parse("drop:p=0").unwrap().build(&net, 9);
        assert!(quiet.is_quiet(), "p=0 with no jitter schedules nothing");
    }

    #[test]
    fn parse_errors_name_the_clause() {
        for (spec, needle) in [
            ("meteor:x=1", "unknown chaos class"),
            ("region@r5", "not roundN"),
            ("drop:p", "not k=v"),
            ("drop:p=zebra", "not a number"),
            ("+drop:p=0.1", "empty clause"),
            ("drop:p=2", "must be finite and in [0.0, 1.0]"),
            ("drop:p=NaN", "must be finite"),
            ("drop:jitter=-1", "must be finite"),
            ("drop:jitter=inf", "must be finite"),
            ("region:r=1.5", "must be finite"),
            ("drop:prob=0.5", "unknown key \"prob\" (keys: p, jitter)"),
            ("partition:len=1e30@round5", "must be finite"),
            ("flap:n=-1", "must be finite"),
            ("flap:down=1e30", "must be finite"),
            ("region@round1000001", "not roundN"),
            ("region@round99999999999999999999999", "not roundN"),
        ] {
            let err = ChaosRecipe::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn region_kills_a_disk_deterministically() {
        let net = net(400, 3);
        let recipe = ChaosRecipe::parse("region:r=0.25@round2").unwrap();
        let plan = recipe.build(&net, 3);
        let killed = plan.kills_due_at(2);
        assert!(!killed.is_empty(), "a quarter-area disk hits someone");
        assert!(killed.len() < net.len(), "but not everyone");
        assert_eq!(killed, recipe.build(&net, 3).kills_due_at(2));
        // A different seed moves the disk.
        assert_ne!(killed, recipe.build(&net, 4).kills_due_at(2));
    }

    #[test]
    fn partition_cut_severs_some_links() {
        let net = net(400, 5);
        let plan = ChaosRecipe::parse("partition:len=3@round1")
            .unwrap()
            .build(&net, 5);
        assert_eq!(plan.cuts().len(), 1);
        assert!(plan.links_perturbed_at(1));
        assert!(plan.links_perturbed_at(3));
        assert!(!plan.links_perturbed_at(4), "window closed");
        let severed = net
            .edges()
            .filter(|&(u, v)| plan.severed_at(1, net.position(u), net.position(v)))
            .count();
        assert!(severed > 0, "a mid-area chord crosses links");
    }

    #[test]
    fn flap_schedules_matching_kill_and_revival() {
        let net = net(300, 9);
        let plan = ChaosRecipe::parse("flap:n=3,down=4@round2")
            .unwrap()
            .build(&net, 9);
        assert_eq!(plan.kills_due_at(2).len(), 3);
        assert_eq!(plan.revivals_due_at(6), plan.kills_due_at(2));
        assert_eq!(plan.dead_as_of(5), plan.kills_due_at(2).to_vec());
        assert!(plan.dead_as_of(6).is_empty(), "everyone came back");
    }

    #[test]
    fn empty_recipe_builds_a_quiet_plan() {
        let net = net(200, 1);
        let plan = ChaosRecipe::default().build(&net, 1);
        assert!(plan.is_quiet());
    }
}
