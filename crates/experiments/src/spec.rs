//! The spec-string front end: one line of text → a resolved sweep.
//!
//! A spec is a `;`-separated list of `key=value` clauses:
//!
//! ```text
//! scenario=corridor;nodes=400..800:50;nets=100;schemes=PAPER+SLGF2-noBP
//! ```
//!
//! | key        | value                                            | default |
//! |------------|--------------------------------------------------|---------|
//! | `scenario` | a scenario name (`IA`, `FA`, …) or a weighted blend `IA:0.7+clustered:0.3` | `IA`    |
//! | `nodes`    | `lo..hi:step` (inclusive), a comma list, or one value | the paper's `400..800:50` |
//! | `nets`     | networks per node count                          | `100`   |
//! | `pairs`    | source/destination pairs per network, each routed through every scheme | `1`     |
//! | `flows`    | an alias of `pairs`; a spec naming both keeps the last | `1`     |
//! | `seed`     | base seed (decimal or `0x…`)                     | the paper sweeps' seed |
//! | `schemes`  | `+`-separated scheme names; `PAPER`, `EXTENDED`, and `ALL` expand to the corresponding sets | `PAPER` |
//! | `chaos`    | a `+`-joined [`ChaosRecipe`], e.g. `region:r=0.15@round5+drop:p=0.01` | none |
//! | `mobility` | a [`MobilityRecipe`], e.g. `waypoint:speed=2`    | none    |
//!
//! Scenario, scheme, chaos-class, and mobility-model names resolve
//! against the closed sets of [`Scenario`], [`Scheme`],
//! [`crate::ChaosClass`] and [`MobilityRecipe`]; an unknown name is an
//! error that lists the known ones. A scenario **blend** like
//! `IA:0.7+clustered:0.3` deploys each component's weighted share of
//! the nodes into the same area and is named by its own spec text
//! ([`Scenario::parse`]).

use crate::{run_sweep, ChaosRecipe, MobilityRecipe, Scenario, Scheme, SweepConfig, SweepResults};

/// A parse or resolution failure, with the offending clause quoted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A fully resolved sweep: the configuration plus the scheme set, ready
/// for [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The sweep configuration.
    pub config: SweepConfig,
    /// The schemes to route, in spec order.
    pub schemes: Vec<Scheme>,
}

impl SweepSpec {
    /// Parses a spec string, resolving scenario and scheme names.
    pub fn parse(spec: &str) -> Result<SweepSpec, SpecError> {
        let mut config = SweepConfig::paper_ia();
        let mut schemes: Vec<Scheme> = Scheme::PAPER_SET.to_vec();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| SpecError(format!("clause {clause:?} is not key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "scenario" => config.deployment = Scenario::parse(value).map_err(SpecError)?,
                "nodes" => config.node_counts = parse_nodes(value)?,
                "nets" => config.networks_per_point = parse_count(key, value)?,
                "pairs" | "flows" => config.pairs_per_network = parse_count(key, value)?,
                "seed" => {
                    config.base_seed = parse_u64(value)
                        .ok_or_else(|| SpecError(format!("seed {value:?} is not a number")))?;
                }
                "schemes" => schemes = parse_schemes(value)?,
                "chaos" => config.chaos = Some(ChaosRecipe::parse(value).map_err(SpecError)?),
                "mobility" => {
                    config.mobility = Some(MobilityRecipe::parse(value).map_err(SpecError)?);
                }
                other => {
                    return Err(SpecError(format!(
                    "unknown key {other:?} (expected scenario/nodes/nets/pairs/flows/seed/schemes/chaos/mobility)"
                )))
                }
            }
        }
        if config.node_counts.is_empty() {
            return Err(SpecError("nodes resolved to an empty list".to_owned()));
        }
        Ok(SweepSpec { config, schemes })
    }

    /// Runs the resolved sweep.
    pub fn run(&self) -> SweepResults {
        run_sweep(&self.config, &self.schemes)
    }
}

/// `lo..hi:step` (both ends inclusive), a comma list, or one value.
fn parse_nodes(value: &str) -> Result<Vec<usize>, SpecError> {
    if let Some((range, step)) = value.split_once(':') {
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| SpecError(format!("nodes {value:?}: expected lo..hi:step")))?;
        let lo = parse_usize(lo)
            .filter(|&n| n > 0)
            .ok_or_else(|| SpecError(format!("nodes {value:?}: bad lower bound")))?;
        let hi = parse_usize(hi)
            .ok_or_else(|| SpecError(format!("nodes {value:?}: bad upper bound")))?;
        let step = parse_usize(step)
            .filter(|&s| s > 0)
            .ok_or_else(|| SpecError(format!("nodes {value:?}: step must be a positive number")))?;
        if lo > hi {
            return Err(SpecError(format!("nodes {value:?}: empty range")));
        }
        return Ok((lo..=hi).step_by(step).collect());
    }
    if value.contains("..") {
        return Err(SpecError(format!(
            "nodes {value:?}: a range needs a step, e.g. 400..800:50"
        )));
    }
    value
        .split(',')
        .map(|tok| {
            parse_usize(tok)
                .filter(|&n| n > 0)
                .ok_or_else(|| SpecError(format!("nodes {value:?}: bad count {tok:?}")))
        })
        .collect()
}

/// `+`-separated scheme names with the `PAPER`/`EXTENDED`/`ALL` macros.
fn parse_schemes(value: &str) -> Result<Vec<Scheme>, SpecError> {
    let mut out = Vec::new();
    for tok in value.split('+') {
        let tok = tok.trim();
        match tok {
            "" => return Err(SpecError(format!("schemes {value:?}: empty name"))),
            "PAPER" => out.extend(Scheme::PAPER_SET),
            "EXTENDED" => out.extend(Scheme::EXTENDED_SET),
            "ALL" => out.extend(Scheme::ALL),
            name => out.push(Scheme::by_name(name).ok_or_else(|| {
                SpecError(crate::clause::unknown(
                    "scheme",
                    name,
                    Scheme::ALL.map(Scheme::name),
                ))
            })?),
        }
    }
    // Membership dedup (macros overlap, e.g. PAPER+SLGF2): a repeated
    // scheme would be routed twice and plotted as two identical curves.
    let mut seen = std::collections::BTreeSet::new();
    out.retain(|s| seen.insert(*s));
    Ok(out)
}

fn parse_count(key: &str, value: &str) -> Result<usize, SpecError> {
    parse_usize(value)
        .filter(|&n| n > 0)
        .ok_or_else(|| SpecError(format!("{key} {value:?} is not a positive number")))
}

fn parse_usize(tok: &str) -> Option<usize> {
    tok.trim().parse().ok()
}

fn parse_u64(tok: &str) -> Option<u64> {
    let tok = tok.trim();
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        tok.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_ia_sweep() {
        let spec = SweepSpec::parse("").unwrap();
        assert_eq!(spec.config, SweepConfig::paper_ia());
        assert_eq!(spec.schemes, Scheme::PAPER_SET.to_vec());
    }

    #[test]
    fn full_spec_resolves_every_clause() {
        let spec = SweepSpec::parse(
            "scenario=corridor;nodes=400..800:50;nets=12;pairs=2;seed=0xabc;schemes=PAPER+SLGF2-noBP",
        )
        .unwrap();
        assert_eq!(spec.config.deployment, Scenario::Corridor);
        assert_eq!(
            spec.config.node_counts,
            vec![400, 450, 500, 550, 600, 650, 700, 750, 800]
        );
        assert_eq!(spec.config.networks_per_point, 12);
        assert_eq!(spec.config.pairs_per_network, 2);
        assert_eq!(spec.config.base_seed, 0xabc);
        let mut want = Scheme::PAPER_SET.to_vec();
        want.push(Scheme::Slgf2NoBackup);
        assert_eq!(spec.schemes, want);
    }

    #[test]
    fn node_lists_and_single_values_parse() {
        assert_eq!(
            SweepSpec::parse("nodes=400,600")
                .unwrap()
                .config
                .node_counts,
            vec![400, 600]
        );
        assert_eq!(
            SweepSpec::parse("nodes=500").unwrap().config.node_counts,
            vec![500]
        );
        // The range end is inclusive, mirroring the paper's 400..=800.
        assert_eq!(
            SweepSpec::parse("nodes=400..500:50")
                .unwrap()
                .config
                .node_counts,
            vec![400, 450, 500]
        );
    }

    #[test]
    fn flows_clause_enables_batched_workloads() {
        // `flows=` and `pairs=` set the one flow count; like every
        // repeated key, the last clause wins.
        let spec = SweepSpec::parse("flows=64").unwrap();
        assert_eq!(spec.config.pairs_per_network, 64);
        let spec = SweepSpec::parse("pairs=3").unwrap();
        assert_eq!(spec.config.pairs_per_network, 3);
        let spec = SweepSpec::parse("pairs=3;flows=64").unwrap();
        assert_eq!(spec.config.pairs_per_network, 64);
        let spec = SweepSpec::parse("flows=64;pairs=3").unwrap();
        assert_eq!(spec.config.pairs_per_network, 3);
        assert!(SweepSpec::parse("flows=0").is_err());
    }

    #[test]
    fn flows_spec_runs_a_batched_sweep() {
        let spec = SweepSpec::parse("scenario=IA;nodes=400;nets=2;flows=12;schemes=SLGF2").unwrap();
        let results = spec.run();
        // Every instance routes the whole 12-flow batch.
        assert_eq!(results.points[0].schemes[0].quality.routes, 24);
    }

    #[test]
    fn scheme_macros_expand() {
        let all = SweepSpec::parse("schemes=ALL").unwrap().schemes;
        assert_eq!(all, Scheme::ALL.to_vec());
        let ext = SweepSpec::parse("schemes=EXTENDED").unwrap().schemes;
        assert_eq!(ext, Scheme::EXTENDED_SET.to_vec());
        // Duplicates collapse even when non-adjacent (macro overlap):
        // a repeat would be routed twice and plotted as twin curves.
        let dedup = SweepSpec::parse("schemes=SLGF2+PAPER+GFG+GFG")
            .unwrap()
            .schemes;
        assert_eq!(
            dedup,
            vec![
                Scheme::Slgf2,
                Scheme::Gf,
                Scheme::Lgf,
                Scheme::Slgf,
                Scheme::Gfg
            ]
        );
    }

    #[test]
    fn errors_name_the_offending_clause() {
        for (spec, needle) in [
            ("scenario=nowhere", "unknown scenario"),
            ("schemes=NOPE", "unknown scheme"),
            ("nodes=", "bad count"),
            ("nodes=0", "bad count"),
            ("nodes=0..100:100", "bad lower bound"),
            ("nodes=400..300:50", "empty range"),
            ("nodes=400..800", "needs a step"),
            ("nodes=400..800:0", "step must be"),
            ("nets=0", "positive number"),
            ("seed=zebra", "not a number"),
            ("bogus=1", "unknown key"),
            ("scenario", "not key=value"),
            ("scenario=IA:0.7+nowhere:0.3", "unknown scenario"),
            ("scenario=IA:0.7+clustered", "not name:weight"),
            ("scenario=IA:0+clustered:1", "not a positive number"),
            ("chaos=meteor", "unknown chaos class"),
            ("chaos=drop:p", "not k=v"),
            ("mobility=teleport", "unknown mobility model"),
            ("mobility=waypoint:speed=x", "not a number"),
            ("chaos=drop:p=2", "must be finite"),
            ("chaos=partition:len=1e30@round5", "must be finite"),
            ("mobility=waypoint:ticks=1e30", "must be finite"),
            ("mobility=waypoint:speed=0", "must be finite"),
            ("mobility=waypoint:pace=3", "unknown key"),
        ] {
            let err = SweepSpec::parse(spec).expect_err(spec);
            assert!(err.to_string().contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn chaos_and_mobility_clauses_parse_into_the_config() {
        let spec =
            SweepSpec::parse("chaos=region:r=0.15@round5+drop:p=0.01;mobility=waypoint:speed=2")
                .unwrap();
        let chaos = spec.config.chaos.expect("chaos clause parsed");
        assert_eq!(chaos.spec_string(), "region:r=0.15@round5+drop:p=0.01");
        let mobility = spec.config.mobility.expect("mobility clause parsed");
        assert_eq!(mobility.spec_string(), "waypoint:speed=2");
        // Unset keys stay pristine — the rate-0 bit-identity baseline.
        let plain = SweepSpec::parse("").unwrap();
        assert_eq!(plain.config.chaos, None);
        assert_eq!(plain.config.mobility, None);
    }

    #[test]
    fn scenario_blends_parse_to_equal_values() {
        let spec = SweepSpec::parse("scenario=IA:0.7+clustered:0.3;nodes=400").unwrap();
        let blend = spec.config.deployment.clone();
        assert_eq!(blend.name(), "IA:0.7+clustered:0.3");
        // Re-parsing yields an equal scenario.
        let again = SweepSpec::parse("scenario=IA:0.7+clustered:0.3").unwrap();
        assert_eq!(again.config.deployment, blend);
        // Shares sum exactly to the node count and replay per seed.
        let cfg = spec.config.deployment_config(401);
        let pts = blend.deploy(&cfg, 7);
        assert_eq!(pts.len(), 401);
        assert_eq!(pts, blend.deploy(&cfg, 7));
        for p in &pts {
            assert!(cfg.area.contains(*p), "{p} escaped the area");
        }
        // The uniform 70% share makes the blend differ from pure
        // clustering, and the clustered 30% from pure uniform.
        assert_ne!(pts, Scenario::Ia.deploy(&cfg, 7));
        assert_ne!(pts, Scenario::Clustered.deploy(&cfg, 7));
    }

    #[test]
    fn spec_runs_end_to_end() {
        let spec = SweepSpec::parse("scenario=clustered;nodes=400;nets=2;schemes=SLGF2").unwrap();
        let results = spec.run();
        assert_eq!(results.deployment_tag, "clustered");
        assert_eq!(results.points.len(), 1);
        assert_eq!(results.points[0].schemes[0].quality.routes, 2);
    }
}
