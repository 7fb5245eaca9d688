//! The declarative-experiment acceptance test: a parameterized scheme
//! family and a custom scenario register in one place each, and the
//! spec-string front end resolves both straight into `run_sweep` — no
//! edits anywhere but the registration site.

use sp_core::Slgf2Router;
use sp_experiments::{Scenario, Scheme, SchemeFamily, SweepSpec};
use sp_net::deploy::{CorridorModel, DeploymentConfig};

#[test]
fn spec_drives_a_registered_family_and_scenario_end_to_end() {
    // === The registration site (the ONLY edit an experimenter makes) ===
    // A TTL-policy ablation family: three variants, one call.
    let family = SchemeFamily::new("E2E-SLGF2")
        .sweep(
            [("ttl=1n", 1.0), ("ttl=2n", 2.0), ("ttl=4n", 4.0)],
            |&m, ctx| Box::new(Slgf2Router::new(ctx.info).with_ttl_multiplier(m)),
        )
        .register();
    assert_eq!(family.len(), 3);
    // A custom deployment: a wide corridor, its model captured by the
    // generator closure.
    let wide = CorridorModel { width_radii: 4.0 };
    let scenario = Scenario::register("E2E-wide-corridor", move |cfg: &DeploymentConfig, seed| {
        cfg.deploy_corridor(&wide, seed)
    });
    // ===================================================================

    // A one-line spec resolves the runtime registrations by name…
    let spec = SweepSpec::parse(
        "scenario=E2E-wide-corridor;nodes=400,500;nets=3;seed=77;\
         schemes=E2E-SLGF2[ttl=1n]+E2E-SLGF2[ttl=2n]+E2E-SLGF2[ttl=4n]+SLGF2",
    )
    .expect("runtime registrations are addressable from a spec");
    assert_eq!(spec.config.deployment, scenario);
    assert_eq!(spec.schemes.len(), 4);
    assert_eq!(spec.schemes[..3], family[..]);

    // …and the resolved sweep runs through the ordinary parallel
    // runner: every variant routed on every instance of the custom
    // deployment.
    let results = spec.run();
    assert_eq!(results.deployment_tag, "E2E-wide-corridor");
    assert_eq!(results.points.len(), 2);
    for point in &results.points {
        assert_eq!(point.schemes.len(), 4);
        for sp in &point.schemes {
            assert_eq!(sp.quality.routes, 3, "{}", sp.scheme);
        }
    }

    // The captured payloads are live, not decorative: a 1n hop budget
    // can only lose routes relative to 4n, never gain, and the 4n
    // variant must agree with the stock SLGF2 (same multiplier).
    for point in &results.points {
        let d1 = point.schemes[0].quality.delivered;
        let d4 = point.schemes[2].quality.delivered;
        let stock = point.schemes[3].quality.delivered;
        assert!(d1 <= d4, "ttl=1n delivered {d1} > ttl=4n {d4}");
        assert_eq!(d4, stock, "ttl=4n must match stock SLGF2");
        let hops = |i: usize| -> Vec<usize> {
            point.schemes[i]
                .delivered_routes
                .iter()
                .map(|r| r.route.hops)
                .collect()
        };
        assert_eq!(hops(2), hops(3));
    }

    // Determinism holds through the spec path too.
    let again = SweepSpec::parse(
        "scenario=E2E-wide-corridor;nodes=400,500;nets=3;seed=77;schemes=E2E-SLGF2[ttl=2n]",
    )
    .unwrap()
    .run();
    assert_eq!(
        again.points[0].schemes[0].delivered_routes,
        results.points[0]
            .scheme(family[1])
            .expect("ttl=2n in first run")
            .delivered_routes
    );
}

#[test]
fn family_collisions_surface_through_try_register() {
    let first = SchemeFamily::new("E2E-collide")
        .variant("a", |ctx| Box::new(Slgf2Router::new(ctx.info)))
        .try_register()
        .expect("fresh name registers");
    assert_eq!(first.len(), 1);
    let err = SchemeFamily::new("E2E-collide")
        .variant("a", |ctx| Box::new(Slgf2Router::new(ctx.info)))
        .variant("b", |ctx| Box::new(Slgf2Router::new(ctx.info)))
        .try_register()
        .expect_err("colliding family is rejected whole");
    assert!(err.contains("registered twice"), "{err}");
    assert_eq!(
        Scheme::by_name("E2E-collide[b]"),
        None,
        "no partial registration"
    );
}
