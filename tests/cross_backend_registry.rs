//! Registry-driven cross-backend property battery.
//!
//! The paper's Table 4 claim, generalized: at *stable, small-`D`* operating
//! points, every registered backend must agree on the steady-state
//! occupancy within 2 percentage points of the ground truth — not just at
//! the paper's single Table 2 point, but across seeded random parameter
//! draws. The test iterates the [`wsnem::core::BackendRegistry`], so a
//! newly registered backend is automatically held to the same bar.
//!
//! The battery also pins the capability contract: a non-exponential
//! [`ServiceDist`] requested from an analytic backend must return
//! [`CoreError::Unsupported`] — wrong numbers are not an option — while the
//! capable backends (Petri net, DES) must agree with *each other* under the
//! general service law.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::backend::global;
use wsnem::core::{BackendId, CoreError, CpuModelParams, EvalOptions, ServiceDist};
use wsnem::stats::rng::{Rng64, Xoshiro256PlusPlus};

/// A seeded random *stable* parameter point in the regime where all four
/// backends are valid: ρ well below 1, strictly positive `T`/`D`, and `D`
/// small enough that the supplementary-variable approximation holds.
fn random_stable_params(rng: &mut Xoshiro256PlusPlus) -> CpuModelParams {
    let mu = 5.0 + 10.0 * rng.next_f64(); // 5..15 jobs/s
    let rho = 0.05 + 0.4 * rng.next_f64(); // utilization 5%..45%
    let lambda = rho * mu;
    let t = 0.1 + 1.4 * rng.next_f64(); // T in 0.1..1.5 s
    let d = 0.001 + 0.02 * rng.next_f64(); // D in 1..21 ms (small-D regime)
    CpuModelParams::paper_defaults()
        .with_lambda(lambda)
        .with_mu(mu)
        .with_power_down_threshold(t)
        .with_power_up_delay(d)
        .with_replications(6)
        .with_horizon(3000.0)
        .with_warmup(150.0)
        .with_seed(rng.next_u64())
}

#[test]
fn every_registered_backend_agrees_at_stable_points() {
    let registry = global();
    let reference = registry
        .capabilities()
        .iter()
        .find(|c| c.ground_truth)
        .map(|c| c.id)
        .expect("a ground-truth backend is registered");

    let mut rng = Xoshiro256PlusPlus::new(0x7AB1E4);
    for point in 0..4 {
        let params = random_stable_params(&mut rng);
        params.validate().unwrap();
        let truth = registry
            .solve(reference, &params, &EvalOptions::default())
            .unwrap();
        for id in registry.ids() {
            if id == reference {
                continue;
            }
            let eval = registry
                .solve(id, &params, &EvalOptions::default())
                .unwrap_or_else(|e| panic!("point {point}: {id}: {e} ({params:?})"));
            assert_eq!(eval.kind, id);
            assert!(
                eval.fractions.is_normalized(1e-6),
                "point {point}: {id}: {:?}",
                eval.fractions
            );
            let delta = eval.fractions.mean_abs_delta_pct(&truth.fractions);
            assert!(
                delta < 2.0,
                "point {point}: {id} vs {reference}: Δ = {delta:.3} pp at {params:?}"
            );
        }
    }
}

#[test]
fn capabilities_are_consistent_with_behaviour() {
    let registry = global();
    let params = CpuModelParams::paper_defaults()
        .with_replications(2)
        .with_horizon(300.0);
    let deterministic_service = EvalOptions::default().with_service(ServiceDist::Deterministic);
    for solver in registry.iter() {
        let caps = solver.capabilities();
        let result = solver.solve(&params, &deterministic_service);
        if caps.supports_service_dist {
            let eval = result.unwrap_or_else(|e| panic!("{}: {e}", caps.id));
            assert!(eval.fractions.is_normalized(1e-6));
        } else {
            // The satellite contract: Unsupported, never a silent
            // exponential fallback.
            match result {
                Err(CoreError::Unsupported { backend, what }) => {
                    assert_eq!(backend, caps.id);
                    assert!(what.contains("service"), "{what}");
                }
                other => panic!(
                    "{}: expected CoreError::Unsupported, got {other:?}",
                    caps.id
                ),
            }
        }
    }
}

#[test]
fn capable_backends_agree_under_non_exponential_service() {
    // M/G/1 sanity: with deterministic and Erlang-4 service, the Petri net
    // (general-`Dist` SR transition) and the DES must agree within the
    // same 2 pp bar — and utilization must stay ρ regardless of the law.
    let registry = global();
    let params = CpuModelParams::paper_defaults()
        .with_replications(6)
        .with_horizon(3000.0)
        .with_warmup(150.0);
    for service in [ServiceDist::Deterministic, ServiceDist::Erlang { k: 4 }] {
        let opts = EvalOptions::default().with_service(service);
        let pn = registry.solve(BackendId::PetriNet, &params, &opts).unwrap();
        let des = registry.solve(BackendId::Des, &params, &opts).unwrap();
        let delta = pn.fractions.mean_abs_delta_pct(&des.fractions);
        assert!(delta < 2.0, "{service:?}: Δ = {delta:.3} pp");
        for eval in [&pn, &des] {
            assert!(
                (eval.fractions.active - 0.1).abs() < 0.02,
                "{service:?}: active = {}",
                eval.fractions.active
            );
        }
    }
}

#[test]
fn general_exponential_service_cannot_split_the_backends() {
    // Regression: `General { Exponential { rate } }` with rate != mu must
    // NOT slip past the capability gate — the analytic backends would
    // silently solve at mu while the simulators honor the requested rate
    // (observed divergence ~24 pp before the fix). The simulators, which
    // do honor it, must agree with each other at the requested rate.
    use wsnem::stats::dist::Dist;
    let registry = global();
    let params = CpuModelParams::paper_defaults()
        .with_replications(6)
        .with_horizon(3000.0)
        .with_warmup(150.0);
    let slow_exp = EvalOptions::default().with_service(ServiceDist::General {
        dist: Dist::Exponential { rate: 3.0 },
    });
    let err = registry
        .solve(BackendId::Markov, &params, &slow_exp)
        .unwrap_err();
    assert!(matches!(err, CoreError::Unsupported { .. }), "{err}");
    // The exact closed form honours the requested rate: ρ = λ/3 exactly.
    let mg1 = registry.solve(BackendId::Mg1, &params, &slow_exp).unwrap();
    assert!(
        (mg1.fractions.active - 1.0 / 3.0).abs() < 1e-12,
        "active = {}",
        mg1.fractions.active
    );
    let pn = registry
        .solve(BackendId::PetriNet, &params, &slow_exp)
        .unwrap();
    let des = registry.solve(BackendId::Des, &params, &slow_exp).unwrap();
    let delta = pn.fractions.mean_abs_delta_pct(&des.fractions);
    assert!(delta < 2.0, "Δ = {delta:.3} pp");
    // Both honored rate 3: utilization is lambda/3 = 1/3, not lambda/mu.
    for eval in [&pn, &des] {
        assert!(
            (eval.fractions.active - 1.0 / 3.0).abs() < 0.03,
            "active = {} (exponential service must run at the requested \
             rate, not mu)",
            eval.fractions.active
        );
    }
}

/// A different master seed moves the stochastic backends and nothing else.
#[test]
fn eval_option_overrides_change_stochastic_backends_only() {
    let registry = global();
    let params = CpuModelParams::paper_defaults()
        .with_replications(3)
        .with_horizon(500.0);
    for solver in registry.iter() {
        let caps = solver.capabilities();
        let a = solver
            .solve(&params.with_seed(11), &EvalOptions::default())
            .unwrap();
        let b = solver
            .solve(&params.with_seed(12), &EvalOptions::default())
            .unwrap();
        if caps.uses_seed {
            assert_ne!(
                a.fractions, b.fractions,
                "{}: stochastic backend must respond to the seed",
                caps.id
            );
        } else {
            assert_eq!(
                a.fractions, b.fractions,
                "{}: analytic backend must ignore the seed",
                caps.id
            );
        }
    }
}

/// The backends that honour a service law judge stability on λ·E[S] < 1,
/// the mean of the law they solve, not on λ/μ. A `General` law carries its
/// own mean, so λ/μ can be far from the load either way.
#[test]
fn service_law_backends_gate_stability_on_the_laws_mean() {
    use wsnem::stats::dist::Dist;
    let capable = [BackendId::Mg1, BackendId::PetriNet, BackendId::Des];

    // λ/μ = 0.1, but λ·E[S] = 2: unstable.
    let p = CpuModelParams::paper_defaults()
        .with_replications(2)
        .with_horizon(100.0);
    let slow = EvalOptions::default().with_service(ServiceDist::General {
        dist: Dist::Deterministic(2.0),
    });
    for id in capable {
        match global().solve(id, &p, &slow) {
            Err(CoreError::Unsupported { backend, what }) => {
                assert_eq!(backend, id);
                assert!(what.contains("unstable"), "{id}: {what}");
            }
            other => panic!("{id}: expected an unstable rejection, got {other:?}"),
        }
    }

    // λ/μ = 1.2, but λ·E[S] = 0.12: stable.
    let p = p.with_lambda(12.0).with_mu(10.0);
    let fast = EvalOptions::default().with_service(ServiceDist::General {
        dist: Dist::Exponential { rate: 100.0 },
    });
    for id in capable {
        let eval = global()
            .solve(id, &p, &fast)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert!(
            (eval.fractions.active - 0.12).abs() < 0.02,
            "{id}: active {}",
            eval.fractions.active
        );
    }
}

/// At λ = μ every parametric law is unstable, though `λ·fl(1/μ)` rounds to
/// 0.9999999999999999 at 49 and 98. A λ one ulp under μ = 3877 is stable
/// by λ/μ, but `λ·fl(1/μ)` is exactly 1 there, the pole of `Mg1`'s closed
/// form. Every backend that honours a service law rejects all of them.
#[test]
fn parametric_laws_gate_stability_at_rho_one() {
    let capable = [BackendId::Mg1, BackendId::PetriNet, BackendId::Des];
    let laws = [
        ServiceDist::Exponential,
        ServiceDist::Deterministic,
        ServiceDist::Erlang { k: 3 },
    ];
    let base = CpuModelParams::paper_defaults()
        .with_replications(2)
        .with_horizon(100.0);
    for (lambda, mu) in [(49.0, 49.0), (98.0, 98.0), (3876.9999999999995, 3877.0)] {
        let p = base.with_lambda(lambda).with_mu(mu);
        for law in laws {
            let opts = EvalOptions::default().with_service(law);
            for id in capable {
                match global().solve(id, &p, &opts) {
                    Err(CoreError::Unsupported { backend, what }) => {
                        assert_eq!(backend, id);
                        assert!(what.contains("unstable"), "{id}: {what}");
                    }
                    other => {
                        panic!("{id}, {law:?}, λ = {lambda}: expected Unsupported, got {other:?}")
                    }
                }
            }
        }
    }
}
