//! Cross-crate property-based tests: invariants that must hold for *any*
//! parameter combination, not just the paper's.
//!
//! Random parameter draws are hand-rolled over the workspace RNG (the build
//! is offline, without proptest); each case is reproducible from its index.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::{backend, BackendId, CpuModelParams, EvalOptions, ModelEvaluation};
use wsnem::energy::{energy_eq25, PowerProfile, StateFractions};
use wsnem::petri::analysis::{incidence_matrix, p_semiflows};
use wsnem::stats::rng::{Rng64, StreamFactory};

/// Solve `params` on one backend through the global registry.
fn solve(id: BackendId, params: CpuModelParams, threads: Option<usize>) -> ModelEvaluation {
    let opts = EvalOptions::default().with_threads(threads);
    backend::global().solve(id, &params, &opts).unwrap()
}

mod helpers {
    pub use wsnem::core::build_cpu_edspn;
}

fn uniform<R: Rng64>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn arb_params<R: Rng64>(rng: &mut R) -> CpuModelParams {
    let lambda = uniform(rng, 0.2, 2.0);
    let rho = uniform(rng, 0.05, 0.8);
    let t = uniform(rng, 0.0, 1.5);
    let d = uniform(rng, 0.0, 2.0);
    let seed = 1 + rng.next_bounded(999);
    CpuModelParams::paper_defaults()
        .with_lambda(lambda)
        .with_mu(lambda / rho)
        .with_power_down_threshold(t)
        .with_power_up_delay(d)
        .with_replications(2)
        .with_horizon(300.0)
        .with_warmup(20.0)
        .with_seed(seed)
}

fn cases(stream: u64, n: u64) -> impl Iterator<Item = (u64, CpuModelParams)> {
    let factory = StreamFactory::new(0x5EED_C0DE ^ stream);
    (0..n).map(move |i| {
        let mut rng = factory.stream(i);
        (i, arb_params(&mut rng))
    })
}

/// Every model yields normalized fractions for any stable parameters.
#[test]
fn all_models_normalize() {
    for (i, params) in cases(1, 24) {
        let m = solve(BackendId::Markov, params, None);
        assert!(
            m.fractions.is_normalized(1e-9),
            "case {i} markov: {:?}",
            m.fractions
        );
        let d = solve(BackendId::Des, params, Some(1));
        assert!(
            d.fractions.is_normalized(1e-6),
            "case {i} des: {:?}",
            d.fractions
        );
        let p = solve(BackendId::PetriNet, params, Some(1));
        assert!(
            p.fractions.is_normalized(1e-6),
            "case {i} petri: {:?}",
            p.fractions
        );
    }
}

/// Energy is bounded by the extreme state powers times the horizon.
#[test]
fn energy_physically_bounded() {
    let factory = StreamFactory::new(0x5EED_C0DE ^ 2);
    for i in 0..24 {
        let mut rng = factory.stream(i);
        let params = arb_params(&mut rng);
        let horizon = uniform(&mut rng, 1.0, 5000.0);
        let profile = PowerProfile::pxa271();
        let eval = solve(BackendId::Markov, params, None);
        let e = eval.energy_joules(&profile, horizon);
        let lo = 17.0 * horizon / 1000.0;
        let hi = 193.0 * horizon / 1000.0;
        assert!(
            e >= lo - 1e-9 && e <= hi + 1e-9,
            "case {i}: e = {e}, bounds [{lo}, {hi}]"
        );
    }
}

/// The DES keeps utilization within noise of ρ whenever the system is
/// stable — regardless of T and D (all work is eventually served).
#[test]
fn des_utilization_tracks_rho() {
    for (i, params) in cases(3, 24) {
        let params = params.with_horizon(2000.0).with_replications(3);
        let d = solve(BackendId::Des, params, Some(1));
        let rho = params.rho();
        assert!(
            (d.fractions.active - rho).abs() < 0.05 + 0.1 * rho,
            "case {i}: active {} vs rho {rho}",
            d.fractions.active
        );
    }
}

/// Fig. 3 net invariants hold for every parameterization.
#[test]
fn cpu_net_invariants_parameter_free() {
    let factory = StreamFactory::new(0x5EED_C0DE ^ 4);
    for i in 0..24 {
        let mut rng = factory.stream(i);
        let lambda = uniform(&mut rng, 0.1, 3.0);
        let mu = uniform(&mut rng, 4.0, 40.0);
        let t = uniform(&mut rng, 0.001, 2.0);
        let d = uniform(&mut rng, 0.001, 2.0);
        let (net, _) = helpers::build_cpu_edspn(lambda, mu, t, d).unwrap();
        let inv = p_semiflows(&net).unwrap();
        assert_eq!(inv.len(), 3, "case {i}: exactly three minimal P-invariants");
        // Each invariant annihilates the incidence matrix.
        let c = incidence_matrix(&net);
        for x in &inv {
            for tcol in 0..net.n_transitions() {
                let dot: i64 = c.iter().zip(x).map(|(row, &w)| w as i64 * row[tcol]).sum();
                assert_eq!(dot, 0, "case {i}");
            }
        }
    }
}

/// The Petri net and the DES are independent implementations of the
/// same stochastic system: their occupancy estimates must agree within
/// Monte-Carlo noise for ANY stable parameter set.
#[test]
fn petri_and_des_statistically_equivalent() {
    for (i, params) in cases(5, 24) {
        let params = params.with_horizon(1500.0).with_replications(3);
        let pn = solve(BackendId::PetriNet, params, Some(1));
        let des = solve(BackendId::Des, params, Some(1));
        let delta = pn.fractions.mean_abs_delta_pct(&des.fractions);
        assert!(
            delta < 4.0,
            "case {i}: PN {:?} vs DES {:?} -> {delta} pp",
            pn.fractions,
            des.fractions
        );
    }
}

/// Eq. 25 is linear in time and monotone in occupancy-weighted power.
#[test]
fn eq25_linearity() {
    let factory = StreamFactory::new(0x5EED_C0DE ^ 6);
    for i in 0..24 {
        let mut rng = factory.stream(i);
        let s = uniform(&mut rng, 0.0, 1.0);
        let pu = uniform(&mut rng, 0.0, 1.0);
        let time = uniform(&mut rng, 0.1, 1e4);
        let total = s + pu;
        let (s, pu) = if total > 1.0 {
            (s / total, pu / total)
        } else {
            (s, pu)
        };
        let idle = (1.0 - s - pu).max(0.0) * 0.5;
        let active = (1.0 - s - pu).max(0.0) * 0.5;
        let fr = StateFractions::new(s, pu, idle, active);
        let p = PowerProfile::pxa271();
        let e1 = energy_eq25(&fr, &p, time).total_mj;
        let e2 = energy_eq25(&fr, &p, 2.0 * time).total_mj;
        assert!((e2 - 2.0 * e1).abs() < 1e-9 * e1.abs().max(1.0), "case {i}");
    }
}
