//! Cross-crate integration: the paper's claims, end-to-end through the
//! facade crate.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::experiments::{table4, ThresholdSweep};
use wsnem::core::{backend, BackendId, CpuModelParams, EvalOptions, ModelEvaluation};
use wsnem::energy::PowerProfile;

/// Solve `params` on one backend through the global registry.
fn solve(id: BackendId, params: CpuModelParams) -> ModelEvaluation {
    backend::global()
        .solve(id, &params, &EvalOptions::default())
        .unwrap()
}

fn budget_params() -> CpuModelParams {
    CpuModelParams::paper_defaults()
        .with_replications(8)
        .with_horizon(3000.0)
        .with_warmup(150.0)
}

/// Paper Fig. 4: all three models agree closely when the power-up delay is
/// negligible.
#[test]
fn three_models_agree_at_small_powerup_delay() {
    let params = budget_params();
    let markov = solve(BackendId::Markov, params);
    let petri = solve(BackendId::PetriNet, params);
    let des = solve(BackendId::Des, params);
    assert!(des.fractions.mean_abs_delta_pct(&markov.fractions) < 1.0);
    assert!(des.fractions.mean_abs_delta_pct(&petri.fractions) < 1.0);
    assert!(petri.fractions.mean_abs_delta_pct(&markov.fractions) < 1.0);
}

/// Paper Tables 4/5 headline: at D = 10 s the Petri net stays faithful to
/// simulation while the supplementary-variable Markov model does not.
#[test]
fn petri_net_beats_markov_at_large_powerup_delay() {
    let params = budget_params().with_power_up_delay(10.0);
    let markov = solve(BackendId::Markov, params);
    let petri = solve(BackendId::PetriNet, params);
    let des = solve(BackendId::Des, params);
    let markov_err = des.fractions.mean_abs_delta_pct(&markov.fractions);
    let petri_err = des.fractions.mean_abs_delta_pct(&petri.fractions);
    assert!(
        markov_err > 5.0 * petri_err,
        "markov {markov_err} pp vs petri {petri_err} pp"
    );
    // The specific failure: utilization must stay near ρ = 0.1 in reality.
    assert!((des.fractions.active - 0.1).abs() < 0.02);
    assert!((petri.fractions.active - 0.1).abs() < 0.02);
    assert!(markov.fractions.active > 0.2, "the documented overestimate");
}

/// Paper §6 "interesting point": at the smallest delay, Markov is at least
/// as close to simulation as the Petri net (both errors are tiny).
#[test]
fn markov_competitive_at_smallest_delay() {
    let rows = table4(budget_params(), &[0.001]).unwrap();
    let row = &rows[0];
    assert!(row.sim_markov < 1.0, "{}", row.sim_markov);
    assert!(row.sim_pn < 1.0, "{}", row.sim_pn);
}

/// Fig. 5 energy ordering: more idle time (larger T) costs more energy on
/// the PXA271, for every model, and all three models agree within a couple
/// of joules at D = 1 ms over 1000 s.
#[test]
fn energy_curves_consistent() {
    let sweep = ThresholdSweep {
        params: budget_params().with_horizon(1000.0).with_warmup(50.0),
        t_values: vec![0.0, 0.5, 1.0],
    }
    .run()
    .unwrap();
    let profile = PowerProfile::pxa271();
    for kind in [BackendId::Des, BackendId::Markov, BackendId::PetriNet] {
        let e = sweep.energy_series(kind, &profile);
        assert!(e[0] < e[1] && e[1] < e[2], "{kind}: {e:?}");
    }
    let sim = sweep.energy_series(BackendId::Des, &profile);
    let mar = sweep.energy_series(BackendId::Markov, &profile);
    let pn = sweep.energy_series(BackendId::PetriNet, &profile);
    for i in 0..sim.len() {
        assert!((sim[i] - mar[i]).abs() < 2.0);
        assert!((sim[i] - pn[i]).abs() < 2.0);
    }
}

/// §6 cost claim: the Markov evaluation is orders of magnitude cheaper than
/// either simulation.
#[test]
fn markov_evaluation_is_orders_of_magnitude_faster() {
    let params = budget_params();
    let markov = solve(BackendId::Markov, params);
    let petri = solve(BackendId::PetriNet, params);
    assert!(
        markov.eval_seconds * 100.0 < petri.eval_seconds,
        "markov {} s vs petri {} s",
        markov.eval_seconds,
        petri.eval_seconds
    );
}

/// Little's law holds in the DES and ties the three models' queue views
/// together at small D: L ≈ λW ≈ the Markov L(1).
#[test]
fn queueing_quantities_consistent() {
    let params = budget_params();
    let markov = solve(BackendId::Markov, params);
    let des = solve(BackendId::Des, params);
    let petri = solve(BackendId::PetriNet, params);
    let l_markov = markov.mean_jobs.unwrap();
    let l_des = des.mean_jobs.unwrap();
    let l_petri = petri.mean_jobs.unwrap();
    assert!((l_markov - l_des).abs() < 0.05, "{l_markov} vs {l_des}");
    assert!((l_markov - l_petri).abs() < 0.05, "{l_markov} vs {l_petri}");
}
