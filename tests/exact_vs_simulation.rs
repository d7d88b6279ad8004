//! Exact-solution cross-checks: closed forms ↔ CTMC solvers ↔ token game ↔
//! DES, spanning four crates.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::energy::StateFractions;
use wsnem::markov::{mm1, mm1k, CtmcBuilder, SteadyStateMethod};
use wsnem::petri::analysis::{tangible_chain, ReachOptions};
use wsnem::petri::models::{mm1_net, mm1k_net, producer_consumer_net};
use wsnem::petri::{simulate, SimConfig};
use wsnem::stats::rng::Xoshiro256PlusPlus;

/// M/M/1/K: closed form == net-CTMC == net-simulation.
#[test]
fn mm1k_three_ways() {
    let (lam, mu, k) = (2.0, 3.0, 6u32);
    let closed = mm1k(lam, mu, k).unwrap();
    let (net, q) = mm1k_net(lam, mu, k).unwrap();

    // Exact via vanishing elimination.
    let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
    let pi = chain.steady_state().unwrap();
    let l_exact = chain.expected_tokens(&pi, q);
    assert!((l_exact - closed.mean_jobs()).abs() < 1e-9);

    // Simulated.
    let cfg = SimConfig {
        horizon: 50_000.0,
        warmup: 1000.0,
        ..SimConfig::default()
    };
    let mut rng = Xoshiro256PlusPlus::new(11);
    let out = simulate(&net, &cfg, &[], &mut rng).unwrap();
    assert!(
        (out.place_means[q.index()] - closed.mean_jobs()).abs() < 0.05,
        "sim {} vs exact {}",
        out.place_means[q.index()],
        closed.mean_jobs()
    );
}

/// Unbounded M/M/1 net simulation matches the closed form.
#[test]
fn mm1_simulation_matches_closed_form() {
    let closed = mm1(1.0, 2.5).unwrap();
    let (net, q) = mm1_net(1.0, 2.5).unwrap();
    let cfg = SimConfig {
        horizon: 80_000.0,
        warmup: 2000.0,
        ..SimConfig::default()
    };
    let mut rng = Xoshiro256PlusPlus::new(5);
    let out = simulate(&net, &cfg, &[], &mut rng).unwrap();
    assert!(
        (out.place_means[q.index()] - closed.mean_jobs()).abs() < 0.05,
        "L sim {} vs {}",
        out.place_means[q.index()],
        closed.mean_jobs()
    );
    // Arrival throughput equals λ.
    let arrive = net.find_transition("arrive").unwrap();
    assert!((out.throughput(arrive.index()) - 1.0).abs() < 0.02);
}

/// Producer–consumer: the GSPN bridge and birth–death closed form agree.
#[test]
fn producer_consumer_is_a_birth_death_chain() {
    let (net, buffer, _) = producer_consumer_net(4, 1.5, 2.0).unwrap();
    let chain = tangible_chain(&net, ReachOptions::default()).unwrap();
    let pi = chain.steady_state().unwrap();
    let closed = mm1k(1.5, 2.0, 4).unwrap();
    let l = chain.expected_tokens(&pi, buffer);
    assert!((l - closed.mean_jobs()).abs() < 1e-9);
}

/// Occupancy fractions of the paper's CPU with its two constant delays
/// replaced by Erlang stages: the power-up delay `d` by `k` phases and the
/// idle timeout `t` by `m` phases, the queue truncated at `q_max` jobs.
/// States: 0 is Standby, then PowerUp(j, q) for j < k, 1 <= q <= Q, then
/// Active(q), then Idle(i) for i < m.
fn erlang_cpu_fractions(
    lam: f64,
    mu: f64,
    t: f64,
    d: f64,
    k: usize,
    m: usize,
    q_max: usize,
) -> StateFractions {
    let (nu_up, nu_dn) = (k as f64 / d, m as f64 / t);
    let powerup = |j: usize, q: usize| 1 + j * q_max + (q - 1);
    let active = |q: usize| 1 + k * q_max + (q - 1);
    let idle = |i: usize| 1 + k * q_max + q_max + i;
    let mut b = CtmcBuilder::new(1 + k * q_max + q_max + m);
    b.rate(0, powerup(0, 1), lam).unwrap();
    for q in 1..=q_max {
        for j in 0..k {
            if q < q_max {
                b.rate(powerup(j, q), powerup(j, q + 1), lam).unwrap();
            }
            let next = if j + 1 < k {
                powerup(j + 1, q)
            } else {
                active(q)
            };
            b.rate(powerup(j, q), next, nu_up).unwrap();
        }
        if q < q_max {
            b.rate(active(q), active(q + 1), lam).unwrap();
        }
        let done = if q > 1 { active(q - 1) } else { idle(0) };
        b.rate(active(q), done, mu).unwrap();
    }
    for i in 0..m {
        // An arrival aborts the idle timer and starts service at once.
        b.rate(idle(i), active(1), lam).unwrap();
        let next = if i + 1 < m { idle(i + 1) } else { 0 };
        b.rate(idle(i), next, nu_dn).unwrap();
    }
    let pi = b
        .build()
        .unwrap()
        .steady_state(SteadyStateMethod::Auto)
        .unwrap();
    let sum = |r: std::ops::Range<usize>| pi[r].iter().sum::<f64>();
    let total: f64 = pi.iter().sum();
    StateFractions::new(
        pi[0] / total,
        sum(1..active(1)) / total,
        sum(idle(0)..idle(0) + m) / total,
        sum(active(1)..idle(0)) / total,
    )
}

/// The Erlang-phase CPU chain converges to the DES truth as phases grow —
/// and with enough phases it beats the paper's supplementary-variable
/// approximation at a moderately large D.
#[test]
fn phase_chain_converges_to_des() {
    use wsnem::core::{backend, BackendId, CpuModelParams, EvalOptions};
    let params = CpuModelParams::paper_defaults()
        .with_power_up_delay(1.0)
        .with_replications(8)
        .with_horizon(6000.0)
        .with_warmup(300.0);
    let solve = |id| {
        backend::global()
            .solve(id, &params, &EvalOptions::default())
            .unwrap()
    };
    let des = solve(BackendId::Des);
    let sv = solve(BackendId::Markov);
    let sv_err = des.fractions.mean_abs_delta_pct(&sv.fractions);

    let mut last_err = f64::INFINITY;
    for k in [1usize, 4, 16] {
        // Q = ⌈20 + 6λD + 10ρ⌉ covers the power-up backlog with headroom.
        let fractions = erlang_cpu_fractions(1.0, 10.0, 0.5, 1.0, k, k, 27);
        assert!(fractions.is_normalized(1e-9), "{fractions:?}");
        let err = des.fractions.mean_abs_delta_pct(&fractions);
        assert!(
            err < last_err + 0.3,
            "k={k}: error {err} should not regress from {last_err}"
        );
        last_err = err;
    }
    assert!(
        last_err < sv_err,
        "16 phases ({last_err} pp) must beat the supplementary-variable \
         approximation ({sv_err} pp) at D = 1 s"
    );
}

/// The CTMC solvers agree with each other on a phase-type chain that is not
/// birth–death: an M/M/1/Q queue whose server, once it empties, switches
/// off and needs an Erlang-`k` setup before serving again. Arrivals queue
/// during the setup; its last phase jumps straight to `Busy(q)`.
#[test]
fn solvers_agree_on_phase_chain() {
    let (lam, mu, setup, k, q_max) = (2.0, 3.0, 0.5, 4usize, 12usize);
    let nu = k as f64 / setup;
    // 0: Off, then Setup(j, q) for j < k, 1 <= q <= Q, then Busy(q).
    let setup_idx = |j: usize, q: usize| 1 + j * q_max + (q - 1);
    let busy_idx = |q: usize| 1 + k * q_max + (q - 1);
    let mut b = CtmcBuilder::new(1 + k * q_max + q_max);
    b.rate(0, setup_idx(0, 1), lam).unwrap();
    for q in 1..=q_max {
        for j in 0..k {
            if q < q_max {
                b.rate(setup_idx(j, q), setup_idx(j, q + 1), lam).unwrap();
            }
            let next = if j + 1 < k {
                setup_idx(j + 1, q)
            } else {
                busy_idx(q)
            };
            b.rate(setup_idx(j, q), next, nu).unwrap();
        }
        if q < q_max {
            b.rate(busy_idx(q), busy_idx(q + 1), lam).unwrap();
        }
        let done = if q > 1 { busy_idx(q - 1) } else { 0 };
        b.rate(busy_idx(q), done, mu).unwrap();
    }
    let ctmc = b.build().unwrap();
    assert!(ctmc.n_states() >= 50, "{}", ctmc.n_states());

    let dense = ctmc.steady_state(SteadyStateMethod::Dense).unwrap();
    let gs = ctmc
        .steady_state(SteadyStateMethod::GaussSeidel {
            max_iter: 200_000,
            tol: 1e-13,
        })
        .unwrap();
    for (a, b) in dense.iter().zip(&gs) {
        assert!((a - b).abs() < 1e-7);
    }
}
