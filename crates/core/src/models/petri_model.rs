//! The paper's EDSPN (Fig. 3 / Table 1) and its evaluation by token-game
//! simulation.
//!
//! Net structure, reconstructed from the paper's §4.2 firing walkthrough:
//!
//! ```text
//! places:  P0(1)  P1(0)  CPU_Buffer(0)  P6(0)
//!          Stand_By(1)  Power_Up(0)  CPU_ON(0)  Idle(1)  Active(0)
//!
//! AR  (exp λ, Table 1 "Arrivals")        : P0 → P1
//! T1  (immediate, priority 4)            : P1 → P0 + P6 + CPU_Buffer
//! T6  (immediate, priority 3)            : P6 + Stand_By → Power_Up + P6
//! PUT (deterministic D, "Power Up Delay"): Power_Up + P6 → CPU_ON
//! T5  (immediate, priority 2)            : P6 + CPU_ON → CPU_ON
//! T2  (immediate, priority 1)            : CPU_Buffer + CPU_ON + Idle → CPU_ON + Active
//! SR  (exp μ, "Service Rate")            : Active → Idle
//! PDT (deterministic T, "Power Down
//!      Threshold"; inhibited by Active
//!      and CPU_Buffer — the "small
//!      circles" of Fig. 3)               : CPU_ON → Stand_By
//! ```
//!
//! Two structural P-invariants carry the state semantics and are verified by
//! tests via the Farkas analyzer: `Stand_By + Power_Up + CPU_ON = 1` (the
//! power automaton) and `Idle + Active = 1` (the service unit). The four
//! paper measures are indicator rewards over the tangible marking:
//! PowerUp ⇔ `#Power_Up ≥ 1`, Standby ⇔ `#Stand_By ≥ 1`,
//! Active ⇔ `#Active ≥ 1`, Idle ⇔ `#CPU_ON ≥ 1 ∧ #Active = 0`.

use std::time::Instant;

use wsnem_energy::StateFractions;
use wsnem_petri::{simulate, NetBuilder, PetriNet, PlaceId, Reward, SimConfig};
use wsnem_stats::dist::Dist;
use wsnem_stats::replicate::replicate;

use crate::backend::{require_stable, BackendId, Capabilities, CpuSolver, EvalOptions};
use crate::error::CoreError;
use crate::evaluation::ModelEvaluation;
use crate::params::CpuModelParams;

/// Handles to the places (and transition names) of the Fig. 3 net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuNetHandles {
    /// Workload-generator home place (token present ⇒ generator armed).
    pub p0: PlaceId,
    /// Arrival staging place between `AR` and `T1`.
    pub p1: PlaceId,
    /// Job buffer.
    pub cpu_buffer: PlaceId,
    /// Power-up trigger staging place.
    pub p6: PlaceId,
    /// CPU in standby.
    pub stand_by: PlaceId,
    /// CPU powering up.
    pub power_up: PlaceId,
    /// CPU operational.
    pub cpu_on: PlaceId,
    /// Service unit idle.
    pub idle: PlaceId,
    /// Service unit busy.
    pub active: PlaceId,
}

/// Build the paper's EDSPN for the given parameters (exponential service at
/// rate `mu`, as in Table 1).
pub fn build_cpu_edspn(
    lambda: f64,
    mu: f64,
    power_down_threshold: f64,
    power_up_delay: f64,
) -> Result<(PetriNet, CpuNetHandles), CoreError> {
    build_cpu_edspn_with_service(
        lambda,
        Dist::Exponential { rate: mu },
        power_down_threshold,
        power_up_delay,
    )
}

/// Build the paper's EDSPN with a general service-time distribution on the
/// `SR` transition — the token game executes any [`Dist`], which is what
/// lets this backend (unlike the analytic ones) honor a non-exponential
/// [`crate::ServiceDist`].
pub fn build_cpu_edspn_with_service(
    lambda: f64,
    service: Dist,
    power_down_threshold: f64,
    power_up_delay: f64,
) -> Result<(PetriNet, CpuNetHandles), CoreError> {
    let mut b = NetBuilder::new();
    let p0 = b.place("P0", 1);
    let p1 = b.place("P1", 0);
    let cpu_buffer = b.place("CPU_Buffer", 0);
    let p6 = b.place("P6", 0);
    let stand_by = b.place("Stand_By", 1);
    let power_up = b.place("Power_Up", 0);
    let cpu_on = b.place("CPU_ON", 0);
    let idle = b.place("Idle", 1);
    let active = b.place("Active", 0);

    // AR: open-workload generator (step 1 of §4.2).
    let ar = b.exponential("AR", lambda);
    b.input_arc(p0, ar, 1);
    b.output_arc(ar, p1, 1);

    // T1: fan a generated job out to P0 (re-arm), P6 (power trigger) and the
    // buffer (step 2). Highest priority.
    let t1 = b.immediate("T1", 4, 1.0);
    b.input_arc(p1, t1, 1);
    b.output_arc(t1, p0, 1);
    b.output_arc(t1, p6, 1);
    b.output_arc(t1, cpu_buffer, 1);

    // T6: a trigger token meeting Stand_By starts the power-up (step 3); the
    // trigger token is put back so PUT can consume it.
    let t6 = b.immediate("T6", 3, 1.0);
    b.input_arc(p6, t6, 1);
    b.input_arc(stand_by, t6, 1);
    b.output_arc(t6, power_up, 1);
    b.output_arc(t6, p6, 1);

    // PUT: constant Power Up Delay (step 4).
    let put = b.deterministic("PUT", power_up_delay);
    b.input_arc(power_up, put, 1);
    b.input_arc(p6, put, 1);
    b.output_arc(put, cpu_on, 1);

    // T5: discard redundant triggers while the CPU is already on (step 7).
    let t5 = b.immediate("T5", 2, 1.0);
    b.input_arc(p6, t5, 1);
    b.input_arc(cpu_on, t5, 1);
    b.output_arc(t5, cpu_on, 1);

    // T2: start service when a buffered job meets an idle, powered CPU
    // (step 5).
    let t2 = b.immediate("T2", 1, 1.0);
    b.input_arc(cpu_buffer, t2, 1);
    b.input_arc(cpu_on, t2, 1);
    b.input_arc(idle, t2, 1);
    b.output_arc(t2, cpu_on, 1);
    b.output_arc(t2, active, 1);

    // SR: service (step 6) — exponential in the paper; any distribution
    // under the generalized builder. SR is never disabled mid-service
    // (Active only drains through SR), so the race policy is irrelevant.
    let sr = b.transition("SR", wsnem_petri::TransitionKind::timed(service));
    b.input_arc(active, sr, 1);
    b.output_arc(sr, idle, 1);

    // PDT: constant Power Down Threshold with inverse-logic (inhibitor) arcs
    // from Active and CPU_Buffer (step 9). Race-resample semantics make any
    // arrival reset the countdown.
    let pdt = b.deterministic("PDT", power_down_threshold);
    b.input_arc(cpu_on, pdt, 1);
    b.inhibitor_arc(active, pdt, 1);
    b.inhibitor_arc(cpu_buffer, pdt, 1);
    b.output_arc(pdt, stand_by, 1);

    let net = b.build()?;
    Ok((
        net,
        CpuNetHandles {
            p0,
            p1,
            cpu_buffer,
            p6,
            stand_by,
            power_up,
            cpu_on,
            idle,
            active,
        },
    ))
}

/// The four state-indicator rewards in canonical order
/// `[standby, powerup, idle, active]`.
pub fn state_rewards(h: &CpuNetHandles) -> Vec<Reward> {
    let (sb, pu, on, ac) = (h.stand_by, h.power_up, h.cpu_on, h.active);
    vec![
        Reward::indicator("standby", move |m| m.tokens(sb) >= 1),
        Reward::indicator("powerup", move |m| m.tokens(pu) >= 1),
        Reward::indicator("idle", move |m| m.tokens(on) >= 1 && m.tokens(ac) == 0),
        Reward::indicator("active", move |m| m.tokens(ac) >= 1),
    ]
}

/// The registry solver for [`BackendId::PetriNet`]: paper §4.2's EDSPN
/// evaluated by replicated token-game simulation, with
/// [`EvalOptions::service`] on the `SR` transition.
#[derive(Debug, Clone, Copy, Default)]
pub struct PetriSolver;

impl CpuSolver for PetriSolver {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            id: BackendId::PetriNet,
            analytic: false,
            ground_truth: false,
            assumes_poisson: true,
            supports_service_dist: true,
            provides_mean_jobs: true,
            provides_latency: true,
            uses_seed: true,
            cost_rank: 2,
        }
    }

    fn solve(
        &self,
        params: &CpuModelParams,
        opts: &EvalOptions,
    ) -> Result<ModelEvaluation, CoreError> {
        opts.service.validate(params.mu)?;
        let start = Instant::now();
        params.validate_fields()?;
        let service = opts.service.to_dist(params.mu);
        require_stable(BackendId::PetriNet, params, &opts.service)?;
        let (net, handles) = build_cpu_edspn_with_service(
            params.lambda,
            service,
            params.power_down_threshold,
            params.power_up_delay,
        )?;
        let rewards = state_rewards(&handles);
        let cfg = SimConfig {
            horizon: params.horizon,
            warmup: params.warmup,
            ..SimConfig::default()
        };
        let run = replicate(
            params.replications,
            params.master_seed,
            opts.threads,
            |rng| simulate(&net, &cfg, &rewards, rng),
        )?;
        let fractions = StateFractions::from_array(std::array::from_fn(|k| {
            run.mean(|out| out.reward_means[k])
        }));
        // Mean jobs in system = buffered + in service.
        let (buffer, active) = (handles.cpu_buffer.index(), handles.active.index());
        let mean_jobs =
            run.mean(|out| out.place_means[buffer]) + run.mean(|out| out.place_means[active]);
        Ok(ModelEvaluation {
            kind: BackendId::PetriNet,
            fractions,
            mean_jobs: Some(mean_jobs),
            mean_latency: Some(mean_jobs / params.lambda), // Little's law
            eval_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::markov_model::MarkovSolver;
    use wsnem_petri::analysis::p_semiflows;
    use wsnem_petri::TransitionKind;

    fn solve(params: CpuModelParams, threads: Option<usize>) -> ModelEvaluation {
        PetriSolver
            .solve(&params, &EvalOptions::default().with_threads(threads))
            .unwrap()
    }

    fn paper_net() -> (PetriNet, CpuNetHandles) {
        build_cpu_edspn(1.0, 10.0, 0.5, 0.001).unwrap()
    }

    #[test]
    fn structure_matches_table1() {
        let (net, _) = paper_net();
        assert_eq!(net.n_places(), 9);
        assert_eq!(net.n_transitions(), 8);
        // Table 1 kinds and priorities.
        let kind = |n: &str| net.kind(net.find_transition(n).unwrap());
        assert!(matches!(kind("AR"), TransitionKind::Timed { dist, .. }
            if dist.is_exponential()));
        assert!(matches!(kind("SR"), TransitionKind::Timed { dist, .. }
            if dist.is_exponential()));
        assert!(matches!(kind("PUT"), TransitionKind::Timed { dist, .. }
            if dist.is_deterministic()));
        assert!(matches!(kind("PDT"), TransitionKind::Timed { dist, .. }
            if dist.is_deterministic()));
        for (name, pri) in [("T1", 4u8), ("T6", 3), ("T5", 2), ("T2", 1)] {
            assert!(
                matches!(kind(name), TransitionKind::Immediate { priority, .. }
                    if priority == pri),
                "{name} priority"
            );
        }
        // PDT carries the two inverse-logic arcs of Fig. 3.
        let pdt = net.find_transition("PDT").unwrap();
        let inhibs: Vec<_> = net.inhibitors(pdt).collect();
        assert_eq!(inhibs.len(), 2);
    }

    #[test]
    fn invariants_of_fig3() {
        let (net, h) = paper_net();
        let inv = p_semiflows(&net).unwrap();
        // Power automaton: Stand_By + Power_Up + CPU_ON = 1.
        assert!(
            inv.iter().any(|x| {
                x[h.stand_by.index()] == 1
                    && x[h.power_up.index()] == 1
                    && x[h.cpu_on.index()] == 1
                    && x.iter().sum::<u64>() == 3
            }),
            "power-automaton invariant missing: {inv:?}"
        );
        // Service unit: Idle + Active = 1.
        assert!(
            inv.iter().any(|x| {
                x[h.idle.index()] == 1 && x[h.active.index()] == 1 && x.iter().sum::<u64>() == 2
            }),
            "service-unit invariant missing: {inv:?}"
        );
        // Workload generator: P0 + P1 = 1.
        assert!(
            inv.iter().any(|x| {
                x[h.p0.index()] == 1 && x[h.p1.index()] == 1 && x.iter().sum::<u64>() == 2
            }),
            "generator invariant missing: {inv:?}"
        );
    }

    #[test]
    fn state_rewards_are_exclusive_and_exhaustive() {
        // On every reachable tangible marking the four indicators sum to 1.
        // Drive the net for a while and spot-check at the final marking.
        use wsnem_petri::{simulate, SimConfig};
        use wsnem_stats::rng::Xoshiro256PlusPlus;
        let (net, h) = paper_net();
        let rewards = state_rewards(&h);
        for seed in 0..10u64 {
            let mut rng = Xoshiro256PlusPlus::new(seed);
            let out = simulate(&net, &SimConfig::for_horizon(200.0), &rewards, &mut rng).unwrap();
            let m = &out.final_marking;
            let total: f64 = rewards.iter().map(|r| r.eval(m)).sum();
            assert_eq!(total, 1.0, "marking {m} classifies ambiguously");
            // And their time averages partition the horizon.
            let s: f64 = out.reward_means.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "reward means sum to {s}");
        }
    }

    #[test]
    fn evaluation_normalizes_and_matches_markov_at_tiny_d() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(8)
            .with_horizon(3000.0)
            .with_warmup(100.0);
        let pn = solve(params, None);
        assert_eq!(pn.kind, BackendId::PetriNet);
        assert!(pn.fractions.is_normalized(1e-6), "{:?}", pn.fractions);
        let markov = MarkovSolver
            .solve(&params, &EvalOptions::default())
            .unwrap();
        let delta = pn.fractions.mean_abs_delta_pct(&markov.fractions);
        assert!(delta < 1.5, "Δ = {delta} percentage points");
        assert!(pn.mean_jobs.unwrap() > 0.0);
    }

    #[test]
    fn utilization_stays_near_rho_even_for_huge_d() {
        // The PN (like the DES, unlike the Markov approximation) keeps
        // utilization ≈ ρ at D = 10 s — the paper's Table 4 point.
        let params = CpuModelParams::paper_defaults()
            .with_power_up_delay(10.0)
            .with_replications(6)
            .with_horizon(5000.0)
            .with_warmup(500.0);
        let pn = solve(params, None);
        assert!(
            (pn.fractions.active - 0.1).abs() < 0.02,
            "active = {}",
            pn.fractions.active
        );
        assert!(
            pn.fractions.powerup > 0.2,
            "powerup = {}",
            pn.fractions.powerup
        );
    }

    #[test]
    fn deterministic_under_threads() {
        let params = CpuModelParams::paper_defaults()
            .with_replications(6)
            .with_horizon(300.0);
        let a = solve(params, Some(1));
        let b = solve(params, Some(3));
        assert_eq!(a.fractions, b.fractions);
    }

    #[test]
    fn net_reachability_is_bounded_except_buffer() {
        // With the buffer and P6 capped, exploration terminates: the control
        // skeleton is finite. (Full net is unbounded in CPU_Buffer only.)
        use wsnem_petri::analysis::{explore, ReachOptions};
        let (net, h) = paper_net();
        let g = explore(
            &net,
            ReachOptions {
                max_markings: 200_000,
                max_tokens: 12,
            },
        );
        // The open workload grows CPU_Buffer beyond any bound eventually.
        match g {
            Err(wsnem_petri::PetriError::Unbounded { place, .. }) => {
                assert!(
                    place == "CPU_Buffer" || place == "P6",
                    "unbounded at {place}"
                );
            }
            Ok(g) => {
                // If exploration completed within 12 tokens, invariant places
                // must never exceed 1 token.
                for m in &g.markings {
                    assert!(m.tokens(h.stand_by) <= 1);
                    assert!(m.tokens(h.idle) <= 1);
                    assert!(m.tokens(h.cpu_on) <= 1);
                }
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
