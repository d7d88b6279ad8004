//! Bit-level pins of sequential stopping: replicate in rounds until every
//! watched reward's Student-t interval is within a relative target, or the
//! replication budget runs out.
//!
//! The pins are built only from the pieces every stopping run is made of —
//! replication `i` runs `simulate` on stream `i` of the master seed, and
//! each interval is the Student-t interval of an in-order `Welford::push`
//! over the replications — with the growth rule
//! `n ← min(max(n + batch, 2n), max)`. Whatever drives the rounds must stop
//! at the same `n` with the same interval bits.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::{build_cpu_edspn, state_rewards, CpuModelParams};
use wsnem::petri::models::mm1_net;
use wsnem::petri::{simulate, PetriNet, Reward, SimConfig};
use wsnem::stats::ci::ConfidenceInterval;
use wsnem::stats::online::Welford;
use wsnem::stats::rng::StreamFactory;

/// The stopping rule's knobs (level 0.95, near-zero cut 1e-3, batch 8).
struct Target {
    rel_half_width: f64,
    min: usize,
    max: usize,
}

/// Replicate in rounds from `max(min, 2)` replications; returns the
/// stopping `n`, whether every reward met the target, and the intervals.
fn stop(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    target: Target,
    seed: u64,
) -> (usize, bool, Vec<ConfidenceInterval>) {
    let factory = StreamFactory::new(seed);
    let mut n = target.min.max(2);
    loop {
        let mut stats = vec![Welford::new(); rewards.len()];
        for i in 0..n {
            let out = simulate(net, cfg, rewards, &mut factory.stream(i as u64)).unwrap();
            for (w, &v) in stats.iter_mut().zip(&out.reward_means) {
                w.push(v);
            }
        }
        let intervals: Vec<_> = stats
            .iter()
            .map(|w| ConfidenceInterval::from_welford(w, 0.95).unwrap())
            .collect();
        let met = intervals.iter().all(|ci| {
            if ci.mean.abs() < 1e-3 {
                ci.half_width <= 1e-3
            } else {
                ci.relative_half_width() <= target.rel_half_width
            }
        });
        if met || n >= target.max {
            return (n, met, intervals);
        }
        n = (n + 8).max(n * 2).min(target.max);
    }
}

#[test]
fn converged_estimation_stops_at_32_pinned() {
    // `examples/converged_estimation.rs`: the paper net, 1000 s horizon,
    // 50 s warm-up, 2% relative half-width, seed 2008.
    let p = CpuModelParams::paper_defaults();
    let (net, h) = build_cpu_edspn(p.lambda, p.mu, p.power_down_threshold, p.power_up_delay)
        .expect("paper net builds");
    let cfg = SimConfig {
        horizon: 1000.0,
        warmup: 50.0,
        ..SimConfig::default()
    };
    let target = Target {
        rel_half_width: 0.02,
        min: 8,
        max: 512,
    };
    let (n, converged, intervals) = stop(&net, &cfg, &state_rewards(&h), target, 2008);
    assert_eq!(n, 32);
    assert!(converged);
    let bits: Vec<(u64, u64)> = intervals
        .iter()
        .map(|ci| (ci.mean.to_bits(), ci.half_width.to_bits()))
        .collect();
    assert_eq!(bits, PINNED_INTERVALS);
}

/// `(mean, half_width)` bits of the standby, powerup, idle and active
/// intervals at the stop.
const PINNED_INTERVALS: [(u64, u64); 4] = [
    (4603097872188520707, 4569993637041584822),
    (4558173849441863347, 4526233921771426186),
    (4600041471375968876, 4568480673639343970),
    (4591822054705931302, 4563822628702130071),
];

#[test]
fn budget_cap_stops_unconverged_at_8() {
    // ρ ≈ 0.95 over a 50 s horizon cannot reach 0.1% relative precision.
    let (net, q) = mm1_net(1.0, 1.05).unwrap();
    let busy = Reward::indicator("busy", move |m| m.tokens(q) > 0);
    let target = Target {
        rel_half_width: 0.001,
        min: 4,
        max: 8,
    };
    let (n, converged, _) = stop(&net, &SimConfig::for_horizon(50.0), &[busy], target, 3);
    assert_eq!(n, 8);
    assert!(!converged);
}
