//! `wsnem_stats::replicate` on token-game models: thread invariance, error
//! propagation, agreement with queueing theory, and sequential stopping.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use wsnem::core::{build_cpu_edspn, state_rewards, CpuModelParams};
use wsnem::petri::models::mm1_net;
use wsnem::petri::{simulate, NetBuilder, PetriError, PetriNet, Reward, SimConfig, SimOutput};
use wsnem::stats::replicate::{replicate, until_precise, PrecisionTarget, Replications};
use wsnem::stats::rng::{Rng64, StreamFactory};

fn busy_reward(q: wsnem::petri::PlaceId) -> Reward {
    Reward::indicator("busy", move |m| m.tokens(q) > 0)
}

/// `n` replications of `net` under `cfg`, replication `i` on stream `i`.
fn replicate_net(
    net: &PetriNet,
    cfg: &SimConfig,
    rewards: &[Reward],
    n: usize,
    seed: u64,
    threads: Option<usize>,
) -> Result<Replications<SimOutput>, PetriError> {
    replicate(n, seed, threads, |rng| simulate(net, cfg, rewards, rng))
}

fn reward_means(out: &SimOutput) -> &[f64] {
    &out.reward_means
}

#[test]
fn parallel_equals_sequential() {
    let (net, q) = mm1_net(1.0, 2.0).unwrap();
    let cfg = SimConfig::for_horizon(300.0);
    let rewards = vec![busy_reward(q)];
    let seq = replicate_net(&net, &cfg, &rewards, 8, 99, Some(1)).unwrap();
    let par = replicate_net(&net, &cfg, &rewards, 8, 99, Some(4)).unwrap();
    assert_eq!(seq.reports, par.reports);
}

#[test]
fn summary_converges_to_theory() {
    let (net, q) = mm1_net(1.0, 2.0).unwrap();
    let cfg = SimConfig {
        horizon: 5000.0,
        warmup: 200.0,
        ..SimConfig::default()
    };
    let rewards = vec![busy_reward(q)];
    let run = replicate_net(&net, &cfg, &rewards, 16, 7, None).unwrap();
    assert_eq!(run.replications(), 16);
    // ρ = 0.5, L = 1.
    let ci = run.ci(|o| o.reward_means[0], 0.99).unwrap();
    assert!(
        ci.contains(0.5),
        "utilization CI [{}, {}]",
        ci.low(),
        ci.high()
    );
    let place_mean = run.mean(|o| o.place_means[0]);
    assert!((place_mean - 1.0).abs() < 0.15, "{place_mean}");
    assert!((run.mean(|o| o.reward_means[0]) - 0.5).abs() < 0.05);
}

#[test]
fn config_error_propagates() {
    let (net, _) = mm1_net(1.0, 2.0).unwrap();
    let cfg = SimConfig {
        horizon: -1.0,
        ..SimConfig::default()
    };
    assert!(replicate_net(&net, &cfg, &[], 2, 1, Some(1)).is_err());
}

#[test]
fn simulation_error_propagates_from_worker() {
    // Immediate loop net: every replication errors; the first error wins.
    let mut b = NetBuilder::new();
    let p0 = b.place("P0", 1);
    let p1 = b.place("P1", 0);
    let t01 = b.immediate("a", 1, 1.0);
    b.input_arc(p0, t01, 1);
    b.output_arc(t01, p1, 1);
    let t10 = b.immediate("b", 1, 1.0);
    b.input_arc(p1, t10, 1);
    b.output_arc(t10, p0, 1);
    let net = b.build().unwrap();
    let cfg = SimConfig {
        horizon: 10.0,
        max_vanishing_chain: 100,
        ..SimConfig::default()
    };
    let err = replicate_net(&net, &cfg, &[], 4, 1, Some(2)).unwrap_err();
    assert!(matches!(err, PetriError::VanishingLoop { .. }));
}

#[test]
fn converges_on_mm1_utilization() {
    let (net, q) = mm1_net(1.0, 2.0).unwrap();
    let rewards = vec![busy_reward(q)];
    let cfg = SimConfig {
        horizon: 2000.0,
        warmup: 100.0,
        ..SimConfig::default()
    };
    let stopped = until_precise(
        PrecisionTarget::default(),
        7,
        None,
        |rng| simulate(&net, &cfg, &rewards, rng),
        reward_means,
    )
    .unwrap();
    assert!(stopped.converged);
    let ci = &stopped.intervals[0];
    assert!(ci.contains(0.5), "ρ CI [{}, {}]", ci.low(), ci.high());
    assert!(ci.relative_half_width() <= 0.05);
    assert!(stopped.run.replications() >= 8);
}

#[test]
fn budget_cap_reports_unconverged() {
    let (net, q) = mm1_net(1.0, 1.05).unwrap(); // ρ ≈ 0.95: noisy
    let rewards = vec![busy_reward(q)];
    let cfg = SimConfig::for_horizon(50.0); // tiny horizon → high variance
    let target = PrecisionTarget {
        rel_half_width: 0.001,
        max_replications: 8,
        min_replications: 4,
        ..PrecisionTarget::default()
    };
    let stopped = until_precise(
        target,
        3,
        Some(2),
        |rng| simulate(&net, &cfg, &rewards, rng),
        reward_means,
    )
    .unwrap();
    assert!(!stopped.converged, "impossible target must hit the cap");
    assert_eq!(stopped.run.replications(), 8);
}

#[test]
fn deterministic_given_seed() {
    let (net, q) = mm1_net(1.0, 2.0).unwrap();
    let rewards = vec![busy_reward(q)];
    let cfg = SimConfig::for_horizon(500.0);
    let target = PrecisionTarget {
        rel_half_width: 0.1,
        ..PrecisionTarget::default()
    };
    let run = |threads| {
        until_precise(
            target,
            42,
            Some(threads),
            |rng| simulate(&net, &cfg, &rewards, rng),
            reward_means,
        )
        .unwrap()
    };
    let (a, b) = (run(1), run(4));
    assert_eq!(a.run.reports, b.run.reports);
    assert_eq!(a.converged, b.converged);
}

#[test]
fn near_zero_rewards_judged_absolutely() {
    // A reward that is almost always 0 (queue beyond 50 jobs at ρ=0.5)
    // would never meet a *relative* target; the absolute rule handles it.
    let (net, q) = mm1_net(1.0, 2.0).unwrap();
    let deep = [Reward::indicator("deep", move |m| m.tokens(q) > 50)];
    let cfg = SimConfig::for_horizon(500.0);
    let stopped = until_precise(
        PrecisionTarget::default(),
        1,
        Some(2),
        |rng| simulate(&net, &cfg, &deep, rng),
        reward_means,
    )
    .unwrap();
    assert!(stopped.converged);
    assert!(stopped.intervals[0].mean < 1e-3);
}

#[test]
fn converged_estimation_runs_each_replication_once() {
    // `examples/converged_estimation.rs`: rounds of 8, 16 and 32
    // replications run each index once (32 runs in all) and stop with the
    // intervals pinned in `tests/replication_pins.rs`.
    let p = CpuModelParams::paper_defaults();
    let (net, h) = build_cpu_edspn(p.lambda, p.mu, p.power_down_threshold, p.power_up_delay)
        .expect("paper net builds");
    let rewards = state_rewards(&h);
    let cfg = SimConfig {
        horizon: 1000.0,
        warmup: 50.0,
        ..SimConfig::default()
    };
    let target = PrecisionTarget {
        rel_half_width: 0.02,
        ..PrecisionTarget::default()
    };
    // A replication is recognised by the first draw of its stream.
    let factory = StreamFactory::new(2008);
    let index: HashMap<u64, usize> = (0..target.max_replications)
        .map(|i| (factory.stream(i as u64).next_u64(), i))
        .collect();
    let runs: Vec<AtomicUsize> = (0..target.max_replications)
        .map(|_| AtomicUsize::new(0))
        .collect();
    let stopped = until_precise(
        target,
        2008,
        None,
        |rng| {
            let mut probe = *rng;
            runs[index[&probe.next_u64()]].fetch_add(1, Ordering::Relaxed);
            simulate(&net, &cfg, &rewards, rng)
        },
        reward_means,
    )
    .unwrap();
    assert!(stopped.converged);
    assert_eq!(stopped.run.replications(), 32);
    for (i, count) in runs.iter().enumerate() {
        assert_eq!(count.load(Ordering::Relaxed), usize::from(i < 32), "{i}");
    }
    let bits: Vec<(u64, u64)> = stopped
        .intervals
        .iter()
        .map(|ci| (ci.mean.to_bits(), ci.half_width.to_bits()))
        .collect();
    assert_eq!(
        bits,
        [
            (4603097872188520707, 4569993637041584822),
            (4558173849441863347, 4526233921771426186),
            (4600041471375968876, 4568480673639343970),
            (4591822054705931302, 4563822628702130071),
        ]
    );
}
