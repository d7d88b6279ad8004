//! Reproducibility contract: identical results for identical seeds,
//! regardless of thread count, across every simulation layer.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::experiments::ThresholdSweep;
use wsnem::core::{backend, BackendId, CpuModelParams, EvalOptions, ModelEvaluation};
use wsnem::des::cpu::{CpuDes, CpuSimParams};
use wsnem::des::replication::run_replications;
use wsnem::des::workload::Workload;

/// Solve `params` on one backend through the global registry.
fn solve(id: BackendId, params: CpuModelParams, threads: Option<usize>) -> ModelEvaluation {
    let opts = EvalOptions::default().with_threads(threads);
    backend::global().solve(id, &params, &opts).unwrap()
}

fn params() -> CpuModelParams {
    CpuModelParams::paper_defaults()
        .with_replications(6)
        .with_horizon(400.0)
}

#[test]
fn des_layer_thread_invariant() {
    let sim = CpuDes::new(
        CpuSimParams::exponential_service(10.0, 0.5, 0.001),
        Workload::open_poisson(1.0),
    )
    .unwrap();
    let a = run_replications(&sim, 9, 7, Some(1));
    let b = run_replications(&sim, 9, 7, Some(3));
    let c = run_replications(&sim, 9, 7, Some(9));
    assert_eq!(a.reports, b.reports);
    assert_eq!(b.reports, c.reports);
}

#[test]
fn model_layer_thread_invariant() {
    for threads in [Some(1), Some(2), None] {
        let pn = solve(BackendId::PetriNet, params(), threads);
        let des = solve(BackendId::Des, params(), threads);
        let pn1 = solve(BackendId::PetriNet, params(), Some(1));
        let des1 = solve(BackendId::Des, params(), Some(1));
        assert_eq!(pn.fractions, pn1.fractions, "threads = {threads:?}");
        assert_eq!(des.fractions, des1.fractions, "threads = {threads:?}");
    }
}

#[test]
fn sweep_layer_reproducible() {
    let sweep = ThresholdSweep {
        params: params().with_replications(3).with_horizon(200.0),
        t_values: vec![0.1, 0.6],
    };
    let a = sweep.run().unwrap();
    let b = sweep.run().unwrap();
    assert_eq!(a.points.len(), b.points.len());
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.petri.fractions, y.petri.fractions);
        assert_eq!(x.des.fractions, y.des.fractions);
        assert_eq!(x.markov.fractions, y.markov.fractions);
    }
}

#[test]
fn different_seeds_differ() {
    let a = solve(BackendId::Des, params().with_seed(1), None);
    let b = solve(BackendId::Des, params().with_seed(2), None);
    assert_ne!(a.fractions, b.fractions);
}

/// Pinned Fig. 3 trajectory: the paper-default EDSPN at a fixed seed and a
/// short horizon must reproduce these exact bits. Any change to the token
/// game's RNG draw order or floating-point accrual order moves them.
#[test]
fn paper_edspn_trajectory_pinned() {
    use wsnem::core::{build_cpu_edspn, state_rewards};
    use wsnem::petri::{simulate, SimConfig};
    use wsnem::stats::rng::StreamFactory;

    let p = CpuModelParams::paper_defaults()
        .with_replications(4)
        .with_horizon(300.0)
        .with_seed(2008);
    let eval = solve(BackendId::PetriNet, p, Some(1));
    let f = eval.fractions;
    assert_eq!(f.standby.to_bits(), 0x3fe0_f30b_5814_dd74, "standby");
    assert_eq!(f.powerup.to_bits(), 0x3f42_8390_42d8_bbd9, "powerup");
    assert_eq!(f.idle.to_bits(), 0x3fd7_2f75_17a9_ce0c, "idle");
    assert_eq!(f.active.to_bits(), 0x3fbb_84c9_c02c_2abc, "active");
    assert_eq!(
        eval.mean_jobs.unwrap().to_bits(),
        0x3fbf_49c3_01d3_5a89,
        "mean_jobs"
    );

    // One raw replication stream: per-transition firing counts
    // (AR, T1, T6, PUT, T5, T2, SR, PDT) and the four reward means.
    let (net, handles) = build_cpu_edspn(p.lambda, p.mu, 0.5, 0.001).unwrap();
    let rewards = state_rewards(&handles);
    let mut rng = StreamFactory::new(2008).stream(0);
    let out = simulate(&net, &SimConfig::for_horizon(300.0), &rewards, &mut rng).unwrap();
    assert_eq!(out.firings, [300, 300, 169, 169, 131, 300, 300, 169]);
    let reward_bits: Vec<u64> = out.reward_means.iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        reward_bits,
        [
            0x3fe1_2e11_74b4_12cb,
            0x3f42_7595_1f28_2b0b,
            0x3fd7_127e_8b6f_ddd9,
            0x3fba_208f_0261_a1ef,
        ]
    );
}

/// Pinned high-load trajectory: ρ = 0.9 (λ = 9, μ = 10), T = 0.1 s and
/// D = 5 s. The queue builds up during every 5 s power-up, so one
/// replication visits over a thousand distinct markings instead of the
/// paper default's few dozen. Pins the same raw-stream figures as
/// `paper_edspn_trajectory_pinned`.
#[test]
fn high_load_edspn_trajectory_pinned() {
    use wsnem::core::{build_cpu_edspn, state_rewards};
    use wsnem::petri::{simulate, SimConfig};
    use wsnem::stats::rng::StreamFactory;

    let (net, handles) = build_cpu_edspn(9.0, 10.0, 0.1, 5.0).unwrap();
    let rewards = state_rewards(&handles);
    let mut rng = StreamFactory::new(2008).stream(0);
    let out = simulate(&net, &SimConfig::for_horizon(300.0), &rewards, &mut rng).unwrap();
    // (AR, T1, T6, PUT, T5, T2, SR, PDT); nine 5 s power-ups in 300 s.
    assert_eq!(out.firings, [2649, 2649, 9, 9, 2640, 2594, 2593, 8]);
    let reward_bits: Vec<u64> = out.reward_means.iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        reward_bits,
        [
            0x3f71_e002_e138_3e29,
            0x3fc3_3333_3333_3334,
            0x3f6a_c092_b843_3800,
            0x3fea_f4b2_9ab8_7f80,
        ]
    );
}

/// Every registry backend's numbers at a fixed seed, to the bit: the
/// paper-default point on all four backends, plus an Erlang-3 and a
/// deterministic-service point on the three that accept a service law.
/// Columns: backend, service, fractions `[standby, powerup, idle, active]`,
/// `mean_jobs`, `mean_latency`. The `PetriNet` paper-default row is the
/// evaluation pinned by `paper_edspn_trajectory_pinned`.
#[test]
fn every_backend_pinned() {
    use wsnem::core::ServiceDist;

    let p = CpuModelParams::paper_defaults()
        .with_replications(4)
        .with_horizon(300.0)
        .with_seed(2008);
    let pins: [(BackendId, ServiceDist, [u64; 4], u64, u64); 10] = [
        (
            BackendId::Markov,
            ServiceDist::Exponential,
            [
                0x3fe1_751e_abcf_b33c,
                0x3f41_de17_5caa_f650,
                0x3fd6_a66d_1904_6cfa,
                0x3fb9_999a_0eb7_5c50,
            ],
            0x3fbc_75c1_19d8_3bc4,
            0x3fbc_75c1_19d8_3bc4,
        ),
        (
            BackendId::Mg1,
            ServiceDist::Exponential,
            [
                0x3fe1_751e_5bf2_2307,
                0x3f41_e060_9fb0_44a3,
                0x3fd6_a66c_b165_7b69,
                0x3fb9_9999_9999_999a,
            ],
            0x3fbc_9985_ec71_d4fd,
            0x3fbc_9985_ec71_d4fd,
        ),
        (
            BackendId::PetriNet,
            ServiceDist::Exponential,
            [
                0x3fe0_f30b_5814_dd74,
                0x3f42_8390_42d8_bbd9,
                0x3fd7_2f75_17a9_ce0c,
                0x3fbb_84c9_c02c_2abc,
            ],
            0x3fbf_49c3_01d3_5a89,
            0x3fbf_49c3_01d3_5a89,
        ),
        (
            BackendId::Des,
            ServiceDist::Exponential,
            [
                0x3fe1_3029_9a6c_f193,
                0x3f42_599e_d7c6_f966,
                0x3fd6_eca7_3e30_a910,
                0x3fba_a762_f626_413b,
            ],
            0x3fbd_f69e_dce6_87d0,
            0x3fbd_2594_2676_58aa,
        ),
        (
            BackendId::Mg1,
            ServiceDist::Erlang { k: 3 },
            [
                0x3fe1_751e_5bf2_2307,
                0x3f41_e060_9fb0_44a3,
                0x3fd6_a66c_b165_7b69,
                0x3fb9_9999_9999_999a,
            ],
            0x3fbb_a6cc_1629_c5d2,
            0x3fbb_a6cc_1629_c5d2,
        ),
        (
            BackendId::PetriNet,
            ServiceDist::Erlang { k: 3 },
            [
                0x3fe1_06c3_e9df_7330,
                0x3f41_febe_6fcb_196c,
                0x3fd7_2161_31f7_4334,
                0x3fbb_205e_6c47_c385,
            ],
            0x3fbd_73c6_1c9c_7a61,
            0x3fbd_73c6_1c9c_7a61,
        ),
        (
            BackendId::Des,
            ServiceDist::Erlang { k: 3 },
            [
                0x3fe1_5eb5_4a84_0768,
                0x3f41_dbca_9691_97ea,
                0x3fd6_a9ba_232f_c72e,
                0x3fba_3fb5_89f3_84dc,
            ],
            0x3fbc_99b1_67b6_99f5,
            0x3fbb_c5fc_550f_1e1a,
        ),
        (
            BackendId::Mg1,
            ServiceDist::Deterministic,
            [
                0x3fe1_751e_5bf2_2307,
                0x3f41_e060_9fb0_44a3,
                0x3fd6_a66c_b165_7b69,
                0x3fb9_9999_9999_999a,
            ],
            0x3fbb_2d6f_2b05_be3c,
            0x3fbb_2d6f_2b05_be3c,
        ),
        (
            BackendId::PetriNet,
            ServiceDist::Deterministic,
            [
                0x3fe1_a222_779b_8256,
                0x3f42_13b7_2553_f7b7,
                0x3fd6_3ea3_8df5_76ea,
                0x3fb9_d036_9d03_69c2,
            ],
            0x3fbb_912a_9684_9427,
            0x3fbb_912a_9684_9427,
        ),
        (
            BackendId::Des,
            ServiceDist::Deterministic,
            [
                0x3fe1_a222_779b_8256,
                0x3f42_13b7_2553_f7b7,
                0x3fd6_3ea3_8df5_76ea,
                0x3fb9_d036_9d03_69c2,
            ],
            0x3fbb_912a_9684_9427,
            0x3fbb_5455_ca58_d6a4,
        ),
    ];
    for (id, service, fractions, jobs, latency) in pins {
        let opts = EvalOptions::default()
            .with_threads(Some(1))
            .with_service(service);
        let eval = backend::global().solve(id, &p, &opts).unwrap();
        let bits = eval.fractions.as_array().map(f64::to_bits);
        assert_eq!(bits, fractions, "{id} {service:?} fractions");
        assert_eq!(
            eval.mean_jobs.unwrap().to_bits(),
            jobs,
            "{id} {service:?} mean_jobs"
        );
        assert_eq!(
            eval.mean_latency.unwrap().to_bits(),
            latency,
            "{id} {service:?} mean_latency"
        );
    }
}
