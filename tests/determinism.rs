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

/// Every DES workload path at fixed seeds, to the bit: open Poisson with a
/// warm-up, `T = 0`, `T = ∞`, an overloaded bounded buffer, MMPP-2, on-off
/// bursts, trace replay, a closed population with a warm-up, and a closed
/// population with deterministic think whose dropped customers re-think;
/// last, deterministic arrivals and service whose power-down timers tie
/// with the next arrival, so the tie order shows in the cycle counts.
/// Each row is `[standby, powerup, idle, active, mean_latency,
/// latency_variance, mean_jobs_in_system]` as bits, then `[arrivals,
/// completions, dropped, power_up_cycles, power_down_cycles]`. Any change
/// to the event order, RNG draw order or accrual order moves them.
#[test]
fn des_workloads_pinned() {
    use wsnem::des::workload::{ClosedWorkload, OpenWorkload};
    use wsnem::stats::dist::Dist;

    let base = |t: f64, d: f64| CpuSimParams {
        horizon: 400.0,
        ..CpuSimParams::exponential_service(10.0, t, d)
    };
    let cases: Vec<(&str, CpuSimParams, Workload)> = vec![
        (
            "poisson-warmup",
            CpuSimParams {
                warmup: 50.0,
                ..base(0.5, 0.001)
            },
            Workload::open_poisson(1.0),
        ),
        ("t-zero", base(0.0, 0.001), Workload::open_poisson(1.0)),
        (
            "t-infinite",
            base(f64::INFINITY, 0.001),
            Workload::open_poisson(1.0),
        ),
        (
            "bounded-overload",
            CpuSimParams {
                max_queue: Some(2),
                horizon: 400.0,
                ..CpuSimParams::exponential_service(1.0, 0.5, 0.1)
            },
            Workload::open_poisson(3.0),
        ),
        (
            "mmpp2",
            base(0.5, 0.05),
            Workload::Open(OpenWorkload::Mmpp2 {
                rate0: 0.5,
                rate1: 4.0,
                switch01: 0.1,
                switch10: 0.3,
            }),
        ),
        (
            "on-off",
            base(0.3, 0.05),
            Workload::Open(OpenWorkload::BurstyOnOff {
                on: Dist::Exponential { rate: 1.0 },
                off: Dist::Exponential { rate: 0.5 },
                rate_on: 3.0,
            }),
        ),
        (
            "trace",
            base(0.4, 0.02),
            Workload::Open(OpenWorkload::Trace(vec![0.3, 1.2, 0.05, 0.5, 2.0])),
        ),
        (
            "closed-exp-warmup",
            CpuSimParams {
                warmup: 50.0,
                ..base(0.5, 0.01)
            },
            Workload::Closed(ClosedWorkload {
                population: 5,
                think: Dist::Exponential { rate: 1.0 },
            }),
        ),
        (
            "closed-det-drop",
            CpuSimParams {
                max_queue: Some(1),
                ..base(0.2, 0.01)
            },
            Workload::Closed(ClosedWorkload {
                population: 5,
                think: Dist::Deterministic(0.5),
            }),
        ),
        (
            "deterministic-ties",
            CpuSimParams {
                service: Dist::Deterministic(0.25),
                ..base(0.5, 0.125)
            },
            Workload::Open(OpenWorkload::Trace(vec![0.75, 0.75, 3.0])),
        ),
    ];
    let pins: [(&str, u64, [u64; 7], [u64; 5]); 20] = [
        (
            "poisson-warmup",
            7,
            [
                0x3fe1_357c_b9b9_7961,
                0x3f41_0a13_7f38_3fa2,
                0x3fd6_6ede_592f_48ea,
                0x3fbc_768c_a678_a0d4,
                0x3fc0_3a23_5e9a_d0dc,
                0x3f91_5a86_e64e_43e1,
                0x3fc0_2e44_ea09_8cf5,
            ],
            [349, 349, 0, 182, 181],
        ),
        (
            "poisson-warmup",
            2008,
            [
                0x3fe1_a94e_3eda_51d0,
                0x3f41_81e9_d5b4_3cb5,
                0x3fd6_9ba3_521f_3f22,
                0x3fb8_23fc_ed05_0c79,
                0x3fb9_fe8e_ee58_5e61,
                0x3f82_375a_6a6b_3fc8,
                0x3fba_1192_43df_343b,
            ],
            [351, 351, 0, 187, 186],
        ),
        (
            "t-zero",
            7,
            [
                0x3fec_ac20_987e_b716,
                0x3f4b_ef49_cf56_380a,
                0x0000_0000_0000_0000,
                0x3fba_671c_a86b_9ae7,
                0x3fbf_0eb3_664f_ebc2,
                0x3f8e_2200_7d96_41b1,
                0x3fbd_950a_e0cf_f6ef,
            ],
            [381, 381, 0, 341, 341],
        ),
        (
            "t-zero",
            2008,
            [
                0x3fec_8f80_80a1_0e50,
                0x3f4f_b3fa_6dee_f7a7,
                0x0000_0000_0000_0000,
                0x3fbb_4494_061b_af9b,
                0x3fbc_0cc0_34ff_b50b,
                0x3f88_1c6e_cb51_6324,
                0x3fbd_3dee_c69c_7eac,
            ],
            [417, 417, 0, 387, 387],
        ),
        (
            "t-infinite",
            7,
            [
                0x3f7d_a228_c2a5_8e93,
                0x3ec4_f8b5_88e3_6667,
                0x3fec_b540_3818_8fe3,
                0x3fb8_7bb1_c1a6_163e,
                0x3fbe_fb20_218a_09a2,
                0x3f91_b759_3d0a_8505,
                0x3fbb_ce2f_65c8_0c7b,
            ],
            [359, 359, 0, 1, 0],
        ),
        (
            "t-infinite",
            2008,
            [
                0x3f55_0887_67cc_eacd,
                0x3ec4_f8b5_88e3_68f6,
                0x3fec_f081_699c_b701,
                0x3fb8_27a8_a410_027c,
                0x3fba_897e_ed6e_0475,
                0x3f85_305e_5878_58b2,
                0x3fba_458f_9403_f50d,
            ],
            [396, 396, 0, 1, 0],
        ),
        (
            "bounded-overload",
            7,
            [
                0x3f7d_b0da_5e6d_2d12,
                0x3f62_6e97_8d4f_e021,
                0x3f95_c233_693b_4c68,
                0x3fef_041e_186b_fb63,
                0x4004_b88f_1bb8_1a99,
                0x4007_4e2b_1268_9b6f,
                0x4004_3f17_e55f_3f46,
            ],
            [1156, 389, 764, 9, 8],
        ),
        (
            "bounded-overload",
            2008,
            [
                0x3f78_68fd_4e1a_8035,
                0x3f54_7ae1_47ae_1604,
                0x3f8d_3fb5_75a1_c961,
                0x3fef_4ff1_bee9_6cd0,
                0x4006_1d41_2156_e419,
                0x4008_c75f_8c59_2a5e,
                0x4004_c59e_03a0_3836,
            ],
            [1202, 373, 826, 5, 4],
        ),
        (
            "mmpp2",
            7,
            [
                0x3fe0_dc6f_0226_65a5,
                0x3f94_9ba5_e353_fb29,
                0x3fd4_1ccd_9e13_9ea7,
                0x3fc1_c133_fed4_acba,
                0x3fc5_9ffa_d386_27e1,
                0x3f98_68c4_07b2_abe8,
                0x3fce_7dbb_43d9_51d6,
            ],
            [564, 564, 0, 161, 161],
        ),
        (
            "mmpp2",
            2008,
            [
                0x3fe1_cc73_0d2a_524b,
                0x3f95_1eb8_51eb_8855,
                0x3fd2_d336_a087_b4ba,
                0x3fc0_83ef_8009_dc57,
                0x3fc3_3edc_14ce_b6c0,
                0x3f8f_f237_c09f_9ef7,
                0x3fc8_711c_9f8b_a585,
            ],
            [508, 508, 0, 165, 164],
        ),
        (
            "on-off",
            7,
            [
                0x3fe7_a767_5567_00d8,
                0x3f91_eb85_1eb8_54ad,
                0x3fc2_6fa5_cc63_cee1,
                0x3fb9_6a98_7452_464c,
                0x3fc4_3c03_55f7_952a,
                0x3f91_946d_0ba8_c765,
                0x3fc3_c7cb_1069_83e9,
            ],
            [393, 390, 0, 140, 139],
        ),
        (
            "on-off",
            2008,
            [
                0x3fe7_4b4c_41be_3c32,
                0x3f92_2d0e_5604_1b45,
                0x3fc4_0d27_3d5c_35b2,
                0x3fb9_000b_e1d4_ac3b,
                0x3fc2_7747_2114_24b9,
                0x3f8a_aa53_0476_5b16,
                0x3fc2_f947_2a4e_effb,
            ],
            [411, 411, 0, 142, 142],
        ),
        (
            "trace",
            7,
            [
                0x3fe1_38e6_7b31_5d23,
                0x3f87_8d4f_df3b_5f6d,
                0x3fd4_9784_8cc6_2323,
                0x3fc0_7487_fbba_8f38,
                0x3fc1_074b_b830_0254,
                0x3f8e_ea53_ba8c_08f8,
                0x3fc5_07ba_f41c_923c,
            ],
            [494, 494, 0, 230, 230],
        ),
        (
            "trace",
            2008,
            [
                0x3fe1_400b_c2de_6e99,
                0x3f88_2a99_30be_095a,
                0x3fd4_d99f_b8d7_3729,
                0x3fbf_93cf_df97_ed69,
                0x3fc0_15fb_52d4_591a,
                0x3f87_4c9b_9355_8dea,
                0x3fc3_ddb5_1ac6_3ff4,
            ],
            [494, 494, 0, 236, 236],
        ),
        (
            "closed-exp-warmup",
            7,
            [
                0x3fad_414a_929b_2017,
                0x3f64_d4c2_088a_f823,
                0x3fe0_2593_e779_9880,
                0x3fdb_e305_5aa8_550d,
                0x3fc3_82d1_7ef1_26a0,
                0x3f94_44ca_bd81_ae36,
                0x3fe5_07b3_5c64_1bea,
            ],
            [1509, 1509, 0, 89, 89],
        ),
        (
            "closed-exp-warmup",
            2008,
            [
                0x3fa5_ae9a_9e70_488f,
                0x3f60_9e38_fe2f_94aa,
                0x3fe0_12e3_8818_b59a,
                0x3fdd_0329_2a04_2c92,
                0x3fc3_36a2_cacf_b62b,
                0x3f96_c77c_1c0e_5dd6,
                0x3fe5_4fe6_ac94_68c1,
            ],
            [1552, 1553, 0, 71, 71],
        ),
        (
            "closed-det-drop",
            7,
            [
                0x3f9e_edff_38e0_d885,
                0x3f72_a305_5326_0c3f,
                0x3fd4_6324_d774_ff35,
                0x3fe4_b1b7_8fd8_2d89,
                0x3fc3_03c8_faa3_665e,
                0x3f91_4048_e991_ae72,
                0x3fee_0e4f_ba44_15e8,
            ],
            [3246, 2529, 716, 182, 181],
        ),
        (
            "closed-det-drop",
            2008,
            [
                0x3f9e_b76f_22a0_c14d,
                0x3f72_f1a9_fbe7_6397,
                0x3fd4_bb14_8080_021a,
                0x3fe4_86d6_f2b3_2a21,
                0x3fc2_76f2_cc07_5aaa,
                0x3f90_ce5a_a76c_ee56,
                0x3fed_9fcc_41e6_09e0,
            ],
            [3258, 2567, 691, 185, 184],
        ),
        (
            "deterministic-ties",
            7,
            [
                0x3fe0_0a3d_70a3_d70a,
                0x3f9c_7ae1_47ae_147b,
                0x3fd3_8000_0000_0000,
                0x3fc5_47ae_147a_e148,
                0x3fd2_ad3b_ab4e_ead2,
                0x3f6c_9af1_98ba_7792,
                0x3fc8_d70a_3d70_a3d7,
            ],
            [266, 266, 0, 89, 89],
        ),
        (
            "deterministic-ties",
            2008,
            [
                0x3fe0_0a3d_70a3_d70a,
                0x3f9c_7ae1_47ae_147b,
                0x3fd3_8000_0000_0000,
                0x3fc5_47ae_147a_e148,
                0x3fd2_ad3b_ab4e_ead2,
                0x3f6c_9af1_98ba_7792,
                0x3fc8_d70a_3d70_a3d7,
            ],
            [266, 266, 0, 89, 89],
        ),
    ];
    let mut pins = pins.iter();
    for (name, params, workload) in cases {
        let sim = CpuDes::new(params, workload).unwrap();
        for seed in [7u64, 2008] {
            let &(pin_name, pin_seed, bits, counts) = pins.next().unwrap();
            assert_eq!((pin_name, pin_seed), (name, seed), "pin table order");
            let r = sim.run_with_seed(seed);
            let got = [
                r.fractions.standby,
                r.fractions.powerup,
                r.fractions.idle,
                r.fractions.active,
                r.mean_latency,
                r.latency_variance,
                r.mean_jobs_in_system,
            ]
            .map(f64::to_bits);
            assert_eq!(got, bits, "{name} seed {seed}: fractions and moments");
            let got = [
                r.arrivals,
                r.completions,
                r.dropped,
                r.power_up_cycles,
                r.power_down_cycles,
            ];
            assert_eq!(got, counts, "{name} seed {seed}: counts");
        }
    }
    assert!(pins.next().is_none(), "every pin checked");
}
