//! Reproducibility contract: identical results for identical seeds,
//! regardless of thread count, across every simulation layer.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem::core::experiments::ThresholdSweep;
use wsnem::core::{CpuModel, CpuModelParams, DesCpuModel, PetriCpuModel};
use wsnem::des::cpu::{CpuDes, CpuSimParams};
use wsnem::des::replication::run_replications;
use wsnem::des::workload::Workload;

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
        let pn = PetriCpuModel::new(params())
            .with_threads(threads)
            .evaluate()
            .unwrap();
        let des = DesCpuModel::new(params())
            .with_threads(threads)
            .evaluate()
            .unwrap();
        let pn1 = PetriCpuModel::new(params())
            .with_threads(Some(1))
            .evaluate()
            .unwrap();
        let des1 = DesCpuModel::new(params())
            .with_threads(Some(1))
            .evaluate()
            .unwrap();
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
    let a = DesCpuModel::new(params().with_seed(1)).evaluate().unwrap();
    let b = DesCpuModel::new(params().with_seed(2)).evaluate().unwrap();
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
    let eval = PetriCpuModel::new(p)
        .with_threads(Some(1))
        .evaluate()
        .unwrap();
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
