//! Engine microbenchmarks: token-game firing throughput, DES event
//! throughput, CTMC solver scaling, RNG/distribution sampling cost.
//!
//! These quantify the substrate costs behind the §6 trade-off discussion.

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::hint::black_box;
use wsnem_bench::harness::{BenchmarkId, Criterion, Throughput};
use wsnem_bench::{criterion_group, criterion_main};

use wsnem_bench::nets::{open_arrivals_net, relay_ring_net, vanishing_pipeline_net};
use wsnem_core::build_cpu_edspn;
use wsnem_des::cpu::{CpuDes, CpuSimParams};
use wsnem_des::workload::Workload;
use wsnem_markov::{CtmcBuilder, SteadyStateMethod};
use wsnem_petri::analysis::{tangible_chain, ReachOptions};
use wsnem_petri::models::mm1k_net;
use wsnem_petri::{simulate, SimConfig};
use wsnem_stats::dist::{Dist, Sample};
use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1));
    g.bench_function("xoshiro_next_u64", |b| {
        let mut rng = Xoshiro256PlusPlus::new(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    g.bench_function("exponential_sample", |b| {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let d = Dist::Exponential { rate: 1.0 };
        b.iter(|| black_box(d.sample(&mut rng)));
    });
    g.bench_function("gamma_sample", |b| {
        let mut rng = Xoshiro256PlusPlus::new(1);
        let d = Dist::Gamma {
            shape: 2.5,
            rate: 1.0,
        };
        b.iter(|| black_box(d.sample(&mut rng)));
    });
    g.finish();
}

fn bench_petri_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("petri_token_game");
    // ~2λ·horizon firings per run of the M/M/1/K net.
    let (net, _) = mm1k_net(1.0, 2.0, 10).expect("net builds");
    for horizon in [1_000.0, 10_000.0] {
        g.throughput(Throughput::Elements((2.0 * horizon) as u64));
        g.bench_with_input(
            BenchmarkId::new("mm1k", horizon as u64),
            &horizon,
            |b, &h| {
                let cfg = SimConfig::for_horizon(h);
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = Xoshiro256PlusPlus::new(seed);
                    black_box(simulate(&net, &cfg, &[], &mut rng).expect("simulates"))
                });
            },
        );
    }
    // The paper's Fig. 3 net (8 transitions, immediates + deterministics).
    let (net, _) = build_cpu_edspn(1.0, 10.0, 0.5, 0.001).expect("paper net builds");
    g.throughput(Throughput::Elements(6_000));
    g.bench_function("paper_cpu_edspn_1000s", |b| {
        let cfg = SimConfig::for_horizon(1000.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = Xoshiro256PlusPlus::new(seed);
            black_box(simulate(&net, &cfg, &[], &mut rng).expect("simulates"))
        });
    });
    // The same net at ρ = 0.9, T = 0.1 s, D = 5 s: ~18k tangible firings
    // over ~1300 distinct markings per run.
    let (net, _) = build_cpu_edspn(9.0, 10.0, 0.1, 5.0).expect("paper net builds");
    g.throughput(Throughput::Elements(45_000));
    g.bench_function("paper_cpu_edspn_rho09_1000s", |b| {
        let cfg = SimConfig::for_horizon(1000.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = Xoshiro256PlusPlus::new(seed);
            black_box(simulate(&net, &cfg, &[], &mut rng).expect("simulates"))
        });
    });
    // Markings that never repeat: the marking memo's worst case.
    let net = open_arrivals_net();
    g.throughput(Throughput::Elements(40_000));
    g.bench_function("open_arrivals_sim_2000s", |b| {
        let cfg = SimConfig::for_horizon(2000.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = Xoshiro256PlusPlus::new(seed);
            black_box(simulate(&net, &cfg, &[], &mut rng).expect("simulates"))
        });
    });
    // Immediate-heavy net: every arrival walks an 8-stage vanishing chain,
    // stressing the vanishing-resolution path in both execution modes.
    let net = vanishing_pipeline_net(8);
    g.throughput(Throughput::Elements(10 * 1_000));
    g.bench_function("vanishing_pipeline_sim_1000s", |b| {
        let cfg = SimConfig::for_horizon(1000.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = Xoshiro256PlusPlus::new(seed);
            black_box(simulate(&net, &cfg, &[], &mut rng).expect("simulates"))
        });
    });
    g.bench_function("vanishing_pipeline_tangible_chain", |b| {
        b.iter(|| black_box(tangible_chain(&net, ReachOptions::default()).expect("eliminates")));
    });
    // Many-timed-transition stress: a closed relay ring with every hop
    // enabled all the time. Event count is held at ~n·horizon = 8192
    // across sizes, so the per-event cost scaling is what the numbers show
    // (the scan engine was O(n) per event here, the heap is O(log n)).
    for n in [32usize, 128, 256] {
        let net = relay_ring_net(n);
        let horizon = 8192.0 / n as f64;
        g.throughput(Throughput::Elements(8192));
        g.bench_with_input(BenchmarkId::new("relay_ring", n), &horizon, |b, &h| {
            let cfg = SimConfig::for_horizon(h);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = Xoshiro256PlusPlus::new(seed);
                black_box(simulate(&net, &cfg, &[], &mut rng).expect("simulates"))
            });
        });
    }
    g.finish();
}

fn bench_des_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_cpu");
    let sim = CpuDes::new(
        CpuSimParams::exponential_service(10.0, 0.5, 0.001),
        Workload::open_poisson(1.0),
    )
    .expect("sim builds");
    g.throughput(Throughput::Elements(3_000));
    g.bench_function("paper_cpu_1000s", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(sim.run_with_seed(seed))
        });
    });
    g.finish();
}

fn bench_ctmc_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("ctmc_steady_state");
    for n in [16usize, 128, 512] {
        // Birth–death chain of n states.
        let mut b = CtmcBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, 1.0).expect("rate ok");
            b.rate(i + 1, i, 2.0).expect("rate ok");
        }
        let chain = b.build().expect("chain builds");
        g.bench_with_input(BenchmarkId::new("dense", n), &chain, |bch, chain| {
            bch.iter(|| {
                black_box(
                    chain
                        .steady_state(SteadyStateMethod::Dense)
                        .expect("solves"),
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("gauss_seidel", n), &chain, |bch, chain| {
            bch.iter(|| {
                black_box(
                    chain
                        .steady_state(SteadyStateMethod::GaussSeidel {
                            max_iter: 100_000,
                            tol: 1e-12,
                        })
                        .expect("solves"),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_petri_engine,
    bench_des_engine,
    bench_ctmc_solvers
);
criterion_main!(benches);
