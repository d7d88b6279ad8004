//! Experiment-harness benchmarks: one Criterion group per paper artifact
//! (reduced budgets — the full-fidelity regeneration lives in `src/bin/`),
//! plus the E6 model-evaluation-cost comparison behind the paper's §6
//! trade-off claim ("Petri nets need long simulation; Markov models evaluate
//! an expression").

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use std::hint::black_box;
use wsnem_bench::harness::Criterion;
use wsnem_bench::{criterion_group, criterion_main};

use wsnem_core::experiments::{table4, table5, ThresholdSweep};
use wsnem_core::{backend, BackendId, CpuModelParams, EvalOptions};
use wsnem_energy::PowerProfile;

fn reduced_params() -> CpuModelParams {
    CpuModelParams::paper_defaults()
        .with_replications(2)
        .with_horizon(200.0)
        .with_warmup(10.0)
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    g.bench_function("threshold_sweep_reduced", |b| {
        b.iter(|| {
            let sweep = ThresholdSweep {
                params: reduced_params(),
                t_values: vec![0.0, 0.5, 1.0],
            };
            black_box(sweep.run().expect("sweep runs"))
        });
    });
    g.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    let profile = PowerProfile::pxa271();
    let sweep = ThresholdSweep {
        params: reduced_params(),
        t_values: vec![0.0, 0.5, 1.0],
    }
    .run()
    .expect("sweep runs");
    g.bench_function("energy_series_from_sweep", |b| {
        b.iter(|| {
            for kind in [
                wsnem_core::BackendId::Des,
                wsnem_core::BackendId::Markov,
                wsnem_core::BackendId::PetriNet,
            ] {
                black_box(sweep.energy_series(kind, &profile));
            }
        });
    });
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("delta_percentages_reduced", |b| {
        b.iter(|| black_box(table4(reduced_params(), &[0.001, 0.3]).expect("table4")));
    });
    g.finish();
}

fn bench_table5(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5");
    g.sample_size(10);
    let profile = PowerProfile::pxa271();
    g.bench_function("delta_energy_reduced", |b| {
        b.iter(|| black_box(table5(reduced_params(), &[0.001, 0.3], &profile).expect("table5")));
    });
    g.finish();
}

/// E6: what one steady-state evaluation costs per model — the §6 trade-off.
fn bench_model_eval_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("model_eval_cost");
    let params = CpuModelParams::paper_defaults()
        .with_replications(4)
        .with_horizon(1000.0);
    let opts = EvalOptions::default().with_threads(Some(1));
    let solve = |id| {
        backend::global()
            .solve(id, &params, &opts)
            .expect("evaluates")
    };
    g.bench_function("markov_closed_form", |b| {
        b.iter(|| black_box(solve(BackendId::Markov)));
    });
    g.sample_size(10);
    g.bench_function("petri_simulation_4x1000s", |b| {
        b.iter(|| black_box(solve(BackendId::PetriNet)));
    });
    g.bench_function("des_simulation_4x1000s", |b| {
        b.iter(|| black_box(solve(BackendId::Des)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig4,
    bench_fig5,
    bench_table4,
    bench_table5,
    bench_model_eval_cost
);
criterion_main!(benches);
