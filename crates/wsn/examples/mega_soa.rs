//! Scale check: analyze a 10^6-node collection tree with the analytic
//! M/G/1 backend on one core. Run with
//! `cargo run --release -p wsnem-wsn --example mega_soa`.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use wsnem_core::{BackendId, CpuModelParams, EvalOptions};
use wsnem_wsn::{NodeConfig, Routes, SoaNetwork};

fn main() {
    let n = 1_000_000;
    let node = NodeConfig::monitoring("n", 1.0);
    let t0 = Instant::now();
    let soa = SoaNetwork::homogeneous(
        Routes::Tree { fanout: 4 },
        n,
        "n",
        5e-6,
        node.tx_per_event,
        node.rx_rate,
        CpuModelParams::paper_defaults().with_lambda(5e-6),
        node.cpu_profile,
        node.radio,
        node.battery,
    );
    let build = t0.elapsed();
    let t1 = Instant::now();
    let a = soa
        .analyze_with(
            wsnem_core::backend::global(),
            BackendId::Mg1,
            &EvalOptions::default(),
            Some(1),
        )
        .expect("stable network");
    let solve = t1.elapsed();
    println!(
        "build {:?} solve {:?} first_death {:.1} max_depth {} sink {:.3} root_rho {:.3}",
        build,
        solve,
        a.first_death_days(),
        a.max_hop_depth(),
        a.sink_arrival_pkts_s,
        a.rho[0]
    );
}
