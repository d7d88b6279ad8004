//! Domain scenario 4 — surveillance traffic is bursty, not Poisson (the
//! VigilNet setting the paper's introduction cites [6]).
//!
//! The workload itself now lives in the scenario library as the built-in
//! `surveillance-bursty` scenario (see `wsnem list` / `wsnem run --builtin
//! surveillance-bursty`); this example drives it through the scenario
//! runner and reads the distortion off the agreement report, then adds the
//! MMPP day/night variant by editing the scenario in place — the
//! "re-parameterize without recompiling" workflow the subsystem exists for.
//!
//! Run with: `cargo run --release --example surveillance_bursty`

#![allow(clippy::disallowed_methods)] // tests/examples may panic on broken invariants
use wsnem_scenario::{builtin, runner, BackendId, ScenarioReport, WorkloadSpec};

fn backend_of(report: &ScenarioReport, backend: BackendId) -> &wsnem_scenario::BackendReport {
    report
        .backends
        .iter()
        .find(|b| b.backend == backend)
        .expect("backend present")
}

fn print_line(label: &str, b: &wsnem_scenario::BackendReport) {
    println!(
        "  {label:<34} standby {:>5.1}%  idle {:>5.1}%  active {:>4.1}%  ->  {:>6.2} mW",
        b.fractions.standby * 100.0,
        (b.fractions.powerup + b.fractions.idle) * 100.0,
        b.fractions.active * 100.0,
        b.mean_power_mw,
    );
}

fn main() {
    let scenario = builtin::find("surveillance-bursty").expect("built-in scenario");
    println!("Surveillance node, mean arrival rate 1 detection/s, T = 0.5 s, D = 1 ms:\n");

    let report = runner::run_scenario(&scenario).expect("scenario runs");
    let markov = backend_of(&report, BackendId::Markov); // Poisson approximation
    let des = backend_of(&report, BackendId::Des); // real burst process
    print_line("Poisson arrivals (Markov model)", markov);
    print_line("Bursty on-off (target transits)", des);
    let (poisson, bursty) = (markov.mean_power_mw, des.mean_power_mw);

    // MMPP day/night variant: same scenario, different workload — in the
    // file-based workflow this is a one-line edit, no recompilation.
    let mut mmpp_scenario = scenario.clone();
    mmpp_scenario.name = "surveillance-mmpp".into();
    mmpp_scenario.workload = Some(WorkloadSpec::Mmpp2 {
        rate0: 1.8,
        rate1: 0.2,
        switch01: 0.01,
        switch10: 0.01,
    });
    let mmpp_report = runner::run_scenario(&mmpp_scenario).expect("scenario runs");
    let mmpp_des = backend_of(&mmpp_report, BackendId::Des);
    print_line("MMPP day/night modulation", mmpp_des);
    let mmpp = mmpp_des.mean_power_mw;

    println!("\nAt equal mean load, burstiness changes the power picture:");
    println!(
        "  bursty vs Poisson: {:+.1}%   (long quiet gaps -> more standby, deeper savings)",
        (bursty / poisson - 1.0) * 100.0
    );
    println!(
        "  MMPP  vs Poisson: {:+.1}%",
        (mmpp / poisson - 1.0) * 100.0
    );
    for a in &report.agreement {
        println!(
            "  agreement report: Δ({} vs {}) = {:.1} pp, energy {:+.1}%",
            a.backend,
            a.reference,
            a.mean_abs_delta_pp,
            100.0 * a.energy_rel_error
        );
    }
    println!("\nA model calibrated on Poisson arrivals would misbudget the battery —");
    println!("this is why the scenario library ships workload generators beyond the paper's.");
}
