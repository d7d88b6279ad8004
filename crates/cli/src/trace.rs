//! `trace`: run one scenario's CPU model with a trace observer attached and
//! emit its NDJSON event stream.

use wsnem_obs::{StateTimeline, Tee, TraceWriter};
use wsnem_scenario::files;

use crate::args::{self, value, Args, Flag};
use crate::inspect::resolve_scenario;
use crate::out;

#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    value(&["--builtin"], "<NAME>",        &["Trace a built-in scenario's CPU parameters"]),
    value(&["--backend"], "<B>",           &["Kernel to trace: des (default) or petri"]),
    value(&["--out", "-o"], "<FILE>",      &["Write the NDJSON stream there instead of stdout"]),
    value(&["--limit"], "<N>",             &["Stop recording after N trace records"]),
    value(&["--sample"], "<N>",            &["Record every N-th admissible event only"]),
    value(&["--seed"], "<N>",              &["RNG seed (default: the scenario's master seed)"]),
];

/// The canonical CPU state labels, in [`wsnem_energy::CpuState::index`]
/// order — also the order of `StateFractions::as_array`.
const STATE_LABELS: [&str; 4] = ["standby", "powerup", "idle", "active"];

pub(crate) fn cmd_trace(a: &Args) -> Result<(), String> {
    let limit = a.parsed("--limit", args::positive)?;
    let sample = a.parsed("--sample", args::positive)?;
    let seed = a.parsed("--seed", args::integer)?;
    let scenario = resolve_scenario(a, "trace", files::load)?;
    let cpu = scenario.cpu;
    let seed = seed.unwrap_or(cpu.master_seed);
    // The trace covers one replication from time zero with no warm-up
    // truncation, so the per-state sojourn fractions accumulated from the
    // stream reproduce the reported time-in-state split exactly.
    let mut tracer = TraceWriter::new(Vec::new());
    if let Some(n) = limit {
        tracer = tracer.with_limit(n);
    }
    if let Some(n) = sample {
        tracer = tracer.with_sampling(n);
    }
    let mut rng = wsnem_stats::rng::Xoshiro256PlusPlus::new(seed);

    let (bytes, summary) = match a.value("--backend").unwrap_or("des") {
        "des" => {
            tracer = tracer.with_state_labels(STATE_LABELS.map(str::to_owned).to_vec());
            let params = wsnem_des::CpuSimParams {
                service: wsnem_stats::dist::Dist::Exponential { rate: cpu.mu },
                power_down_threshold: cpu.power_down_threshold,
                power_up_delay: cpu.power_up_delay,
                horizon: cpu.horizon,
                warmup: 0.0,
                max_queue: None,
            };
            let sim = wsnem_des::CpuDes::new(params, wsnem_des::Workload::open_poisson(cpu.lambda))
                .map_err(|e| e.to_string())?;
            let mut obs = Tee::new(tracer, StateTimeline::new());
            let report = sim.run_observed(&mut rng, &mut obs);
            let Tee {
                a: tracer,
                b: timeline,
            } = obs;
            let mut summary = format!(
                "traced `{}` on the des kernel: horizon {} s, seed {seed}, {} record(s)\n",
                scenario.name,
                cpu.horizon,
                tracer.records_written()
            );
            let reported = report.fractions.as_array();
            for (i, label) in STATE_LABELS.iter().enumerate() {
                summary.push_str(&format!(
                    "  state {label:<8} trace {:.9}  report {:.9}\n",
                    timeline.fraction(i as u8),
                    reported[i]
                ));
            }
            (tracer.finish().map_err(|e| e.to_string())?, summary)
        }
        "petri" => {
            let (net, handles) = wsnem_core::build_cpu_edspn(
                cpu.lambda,
                cpu.mu,
                cpu.power_down_threshold,
                cpu.power_up_delay,
            )
            .map_err(|e| e.to_string())?;
            let labels: Vec<String> = net
                .transitions()
                .map(|t| net.transition_name(t).to_owned())
                .collect();
            tracer = tracer.with_transition_labels(labels);
            let rewards = wsnem_core::state_rewards(&handles);
            let cfg = wsnem_petri::SimConfig {
                horizon: cpu.horizon,
                warmup: 0.0,
                ..wsnem_petri::SimConfig::default()
            };
            let out = wsnem_petri::simulate_observed(&net, &cfg, &rewards, &mut rng, &mut tracer)
                .map_err(|e| e.to_string())?;
            let mut summary = format!(
                "traced `{}` on the petri kernel: horizon {} s, seed {seed}, {} record(s)\n",
                scenario.name,
                cpu.horizon,
                tracer.records_written()
            );
            for (i, label) in STATE_LABELS.iter().enumerate() {
                summary.push_str(&format!(
                    "  state {label:<8} report {:.9}\n",
                    out.reward_means[i]
                ));
            }
            (tracer.finish().map_err(|e| e.to_string())?, summary)
        }
        other => return Err(format!("unknown backend `{other}` (expected des or petri)")),
    };

    match a.value("--out") {
        None => out(std::str::from_utf8(&bytes).map_err(|e| e.to_string())?),
        Some(path) => std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?,
    }
    eprint!("{summary}");
    Ok(())
}
