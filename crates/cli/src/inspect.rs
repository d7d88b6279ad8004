//! The inspectors that run no model: `list`, `export`, `topology` and
//! `radio`.

use wsnem_scenario::{
    builtin, files, FileFormat, Scenario, ScenarioError, DEFAULT_SUMMARY_NODE_LIMIT,
};

use crate::args::{self, value, Args, Flag};
use crate::gen::file_format;
use crate::out;

#[rustfmt::skip]
pub(crate) const EXPORT_FLAGS: &[Flag] = &[
    value(&["--format"], "<FMT>",          &["File format: toml (default), json"]),
];

// Documented in their commands' synopses.
const BUILTIN: Flag = value(&["--builtin"], "<NAME>", &[]);
pub(crate) const TOPOLOGY_FLAGS: &[Flag] = &[BUILTIN, value(&["--limit"], "<N>", &[])];
pub(crate) const RADIO_FLAGS: &[Flag] = &[BUILTIN, value(&["--preset"], "<NAME>", &[])];

pub(crate) fn cmd_list(_: &Args) -> Result<(), String> {
    let scenarios = builtin::all();
    outln!("{} built-in scenarios:\n", scenarios.len());
    for s in &scenarios {
        let features: Vec<&str> = [
            s.sweep.as_ref().map(|_| "sweep"),
            s.network.as_ref().map(|_| "network"),
            s.network
                .as_ref()
                .and_then(|n| n.topology.as_ref())
                .map(|t| t.label()),
            s.workload
                .as_ref()
                .filter(|w| !w.is_poisson())
                .map(|_| "non-poisson workload"),
            s.service
                .as_ref()
                .filter(|d| !d.is_exponential())
                .map(|_| "non-exponential service"),
        ]
        .into_iter()
        .flatten()
        .collect();
        let backends: Vec<String> = s.backends.iter().map(|b| b.to_string()).collect();
        outln!("  {}", s.name);
        outln!("      backends: {}", backends.join(", "));
        if !features.is_empty() {
            outln!("      features: {}", features.join(", "));
        }
        for line in wrap(&s.description, 72) {
            outln!("      {line}");
        }
        outln!();
    }
    outln!("Run them with `wsnem run --all` or `wsnem run --builtin <name>`;");
    outln!("export one as a starting point with `wsnem export <name>`.");
    Ok(())
}

/// Resolve the one scenario a subcommand operates on: a file path or a
/// `--builtin` name, mutually exclusive. `command` names the caller in the
/// nothing-given error (shared by `trace`, `topology` and `radio`).
pub(crate) fn resolve_scenario(
    a: &Args,
    command: &str,
    load: fn(String) -> Result<Scenario, ScenarioError>,
) -> Result<Scenario, String> {
    match (a.positional()?, a.value("--builtin")) {
        (Some(_), Some(_)) => {
            Err("pass either a scenario file or --builtin <NAME>, not both".into())
        }
        (None, None) => Err(format!(
            "{command} expects a scenario file or --builtin <NAME>"
        )),
        (Some(f), None) => load(f).map_err(|e| e.to_string()),
        (None, Some(n)) => builtin::find(n).map_err(|e| e.to_string()),
    }
}

pub(crate) fn cmd_export(a: &Args) -> Result<(), String> {
    let format = a.parsed_or("--format", file_format, FileFormat::Toml)?;
    let name = a
        .positional()?
        .ok_or("export expects a built-in scenario name")?;
    let scenario = builtin::find(&name).map_err(|e| e.to_string())?;
    let text = files::to_string(&scenario, format).map_err(|e| e.to_string())?;
    out(&text);
    if !text.ends_with('\n') {
        outln!();
    }
    Ok(())
}

pub(crate) fn cmd_topology(a: &Args) -> Result<(), String> {
    let limit = a.parsed_or("--limit", args::count, DEFAULT_SUMMARY_NODE_LIMIT)?;
    let scenario = resolve_scenario(a, "topology", files::load)?;
    let spec = scenario
        .network
        .as_ref()
        .ok_or_else(|| format!("scenario `{}` declares no network", scenario.name))?;
    let profile = scenario.profile.build().map_err(|e| e.to_string())?;
    let battery = scenario.battery.build().map_err(|e| e.to_string())?;
    // Routing comes off the structure-of-arrays core, so a million-node
    // template inspects without ever materializing per-node structs.
    let soa = spec
        .build_soa(scenario.cpu, &profile, &battery)
        .map_err(|e| e.to_string())?;
    let routing = soa
        .routing()
        .map_err(|e| format!("scenario `{}`: invalid topology: {e}", scenario.name))?;
    let (depths, forwarded, sizes) = (&routing.depths, &routing.forwarded, &routing.subtree_sizes);

    let shape = spec.topology.as_ref().map(|t| t.label()).unwrap_or("star");
    let template = if spec.template.is_some() {
        " (template)"
    } else {
        ""
    };
    outln!(
        "scenario `{}`: {shape} topology{template}, {} node(s), max depth {}, \
         sink inflow {:.3} pkt/s\n",
        scenario.name,
        soa.len(),
        routing.max_hop_depth(),
        soa.sink_arrival_pkts_s()
    );
    outln!(
        "  {:<16} {:<16} {:>5} {:>8} {:>12} {:>12} {:>12}  {:<20}",
        "node",
        "next hop",
        "depth",
        "subtree",
        "own tx/s",
        "fwd rx/s",
        "cpu load/s",
        "radio (duty)"
    );
    for i in 0..soa.len().min(limit) {
        let next = match soa.routes.parent_of(i) {
            wsnem_scenario::SINK => "(sink)".to_owned(),
            j => soa.name(j as usize),
        };
        let radio = format!(
            "{} ({:.2}%)",
            spec.radio_spec_for(i).label(),
            100.0 * soa.radio_for(i).duty_cycle()
        );
        outln!(
            "  {:<16} {:<16} {:>5} {:>8} {:>12.3} {:>12.3} {:>12.3}  {:<20}",
            soa.name(i),
            next,
            depths[i],
            sizes[i],
            soa.own_tx_rate(i),
            forwarded[i],
            soa.event_rate[i] + forwarded[i],
            radio
        );
    }
    if soa.len() > limit {
        outln!(
            "  … and {} more node(s); use --limit to show more",
            soa.len() - limit
        );
    }
    // The last node of the last run at the maximum load: `max_by` keeps the
    // last of equal maxima, and a run's nodes share one load.
    let heaviest = forwarded
        .runs()
        .scan(0, |end, (load, len)| {
            *end += len;
            Some((*end - 1, load))
        })
        .filter(|&(_, load)| load > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((i, _)) = heaviest {
        // This inspector runs no model, so it can only rank relays by
        // load; the *lifetime* bottleneck relay (MAC-sensitive with
        // per-node radio overrides) comes from `wsnem run`.
        outln!(
            "\n  heaviest relay: `{}` forwards {:.3} pkt/s for {} node(s) \
             (lifetime bottleneck: see `wsnem run`)",
            soa.name(i),
            forwarded[i],
            sizes[i] - 1
        );
    }
    Ok(())
}

pub(crate) fn cmd_radio(a: &Args) -> Result<(), String> {
    use wsnem_scenario::{Battery, RadioSpec};

    let scenario_given = a.positional()?.is_some() || a.has("--builtin");
    // Collect (role, spec) pairs plus the battery that sizes the lifetime
    // column: a bare preset inspects on two AA cells; a scenario inspects
    // its own network's specs on its own battery.
    let (specs, battery): (Vec<(String, RadioSpec)>, Battery) =
        match (a.value("--preset"), scenario_given) {
            (Some(_), true) => {
                return Err("pass either --preset <NAME> or a scenario, not both".into())
            }
            (Some(name), false) => (
                vec![("preset".to_owned(), RadioSpec::Preset(name.to_owned()))],
                Battery::two_aa(),
            ),
            (None, false) => {
                return Err(
                    "radio expects a scenario file, --builtin <NAME> or --preset <NAME> \
                 (e.g. `wsnem radio --preset cc2420-class`)"
                        .into(),
                )
            }
            (None, true) => {
                let scenario = resolve_scenario(a, "radio", files::load)?;
                let battery = scenario.battery.build().map_err(|e| e.to_string())?;
                let mut specs: Vec<(String, RadioSpec)> = Vec::new();
                match &scenario.network {
                    None => specs.push((
                        "default (scenario declares no network)".to_owned(),
                        RadioSpec::default(),
                    )),
                    Some(net) => {
                        specs.push((
                            if net.radio.is_some() {
                                "network default".to_owned()
                            } else {
                                "network default (implicit)".to_owned()
                            },
                            net.radio.clone().unwrap_or_default(),
                        ));
                        for n in &net.nodes {
                            if let Some(r) = &n.radio {
                                // One block per distinct override; name every
                                // node that runs it.
                                match specs.iter_mut().find(|(_, s)| s == r) {
                                    Some((role, _)) => {
                                        role.push_str(&format!(", node `{}`", n.name))
                                    }
                                    None => specs
                                        .push((format!("node `{}` override", n.name), r.clone())),
                                }
                            }
                        }
                    }
                }
                outln!(
                    "scenario `{}`: {} distinct radio spec(s)\n",
                    scenario.name,
                    specs.len()
                );
                (specs, battery)
            }
        };

    for (i, (role, spec)) in specs.iter().enumerate() {
        if i > 0 {
            outln!();
        }
        let model = spec.lower().map_err(|e| e.to_string())?;
        outln!("radio `{}` — {role}", spec.label());
        outln!(
            "  power:  sleep {:.3} mW   listen/rx {:.3} mW   tx {:.3} mW",
            model.sleep_mw,
            model.listen_mw,
            model.tx_mw
        );
        outln!(
            "  timing: wake-up period {:.4} s, listen window {:.4} s  ->  duty cycle {:.2}%",
            model.period_s,
            model.listen_s,
            100.0 * model.duty_cycle()
        );
        outln!(
            "  airtime/packet: tx {:.4} s, rx {:.4} s (MAC overhead included)",
            model.tx_airtime_s,
            model.rx_airtime_s
        );
        outln!();
        outln!(
            "  {:>14}  {:>7} {:>7} {:>7} {:>7}  {:>10}  {:>16}",
            "pkt/s (tx=rx)",
            "tx%",
            "rx%",
            "listen%",
            "sleep%",
            "mean mW",
            "lifetime (days)"
        );
        for rate in [0.0, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0] {
            let split = model.time_split(rate, rate);
            let power = model.mean_power_mw(rate, rate);
            outln!(
                "  {:>14} {:>7.2} {:>7.2} {:>8.2} {:>7.2}  {:>10.3}  {:>16.1}",
                rate,
                100.0 * split.tx,
                100.0 * split.rx,
                100.0 * split.listen,
                100.0 * split.sleep,
                power,
                battery.lifetime_days(power)
            );
        }
        outln!(
            "  (lifetime = radio draw alone on a {:.0} mAh / {:.1} V battery; CPU not \
             included)",
            battery.capacity_mah,
            battery.voltage_v
        );
    }
    Ok(())
}

fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}
