//! Scenario-level passes: everything decidable from the scenario file
//! alone, before any net is built or event fired. The errors are
//! [`Scenario::diagnose`]'s, the one rule set `validate` also reads; this
//! module adds the lints on top: near-saturated queues, radio airtime
//! saturation, sweep hygiene and workload approximation.

use wsnem_core::BackendRegistry;
use wsnem_scenario::{Load, Scenario};

use crate::diag::{Diagnostic, Location};
use crate::lints;

/// Offered load at which [`lints::HIGH_RHO`] starts firing: the queue is
/// still stable, but near-saturated M/G/1 queues mix slowly enough that
/// finite-horizon estimates turn noisy.
pub const HIGH_RHO_THRESHOLD: f64 = 0.95;

/// Run every scenario-level pass. The result is ordered deterministically:
/// the workload, load, radio and sweep lints, then the scenario's errors in
/// rule order. The scenario is diagnosed, and its network routed, once.
pub fn run(s: &Scenario, registry: &BackendRegistry) -> Vec<Diagnostic> {
    let diagnosis = s.diagnosis(registry);
    let mut out = Vec::new();
    workload_pass(s, registry, &mut out);
    for load in &diagnosis.loads {
        high_rho(load, &mut out);
    }
    radio_pass(s, &diagnosis.forwarded, &mut out);
    sweep_pass(s, &mut out);
    out.extend(diagnosis.errors);
    out
}

/// A non-Poisson workload evaluated by backends that assume Poisson
/// arrivals.
fn workload_pass(s: &Scenario, registry: &BackendRegistry, out: &mut Vec<Diagnostic>) {
    if s.workload.as_ref().is_none_or(|w| w.is_poisson()) {
        return;
    }
    let assuming: Vec<String> = s
        .backends
        .iter()
        .filter(|b| {
            registry
                .capabilities_of(**b)
                .is_some_and(|c| c.assumes_poisson)
        })
        .map(|b| b.to_string())
        .collect();
    if !assuming.is_empty() {
        out.push(lints::WORKLOAD_APPROXIMATION.at(
            Location::scenario(&s.name).with_field("workload"),
            format!(
                "non-Poisson workload is evaluated by backend(s) that assume \
                 Poisson arrivals ({}); the agreement report quantifies the \
                 distortion",
                assuming.join(", ")
            ),
        ));
    }
}

/// [`lints::HIGH_RHO`] for a stable operating point near saturation.
fn high_rho(load: &Load, out: &mut Vec<Diagnostic>) {
    let rho = load.rho();
    if rho >= HIGH_RHO_THRESHOLD && !load.is_unstable() {
        let what = format!(
            "offered load rho = {rho:.3} is within {:.0}% of saturation: \
             estimates at this load need long horizons to settle",
            100.0 * (1.0 - HIGH_RHO_THRESHOLD)
        );
        out.push(load.finding(&lints::HIGH_RHO, &what));
    }
}

/// Radio airtime saturation: a node whose packet airtime alone fills its
/// schedule cannot also listen, back off, or sleep.
fn radio_pass(s: &Scenario, forwarded: &[f64], out: &mut Vec<Diagnostic>) {
    let Some(network) = &s.network else {
        return;
    };
    for (i, node) in network.nodes.iter().enumerate() {
        let Ok(radio) = network.radio_spec_for(i).lower() else {
            continue; // the scenario rules report unlowerable radio specs
        };
        let fwd = forwarded.get(i).copied().unwrap_or(0.0);
        let tx_pps = node.event_rate * node.tx_per_event + fwd;
        let rx_pps = node.rx_rate + fwd;
        if !(tx_pps >= 0.0 && rx_pps >= 0.0) {
            continue;
        }
        let airtime = tx_pps * radio.tx_airtime_s + rx_pps * radio.rx_airtime_s;
        if airtime >= 1.0 {
            out.push(
                lints::RADIO_SATURATION
                    .at(
                        Location::scenario(&s.name)
                            .with_node(&node.name)
                            .with_field("radio"),
                        format!(
                            "packet airtime fills {:.0}% of wall-clock time \
                             ({tx_pps:.2} tx pkt/s x {:.4} s + {rx_pps:.2} rx pkt/s x \
                             {:.4} s): the MAC cannot carry this traffic",
                            100.0 * airtime,
                            radio.tx_airtime_s,
                            radio.rx_airtime_s
                        ),
                    )
                    .with_help(
                        "lower the node's traffic, shorten packet airtime, or pick a \
                         faster MAC preset",
                    ),
            );
        }
    }
}

/// Sweep hygiene: duplicate values re-simulate a point for nothing.
fn sweep_pass(s: &Scenario, out: &mut Vec<Diagnostic>) {
    let Some(sweep) = &s.sweep else {
        return;
    };
    let mut dupes: Vec<String> = Vec::new();
    for (i, v) in sweep.values.iter().enumerate() {
        if sweep.values[..i].contains(v) && !dupes.iter().any(|d| d == &v.to_string()) {
            dupes.push(v.to_string());
        }
    }
    if !dupes.is_empty() {
        out.push(
            lints::DEGENERATE_SWEEP
                .at(
                    Location::scenario(&s.name).with_field("sweep.values"),
                    format!(
                        "sweep axis `{}` repeats value(s) {}: duplicate points cost \
                         simulation time and add nothing",
                        sweep.axis.label(),
                        dupes.join(", ")
                    ),
                )
                .with_help("deduplicate `sweep.values`"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use wsnem_scenario::{
        builtin, SweepAxis, TopologySpec, MAX_CHAIN_TEMPLATE_COUNT, MAX_TEMPLATE_COUNT,
        SCHEMA_VERSION,
    };

    fn registry() -> &'static BackendRegistry {
        wsnem_scenario::global_registry()
    }

    #[test]
    fn builtins_raise_no_errors_or_warnings() {
        for s in builtin::all() {
            let diags = run(&s, registry());
            let bad: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.severity >= Severity::Warning)
                .collect();
            assert!(bad.is_empty(), "{}: {bad:?}", s.name);
        }
    }

    #[test]
    fn unstable_lambda_fires_e005() {
        let mut s = builtin::paper_defaults();
        s.cpu.lambda = 12.0; // mu = 10 => rho = 1.2
        let diags = run(&s, registry());
        assert!(
            diags.iter().any(|d| d.code == "E005"),
            "expected E005, got {diags:?}"
        );
        // The catch-all must NOT duplicate it as E004: a granular error
        // already explains the failure.
        assert!(diags.iter().all(|d| d.code != "E004"), "{diags:?}");
    }

    #[test]
    fn unstable_lambda_sweep_value_fires_e005_with_index() {
        let mut s = builtin::paper_defaults();
        s.sweep = Some(wsnem_scenario::SweepSpec {
            axis: SweepAxis::Lambda,
            values: vec![0.5, 11.0],
        });
        let diags = run(&s, registry());
        let hit = diags
            .iter()
            .find(|d| d.code == "E005")
            .expect("sweep value 11.0 is past mu = 10");
        assert_eq!(hit.location.field.as_deref(), Some("sweep.values[1]"));
    }

    #[test]
    fn near_saturation_warns_w001() {
        let mut s = builtin::paper_defaults();
        s.cpu.lambda = 9.6; // rho = 0.96
        let diags = run(&s, registry());
        assert!(diags.iter().any(|d| d.code == "W001"), "{diags:?}");
        assert!(diags.iter().all(|d| d.severity < Severity::Error));
    }

    #[test]
    fn deterministic_service_shifts_the_stability_bound() {
        let mut s = builtin::paper_defaults();
        // Deterministic service at 1/mu = 0.1 s: lambda = 9.99 is stable
        // (rho = 0.999) but over the HIGH_RHO threshold.
        s.service = Some(wsnem_core::ServiceDist::Deterministic);
        s.backends = vec![wsnem_core::BackendId::Des];
        s.cpu.lambda = 9.99;
        let diags = run(&s, registry());
        assert!(diags.iter().any(|d| d.code == "W001"), "{diags:?}");
        assert!(diags.iter().all(|d| d.code != "E005"), "{diags:?}");
    }

    #[test]
    fn capability_mismatch_fires_e006() {
        let mut s = builtin::paper_defaults();
        s.service = Some(wsnem_core::ServiceDist::Deterministic);
        // paper-defaults includes analytic backends that cannot take it.
        let diags = run(&s, registry());
        assert!(diags.iter().any(|d| d.code == "E006"), "{diags:?}");
    }

    #[test]
    fn duplicate_sweep_values_warn_w003() {
        let mut s = builtin::paper_defaults();
        s.sweep = Some(wsnem_scenario::SweepSpec {
            axis: SweepAxis::PowerDownThreshold,
            values: vec![0.25, 0.5, 0.25],
        });
        let diags = run(&s, registry());
        assert!(diags.iter().any(|d| d.code == "W003"), "{diags:?}");
    }

    #[test]
    fn future_schema_version_fires_e002() {
        let mut s = builtin::paper_defaults();
        s.schema_version = SCHEMA_VERSION + 1;
        let diags = run(&s, registry());
        assert!(diags.iter().any(|d| d.code == "E002"), "{diags:?}");
    }

    #[test]
    fn unvalidatable_leftovers_become_e004() {
        let mut s = builtin::paper_defaults();
        s.cpu.horizon = -1.0;
        let diags = run(&s, registry());
        assert!(diags.iter().any(|d| d.code == "E004"), "{diags:?}");
    }

    /// A light `count`-node template over `topology` on the Mg1 backend.
    fn template_with(count: u64, topology: Option<TopologySpec>) -> Scenario {
        let mut s = builtin::paper_defaults();
        s.backends = vec![wsnem_core::BackendId::Mg1];
        s.network = Some(wsnem_scenario::NetworkSpec {
            nodes: vec![],
            topology,
            radio: None,
            template: Some(wsnem_scenario::TemplateSpec {
                count,
                prefix: "n".into(),
                event_rate: 1e-12,
                tx_per_event: 1.0,
                rx_rate: 0.0,
            }),
        });
        s
    }

    /// `s`'s one error, which must be an E004 on the template count that
    /// names the count.
    fn count_error(s: &Scenario) -> Diagnostic {
        let diags = run(s, registry());
        let mut errors = diags.iter().filter(|d| d.severity == Severity::Error);
        let (Some(error), None) = (errors.next(), errors.next()) else {
            panic!("expected one error: {diags:?}");
        };
        assert_eq!(error.code, "E004");
        assert_eq!(
            error.location.field.as_deref(),
            Some("network.template.count")
        );
        let count = s
            .network
            .as_ref()
            .and_then(|n| n.template.as_ref())
            .unwrap()
            .count;
        assert!(error.message.contains(&count.to_string()), "{diags:?}");
        error.clone()
    }

    /// True when `s` raises no error.
    fn is_clean(s: &Scenario) -> bool {
        run(s, registry())
            .iter()
            .all(|d| d.severity < Severity::Error)
    }

    #[test]
    fn chain_template_beyond_its_bound_fires_e004_with_help() {
        // Checked by the passes only: a chain this long is never run here.
        for topology in [TopologySpec::Chain, TopologySpec::Tree { fanout: 1 }] {
            let at = template_with(MAX_CHAIN_TEMPLATE_COUNT, Some(topology.clone()));
            assert!(is_clean(&at));
            let above = template_with(MAX_CHAIN_TEMPLATE_COUNT + 1, Some(topology));
            let help = count_error(&above).help.unwrap_or_default();
            assert!(help.contains("chain"), "{help}");
        }
    }

    #[test]
    fn template_count_beyond_the_u32_index_fires_e004_on_the_field() {
        assert!(is_clean(&template_with(MAX_TEMPLATE_COUNT, None)));
        for count in [MAX_TEMPLATE_COUNT + 1, 4_294_967_297] {
            count_error(&template_with(count, None));
        }
    }

    #[test]
    fn forwarding_load_destabilizes_a_relay() {
        // A chain whose sink-adjacent relay forwards everyone's traffic:
        // its effective lambda = own + forwarded exceeds mu.
        let mut s = builtin::find("chain-3hop").expect("builtin exists");
        for node in &mut s.network.as_mut().expect("has network").nodes {
            node.event_rate = 4.0; // relay carries 4 + 2 x 4 = 12 > mu = 10
        }
        let diags = run(&s, registry());
        let hit = diags
            .iter()
            .find(|d| d.code == "E005")
            .expect("relay must destabilize");
        assert!(hit.location.node.is_some(), "{hit:?}");
    }
}
