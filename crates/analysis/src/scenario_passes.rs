//! Scenario-level passes: schema and capability checks, queue stability on
//! the forwarding-inflated arrival rate, radio airtime saturation and sweep
//! hygiene — everything decidable from the scenario file alone, before any
//! net is built or event fired.

use wsnem_core::BackendRegistry;
use wsnem_scenario::{Scenario, SweepAxis, MAX_TEMPLATE_COUNT, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
use wsnem_stats::Sample;

use crate::diag::{Diagnostic, Location, Severity};
use crate::lints;

/// Offered load at which [`lints::HIGH_RHO`] starts firing: the queue is
/// still stable, but near-saturated M/G/1 queues mix slowly enough that
/// finite-horizon estimates turn noisy.
pub const HIGH_RHO_THRESHOLD: f64 = 0.95;

/// Run every scenario-level pass. The result is ordered deterministically:
/// schema and capability findings first, then stability, radio and sweep
/// findings, then the catch-all.
pub fn run(s: &Scenario, registry: &BackendRegistry) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    schema_pass(s, registry, &mut out);
    stability_pass(s, &mut out);
    radio_pass(s, &mut out);
    sweep_pass(s, &mut out);
    catch_all_pass(s, registry, &mut out);
    out
}

/// Schema version, backend registration and capability checks.
fn schema_pass(s: &Scenario, registry: &BackendRegistry, out: &mut Vec<Diagnostic>) {
    let loc = Location::scenario(&s.name);
    if s.schema_version < MIN_SCHEMA_VERSION || s.schema_version > SCHEMA_VERSION {
        out.push(
            lints::SCHEMA_VERSION
                .at(
                    loc.clone().with_field("schema_version"),
                    format!(
                        "schema version {} is outside the supported range {}..={}",
                        s.schema_version, MIN_SCHEMA_VERSION, SCHEMA_VERSION
                    ),
                )
                .with_help(format!(
                    "files written against schema {SCHEMA_VERSION} or older load; \
                     regenerate the file with this build's `wsnem export`"
                )),
        );
    }
    if s.backends.is_empty() {
        out.push(lints::INVALID_FIELD.at(
            loc.clone().with_field("backends"),
            "at least one backend is required",
        ));
    }
    for b in &s.backends {
        if registry.get(*b).is_none() {
            out.push(
                lints::UNKNOWN_BACKEND
                    .at(
                        loc.clone().with_field("backends"),
                        format!("backend `{b}` is not registered"),
                    )
                    .with_help(format!(
                        "registered backends: {}",
                        registry
                            .ids()
                            .iter()
                            .map(|id| id.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
            );
        }
    }
    if let Some(t) = s.network.as_ref().and_then(|n| n.template.as_ref()) {
        if t.count == 0 || t.count > MAX_TEMPLATE_COUNT {
            out.push(
                lints::INVALID_FIELD
                    .at(
                        loc.clone().with_field("network.template.count"),
                        format!(
                            "template count {} is outside 1..={MAX_TEMPLATE_COUNT}",
                            t.count
                        ),
                    )
                    .with_help(
                        "node indices are u32 and u32::MAX marks the sink, so a \
                         template holds at most u32::MAX - 1 nodes",
                    ),
            );
        }
    }
    if let Some(service) = &s.service {
        if !service.is_exponential() {
            for b in &s.backends {
                let caps = registry.capabilities_of(*b);
                if caps.is_some_and(|c| !c.supports_service_dist) {
                    out.push(
                        lints::CAPABILITY_MISMATCH
                            .at(
                                loc.clone().with_field("service"),
                                format!(
                                    "backend `{b}` does not support the non-exponential \
                                     service distribution `{}`",
                                    service.label()
                                ),
                            )
                            .with_help(
                                "restrict `backends` to solvers whose capabilities \
                                 advertise service distributions (mg1, petri-net, des), \
                                 or drop the `service` section",
                            ),
                    );
                }
            }
        }
    }
    if let Some(w) = &s.workload {
        if !w.is_poisson() {
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
                    loc.with_field("workload"),
                    format!(
                        "non-Poisson workload is evaluated by backend(s) that assume \
                         Poisson arrivals ({}); the agreement report quantifies the \
                         distortion",
                        assuming.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Mean service time E[S] in seconds: the declared service distribution at
/// rate `mu`, or the paper's exponential default.
fn mean_service_s(s: &Scenario) -> f64 {
    s.service
        .as_ref()
        .map(|sv| sv.to_dist(s.cpu.mu).mean())
        .unwrap_or(1.0 / s.cpu.mu)
}

/// Emit [`lints::UNSTABLE_QUEUE`] / [`lints::HIGH_RHO`] for one effective
/// arrival rate.
fn check_rho(lambda_eff: f64, mean_s: f64, loc: Location, out: &mut Vec<Diagnostic>) {
    let rho = lambda_eff * mean_s;
    if !rho.is_finite() || rho <= 0.0 {
        return; // nonsensical rates are the catch-all's problem
    }
    if rho >= 1.0 {
        out.push(
            lints::UNSTABLE_QUEUE
                .at(
                    loc,
                    format!(
                        "offered load rho = {lambda_eff:.4} jobs/s x {mean_s:.4} s = \
                         {rho:.3} >= 1: the queue grows without bound"
                    ),
                )
                .with_help(format!(
                    "keep the effective arrival rate below {:.4} jobs/s, or shorten \
                     the mean service time",
                    1.0 / mean_s
                )),
        );
    } else if rho >= HIGH_RHO_THRESHOLD {
        out.push(lints::HIGH_RHO.at(
            loc,
            format!(
                "offered load rho = {rho:.3} is within {:.0}% of saturation: \
                 estimates at this load need long horizons to settle",
                100.0 * (1.0 - HIGH_RHO_THRESHOLD)
            ),
        ));
    }
}

/// Queue stability: base point, every λ-sweep value, and every network node
/// at its forwarding-inflated arrival rate.
fn stability_pass(s: &Scenario, out: &mut Vec<Diagnostic>) {
    let mean_s = mean_service_s(s);
    if !mean_s.is_finite() || mean_s <= 0.0 {
        return;
    }
    let loc = Location::scenario(&s.name);
    check_rho(
        s.cpu.lambda,
        mean_s,
        loc.clone().with_field("cpu.lambda"),
        out,
    );
    if let Some(sweep) = &s.sweep {
        if sweep.axis == SweepAxis::Lambda {
            for (i, &v) in sweep.values.iter().enumerate() {
                check_rho(
                    v,
                    mean_s,
                    loc.clone().with_field(format!("sweep.values[{i}]")),
                    out,
                );
            }
        }
    }
    if let Some(network) = &s.network {
        for (node, fwd) in network.nodes.iter().zip(forwarded_rates(s)) {
            if fwd > 0.0 {
                check_rho(
                    node.event_rate + fwd,
                    mean_s,
                    loc.clone()
                        .with_node(&node.name)
                        .with_field(format!("event_rate + {fwd:.3} pkt/s forwarded")),
                    out,
                );
            } else {
                check_rho(
                    node.event_rate,
                    mean_s,
                    loc.clone().with_node(&node.name).with_field("event_rate"),
                    out,
                );
            }
        }
    }
}

/// Per-node sink-ward forwarding load (pkt/s), zeros when the network (or
/// its routing) cannot be built — those failures belong to the catch-all.
fn forwarded_rates(s: &Scenario) -> Vec<f64> {
    let Some(network) = &s.network else {
        return Vec::new();
    };
    let zeros = vec![0.0; network.nodes.len()];
    let (Ok(profile), Ok(battery)) = (s.profile.build(), s.battery.build()) else {
        return zeros;
    };
    network
        .build_network(s.cpu, &profile, &battery)
        .ok()
        .and_then(|n| n.forwarded_rates().ok())
        .unwrap_or(zeros)
}

/// Radio airtime saturation: a node whose packet airtime alone fills its
/// schedule cannot also listen, back off, or sleep.
fn radio_pass(s: &Scenario, out: &mut Vec<Diagnostic>) {
    let Some(network) = &s.network else {
        return;
    };
    let forwarded = forwarded_rates(s);
    for (i, node) in network.nodes.iter().enumerate() {
        let Ok(radio) = network.radio_spec_for(i).lower() else {
            continue; // the catch-all reports unlooweable radio specs
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

/// Safety net: whatever full schema validation rejects that no granular pass
/// classified becomes a generic [`lints::INVALID_FIELD`] — `check` is never
/// *less* strict than `validate`.
fn catch_all_pass(s: &Scenario, registry: &BackendRegistry, out: &mut Vec<Diagnostic>) {
    if out.iter().any(|d| d.severity == Severity::Error) {
        return;
    }
    if let Err(e) = s.validate_with(registry) {
        out.push(lints::INVALID_FIELD.at(Location::scenario(&s.name), e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsnem_scenario::builtin;

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

    #[test]
    fn template_count_beyond_the_u32_index_fires_e004_on_the_field() {
        let template = |count: u64| {
            let mut s = builtin::paper_defaults();
            s.backends = vec![wsnem_core::BackendId::Mg1];
            s.network = Some(wsnem_scenario::NetworkSpec {
                nodes: vec![],
                topology: None,
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
        };
        let clean = run(&template(MAX_TEMPLATE_COUNT), registry());
        assert!(
            clean.iter().all(|d| d.severity < Severity::Error),
            "{clean:?}"
        );
        for count in [MAX_TEMPLATE_COUNT + 1, 4_294_967_297] {
            let diags = run(&template(count), registry());
            let errors: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert_eq!(errors.len(), 1, "{diags:?}");
            assert_eq!(errors[0].code, "E004");
            assert_eq!(
                errors[0].location.field.as_deref(),
                Some("network.template.count")
            );
            assert!(errors[0].message.contains(&count.to_string()), "{diags:?}");
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
