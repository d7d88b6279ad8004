//! Net-level passes: build the per-node EDSPN (or take a raw net spec) and
//! prove what can be proved before simulating — conservation from P-semiflow
//! coverage, steady-cycle existence from T-semiflows, deadlock and dead
//! transitions from bounded reachability, and the structural class.
//!
//! Every pass reads net structure only, never a delay: the paper's per-node
//! EDSPN has one fixed structure, and λ, the service law, T and D only set
//! its timed transitions' distributions. [`check_net`] therefore runs the
//! passes once per distinct structure per process and serves repeats from a
//! memo keyed by everything a pass can read (names, initial tokens,
//! transition kinds without their delays, and arcs), compared in full. A
//! thousand-scenario fleet pays for one exploration, not a thousand.

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

use wsnem_core::build_cpu_edspn_with_service;
use wsnem_petri::analysis::{
    dead_transitions, explain_dead_marking, explore, is_free_choice, is_marked_graph,
    is_state_machine, p_semiflows, structurally_dead_transitions, t_semiflows, ReachOptions,
};
use wsnem_petri::{PetriError, PetriNet, PlaceId, TimedPolicy, TransitionKind};
use wsnem_scenario::Scenario;
use wsnem_stats::Dist;

use crate::diag::{Diagnostic, Location};
use crate::lints;

/// Exploration budget for `wsnem check`: small enough that checking a
/// thousand-scenario fleet stays interactive, large enough to cover every
/// bounded net the models build (the EDSPN's bounded component has a few
/// dozen markings; mutation-style fixture nets have a handful).
pub const CHECK_REACH_OPTIONS: ReachOptions = ReachOptions {
    max_markings: 2048,
    max_tokens: 128,
};

/// Check the scenario's per-node EDSPN: build it from the scenario's λ,
/// service distribution, T and D exactly as the Petri backend would, then
/// run the net passes on it.
pub fn run(s: &Scenario) -> Vec<Diagnostic> {
    match edspn(s) {
        Some(net) => check_net(&net, Location::scenario(&s.name)),
        // An unbuildable net means some parameter is out of range; the
        // scenario rules already report that with field-level context, so
        // stay quiet rather than duplicate it.
        None => Vec::new(),
    }
}

/// The scenario's per-node EDSPN, or `None` when a parameter is out of range.
fn edspn(s: &Scenario) -> Option<PetriNet> {
    let service: Dist = s
        .service
        .as_ref()
        .map(|sv| sv.to_dist(s.cpu.mu))
        .unwrap_or(Dist::Exponential { rate: s.cpu.mu });
    build_cpu_edspn_with_service(
        s.cpu.lambda,
        service,
        s.cpu.power_down_threshold,
        s.cpu.power_up_delay,
    )
    .ok()
    .map(|(net, _)| net)
}

/// Run every net pass on an already-built net. `loc` seeds the location of
/// each finding (file or scenario); place/transition names go in `field`.
/// Findings for a structure already checked in this process come from the
/// memo (see the module docs), stamped with `loc`.
pub fn check_net(net: &PetriNet, loc: Location) -> Vec<Diagnostic> {
    static MEMO: LazyLock<Memo> = LazyLock::new(Memo::default);
    MEMO.check(net, &loc)
}

/// Everything a net pass can read from a built net: place names and initial
/// tokens, transition names and kinds, and every arc in stored order. Only
/// the timed transitions' delay distributions are left out. Names stay in
/// because messages and `field` carry them.
#[derive(PartialEq, Eq, Hash)]
struct NetKey {
    places: Vec<(String, u32)>,
    transitions: Vec<TransitionKey>,
}

#[derive(PartialEq, Eq, Hash)]
struct TransitionKey {
    name: String,
    kind: KindKey,
    inputs: Vec<(PlaceId, u32)>,
    outputs: Vec<(PlaceId, u32)>,
    inhibitors: Vec<(PlaceId, u32)>,
}

#[derive(PartialEq, Eq, Hash)]
enum KindKey {
    /// Priority and the bit pattern of the weight.
    Immediate(u8, u64),
    Timed(TimedPolicy),
}

impl NetKey {
    fn of(net: &PetriNet) -> Self {
        let m0 = net.initial_marking();
        NetKey {
            places: net
                .places()
                .map(|p| (net.place_name(p).to_owned(), m0.tokens(p)))
                .collect(),
            transitions: net
                .transitions()
                .map(|t| TransitionKey {
                    name: net.transition_name(t).to_owned(),
                    kind: match net.kind(t) {
                        TransitionKind::Immediate { priority, weight } => {
                            KindKey::Immediate(priority, weight.to_bits())
                        }
                        TransitionKind::Timed { policy, .. } => KindKey::Timed(policy),
                    },
                    inputs: net.inputs(t).collect(),
                    outputs: net.outputs(t).collect(),
                    inhibitors: net.inhibitors(t).collect(),
                })
                .collect(),
        }
    }
}

/// Net-pass findings by structure. Entries carry no location except the
/// `field` a pass set. No cap: a run's output already holds a copy of every
/// stored diagnostic.
#[derive(Default)]
struct Memo(Mutex<HashMap<NetKey, Vec<Diagnostic>>>);

impl Memo {
    fn check(&self, net: &PetriNet, loc: &Location) -> Vec<Diagnostic> {
        let key = NetKey::of(net);
        let cached = self.entries().get(&key).cloned();
        let found = cached.unwrap_or_else(|| {
            // Run the passes outside the lock; a concurrent miss on the same
            // key computes the same findings, so either insert is right.
            let found = run_passes(net, &Location::default());
            self.entries().insert(key, found.clone());
            found
        });
        found
            .into_iter()
            .map(|mut d| {
                let field = d.location.field.take().or_else(|| loc.field.clone());
                d.location = Location {
                    field,
                    ..loc.clone()
                };
                d
            })
            .collect()
    }

    fn entries(&self) -> MutexGuard<'_, HashMap<NetKey, Vec<Diagnostic>>> {
        // Every update is one `insert` of a finished entry, so a poisoned
        // map is still a valid memo.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Run every net pass, bypassing the memo.
fn run_passes(net: &PetriNet, loc: &Location) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    semiflow_pass(net, loc, &mut out);
    structural_pass(net, loc, &mut out);
    dead_and_deadlock_pass(net, loc, &mut out);
    out
}

fn name_list(names: impl IntoIterator<Item = String>) -> String {
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// P-semiflow coverage (conservation / structural boundedness) and
/// T-semiflow existence (a steady firing cycle).
fn semiflow_pass(net: &PetriNet, loc: &Location, out: &mut Vec<Diagnostic>) {
    match p_semiflows(net) {
        Ok(flows) => {
            let uncovered: Vec<String> = net
                .places()
                .filter(|p| flows.iter().all(|y| y[p.index()] == 0))
                .map(|p| net.place_name(p).to_owned())
                .collect();
            if uncovered.is_empty() {
                out.push(lints::SEMIFLOW_COVERAGE.at(
                    loc.clone(),
                    format!(
                        "every place is covered by one of {} P-semiflow(s): token \
                         counts are conserved, so the net is structurally bounded",
                        flows.len()
                    ),
                ));
            } else {
                out.push(lints::SEMIFLOW_COVERAGE.at(
                    loc.clone().with_field(name_list(uncovered)),
                    "no P-semiflow covers these places: token counts there are not \
                     conserved (for the EDSPN's job buffer under open arrivals this \
                     is expected — boundedness is a stability question, not a \
                     structural one)",
                ));
            }
        }
        Err(PetriError::InvariantExplosion { .. }) => out.push(lints::REACHABILITY_CAPPED.at(
            loc.clone(),
            "P-semiflow computation exceeded its row budget; conservation unverified",
        )),
        Err(_) => {}
    }
    match t_semiflows(net) {
        Ok(flows) if flows.is_empty() => {
            out.push(
                lints::NO_T_SEMIFLOW
                    .at(
                        loc.clone(),
                        "no T-semiflow exists: no firing mix reproduces a marking, so \
                         the net has no steady repeating cycle",
                    )
                    .with_help(
                        "a long-run model needs a repeatable cycle; check for \
                         transitions that only drain the initial tokens",
                    ),
            );
        }
        Ok(_) => {}
        Err(PetriError::InvariantExplosion { .. }) => out.push(lints::REACHABILITY_CAPPED.at(
            loc.clone(),
            "T-semiflow computation exceeded its row budget; cycle existence unverified",
        )),
        Err(_) => {}
    }
}

/// Structural classification, reported as a plain fact.
fn structural_pass(net: &PetriNet, loc: &Location, out: &mut Vec<Diagnostic>) {
    let class = if is_state_machine(net) {
        "state machine (no synchronization)"
    } else if is_marked_graph(net) {
        "marked graph (no conflict)"
    } else if is_free_choice(net) {
        "free choice"
    } else {
        "general (non-free-choice: conflicts and synchronization interleave)"
    };
    out.push(lints::STRUCTURAL_CLASS.at(
        loc.clone(),
        format!(
            "structural class: {class}; {} place(s), {} transition(s)",
            net.n_places(),
            net.n_transitions()
        ),
    ));
}

/// Deadlock and dead-transition detection under the bounded exploration
/// budget. Structurally dead transitions are reported regardless of the
/// budget (the fixpoint is exact about them); behavioral verdicts only when
/// exploration completed.
fn dead_and_deadlock_pass(net: &PetriNet, loc: &Location, out: &mut Vec<Diagnostic>) {
    let structurally_dead = structurally_dead_transitions(net);
    if !structurally_dead.is_empty() {
        let names = name_list(
            structurally_dead
                .iter()
                .map(|&t| net.transition_name(t).to_owned()),
        );
        out.push(
            lints::DEAD_TRANSITION
                .at(
                    loc.clone().with_field(names),
                    "structurally dead: an input place can never be marked by any \
                     firing sequence, so the transition never fires under any timing",
                )
                .with_help("add a producer arc or an initial token on the starved input place"),
        );
    }
    match explore(net, CHECK_REACH_OPTIONS) {
        Ok(graph) => {
            // Complete graph: behavioral verdicts are exact.
            let dead_markings: Vec<usize> = (0..graph.len())
                .filter(|&i| net.enabled_transitions(&graph.markings[i]).is_empty())
                .collect();
            if let Some(&i) = dead_markings.first() {
                let m = &graph.markings[i];
                let why = explain_dead_marking(net, m);
                let marking: Vec<String> = net
                    .places()
                    .filter(|&p| m.tokens(p) > 0)
                    .map(|p| format!("{}={}", net.place_name(p), m.tokens(p)))
                    .collect();
                let mut msg = format!(
                    "{} of {} reachable marking(s) enable no transition; first dead \
                     marking: {{{}}}",
                    dead_markings.len(),
                    graph.len(),
                    marking.join(", ")
                );
                if !why.empty_siphon.is_empty() {
                    msg.push_str(&format!(
                        "; empty siphon {{{}}} can never be re-marked",
                        name_list(
                            why.empty_siphon
                                .iter()
                                .map(|&p| net.place_name(p).to_owned())
                        )
                    ));
                }
                if !why.inhibitor_blocked.is_empty() {
                    msg.push_str(&format!(
                        "; inhibitor arcs alone block {{{}}}",
                        name_list(
                            why.inhibitor_blocked
                                .iter()
                                .map(|&t| net.transition_name(t).to_owned())
                        )
                    ));
                }
                let mut d = lints::NET_DEADLOCK.at(loc.clone(), msg);
                if why.is_inhibitor_induced() {
                    d = d.with_help(
                        "the deadlock is purely inhibitor-induced: every input arc is \
                         satisfied, only inhibitor thresholds hold transitions back — \
                         raise the threshold or drain the inhibiting place",
                    );
                }
                out.push(d);
            }
            let behaviorally_dead: Vec<String> = dead_transitions(net, &graph)
                .into_iter()
                .filter(|t| !structurally_dead.contains(t))
                .map(|t| net.transition_name(t).to_owned())
                .collect();
            if !behaviorally_dead.is_empty() {
                out.push(lints::DEAD_TRANSITION.at(
                    loc.clone().with_field(name_list(behaviorally_dead)),
                    format!(
                        "fires on no edge of the complete {}-marking reachability \
                         graph: unreachable under the net's priorities and guards",
                        graph.len()
                    ),
                ));
            }
        }
        Err(PetriError::Unbounded { place, bound }) => {
            out.push(lints::REACHABILITY_CAPPED.at(
                loc.clone().with_field(place.clone()),
                format!(
                    "place `{place}` exceeded {bound} token(s) during exploration — \
                     the net is unbounded there (expected for the EDSPN's open job \
                     buffer); deadlock and liveness verdicts limited to the explored \
                     prefix"
                ),
            ));
        }
        Err(PetriError::TooManyMarkings { limit }) => {
            out.push(lints::REACHABILITY_CAPPED.at(
                loc.clone(),
                format!(
                    "state space exceeds {limit} markings; deadlock and liveness \
                     verdicts limited to the explored prefix"
                ),
            ));
        }
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use wsnem_petri::{NetBuilder, NetSpec};
    use wsnem_scenario::builtin;

    #[test]
    fn every_builtin_edspn_is_clean() {
        for s in builtin::all() {
            let diags = run(&s);
            let bad: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.severity >= Severity::Warning)
                .collect();
            assert!(bad.is_empty(), "{}: {bad:?}", s.name);
            // The EDSPN's job buffer is open, so exploration must cap out as
            // an informational finding, never an error.
            assert!(
                diags.iter().any(|d| d.code == "I003"),
                "{}: {diags:?}",
                s.name
            );
        }
    }

    /// `t` moves A's two tokens to B until B's inhibitor freezes it.
    fn frozen_net() -> PetriNet {
        let mut b = NetBuilder::new();
        let a = b.place("A", 2);
        let bb = b.place("B", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(a, t, 1);
        b.output_arc(t, bb, 1);
        b.inhibitor_arc(bb, t, 1);
        b.build().expect("valid net")
    }

    /// A live P0/P1 cycle plus `dead`, whose input place is never marked.
    fn starved_net() -> PetriNet {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let never = b.place("Never", 0);
        let live = b.exponential("live", 1.0);
        b.input_arc(p0, live, 1);
        b.output_arc(live, p1, 1);
        let back = b.exponential("back", 1.0);
        b.input_arc(p1, back, 1);
        b.output_arc(back, p0, 1);
        let dead = b.exponential("dead", 1.0);
        b.input_arc(never, dead, 1);
        b.output_arc(dead, p0, 1);
        b.build().expect("valid net")
    }

    /// Immediates `hi` and `lo` conflict on P0; `lo` loses whenever its
    /// priority is lower.
    fn conflict_net(lo_priority: u8) -> PetriNet {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        for (name, priority) in [("hi", 2), ("lo", lo_priority)] {
            let t = b.immediate(name, priority, 1.0);
            b.input_arc(p0, t, 1);
            b.output_arc(t, p1, 1);
        }
        let back = b.exponential("back", 1.0);
        b.input_arc(p1, back, 1);
        b.output_arc(back, p0, 1);
        b.build().expect("valid net")
    }

    /// `net` rebuilt after one edit to its spec.
    fn edited(net: &PetriNet, edit: impl FnOnce(&mut NetSpec)) -> PetriNet {
        let mut spec = net.to_spec();
        edit(&mut spec);
        spec.build().expect("valid edited net")
    }

    #[test]
    fn inhibitor_frozen_net_reports_e007_with_witness() {
        let diags = check_net(&frozen_net(), Location::default());
        let hit = diags
            .iter()
            .find(|d| d.code == "E007")
            .expect("deadlock must be found");
        assert!(hit.message.contains("inhibitor"), "{hit:?}");
    }

    #[test]
    fn starved_transition_reports_e008() {
        let diags = check_net(&starved_net(), Location::default());
        let hit = diags
            .iter()
            .find(|d| d.code == "E008")
            .expect("dead transition must be found");
        assert_eq!(hit.location.field.as_deref(), Some("dead"));
        // The live cycle keeps the net deadlock-free.
        assert!(diags.iter().all(|d| d.code != "E007"), "{diags:?}");
    }

    #[test]
    fn memo_cold_calls_and_hits_equal_the_unmemoized_passes() {
        let mut nets: Vec<PetriNet> = builtin::all()
            .iter()
            .map(|s| edspn(s).expect("builtin EDSPN builds"))
            .collect();
        nets.extend([frozen_net(), starved_net()]);
        let locs = [
            Location::default(),
            Location::scenario("s").with_file("f.toml").with_node("n"),
            // A caller's field survives where no pass set one.
            Location::scenario("s").with_field("cpu"),
        ];
        for net in &nets {
            let memo = Memo::default();
            for loc in &locs {
                let want = run_passes(net, loc);
                assert_eq!(memo.check(net, loc), want, "{loc}");
                assert_eq!(memo.check(net, loc), want, "{loc}: hit");
            }
            assert_eq!(memo.entries().len(), 1);
        }
    }

    #[test]
    fn nets_differing_only_in_delays_share_one_entry() {
        let memo = Memo::default();
        let loc = Location::scenario("s");
        let points = [
            (0.5, Dist::Exponential { rate: 10.0 }, 0.5, 0.001),
            (0.75, Dist::Deterministic(0.1), 2.0, 0.3),
            (0.1, Dist::Exponential { rate: 4.0 }, 0.01, 1.0),
        ];
        for (lambda, service, t, d) in points {
            let (net, _) =
                build_cpu_edspn_with_service(lambda, service, t, d).expect("valid parameters");
            assert_eq!(memo.check(&net, &loc), run_passes(&net, &loc));
        }
        assert_eq!(memo.entries().len(), 1);
    }

    #[test]
    fn any_structural_edit_gets_its_own_entry_and_verdict() {
        let loc = Location::scenario("s");
        let frozen = frozen_net();
        let conflict = conflict_net(1);
        let variants = [
            // Input arc A -> t consumes two tokens.
            edited(&frozen, |s| s.arcs[0].multiplicity = 2),
            // B's inhibitor threshold 1 -> 3: the deadlock is no longer
            // inhibitor-induced; A simply runs dry.
            edited(&frozen, |s| s.arcs[2].multiplicity = 3),
            edited(&frozen, |s| s.places[0].initial = 1),
            edited(&frozen, |s| {
                s.places[1].name = "C".into();
                for arc in s.arcs.iter_mut().filter(|a| a.place == "B") {
                    arc.place = "C".into();
                }
            }),
            // Equal priorities: `lo` is no longer dead.
            conflict_net(2),
        ];
        let memo = Memo::default();
        let base_frozen = memo.check(&frozen, &loc);
        let base_conflict = memo.check(&conflict, &loc);
        assert!(base_conflict.iter().any(|d| d.code == "E008"));
        for (i, net) in variants.iter().enumerate() {
            let got = memo.check(net, &loc);
            assert_eq!(got, run_passes(net, &loc), "variant {i}");
            assert_ne!(got, base_frozen, "variant {i}");
            assert_ne!(got, base_conflict, "variant {i}");
            assert_eq!(memo.entries().len(), 3 + i, "variant {i}");
        }
        let raised = memo.check(&variants[1], &loc);
        let e007 = raised
            .iter()
            .find(|d| d.code == "E007")
            .expect("A runs dry");
        assert!(!e007.message.contains("inhibitor"), "{e007:?}");
        assert!(e007.help.is_none(), "{e007:?}");
        let equal = memo.check(&variants[4], &loc);
        assert!(equal.iter().all(|d| d.code != "E008"), "{equal:?}");
    }
}
