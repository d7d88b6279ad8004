//! Net structure: places, transitions, arcs, builder and serializable spec.

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use wsnem_stats::dist::Dist;

use crate::error::PetriError;
use crate::marking::Marking;

/// Identifier of a place (index into the net's place table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// Index into per-place vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a transition (index into the net's transition table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub(crate) u32);

impl TransitionId {
    /// Index into per-transition vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What happens to a timed transition's sampled firing time when the
/// transition is disabled before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum TimedPolicy {
    /// Race with resampling (a.k.a. *enabling memory*): the clock is
    /// discarded on disabling and freshly sampled on the next enabling.
    /// This is the TimeNET default and what the paper's Power-Down-Threshold
    /// timer needs (arrivals reset the countdown).
    #[default]
    RaceResample,
    /// Age memory: the remaining time is frozen while disabled and resumes
    /// on re-enabling (pre-emptive resume semantics).
    AgeMemory,
}

/// Kind and parameters of a transition.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum TransitionKind {
    /// Fires in zero time once enabled. Among simultaneously enabled
    /// immediates, the highest `priority` fires first; ties are resolved
    /// randomly proportional to `weight`.
    Immediate {
        /// Priority (higher fires first).
        priority: u8,
        /// Conflict-resolution weight (> 0).
        weight: f64,
    },
    /// Fires after a random (or constant) delay drawn from `dist`.
    Timed {
        /// Firing-delay distribution.
        dist: Dist,
        /// Clock behaviour on disabling.
        policy: TimedPolicy,
    },
}

impl TransitionKind {
    /// Immediate transition with priority and weight 1.
    pub fn immediate(priority: u8) -> Self {
        TransitionKind::Immediate {
            priority,
            weight: 1.0,
        }
    }

    /// Exponentially-timed transition (race/enabling-memory policy).
    pub fn exponential(rate: f64) -> Self {
        TransitionKind::Timed {
            dist: Dist::Exponential { rate },
            policy: TimedPolicy::RaceResample,
        }
    }

    /// Deterministically-timed transition (race/enabling-memory policy).
    pub fn deterministic(delay: f64) -> Self {
        TransitionKind::Timed {
            dist: Dist::Deterministic(delay),
            policy: TimedPolicy::RaceResample,
        }
    }

    /// Generally-timed transition (race/enabling-memory policy).
    pub fn timed(dist: Dist) -> Self {
        TransitionKind::Timed {
            dist,
            policy: TimedPolicy::RaceResample,
        }
    }

    /// True for immediate transitions.
    pub fn is_immediate(&self) -> bool {
        matches!(self, TransitionKind::Immediate { .. })
    }
}

/// Arc sets of one transition (compact adjacency).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TransitionArcs {
    /// `(place, multiplicity)` consumed on firing; all must be marked.
    pub inputs: Vec<(u32, u32)>,
    /// `(place, multiplicity)` produced on firing.
    pub outputs: Vec<(u32, u32)>,
    /// `(place, threshold)`: transition disabled while `m(place) >= threshold`.
    pub inhibitors: Vec<(u32, u32)>,
}

/// One enabling condition of a transition, attached to the place it reads.
///
/// A transition is enabled iff every one of its conditions is satisfied:
/// input arcs require `m(place) >= bound`, inhibitor arcs require
/// `m(place) < bound`. The simulator keeps a per-transition count of
/// *unsatisfied* conditions and updates it incrementally from marking
/// deltas, so enabling flips are detected in O(conditions touching the
/// changed places) instead of re-walking every arc of every neighbour.
///
/// Packed to 8 bytes for cache density on the delta hot path: the high bit
/// of `bound_inh` marks an inhibitor, the low 31 bits hold the bound.
/// Either kind flips exactly when `tokens >= bound` changes truth value
/// (the inhibitor bit only decides which side is the satisfied one), so
/// delta processing is branch-free on the arc kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EnablingCond {
    /// Transition whose enabling this condition gates.
    pub trans: u32,
    bound_inh: u32,
}

const INHIBITOR_BIT: u32 = 1 << 31;

impl EnablingCond {
    #[inline]
    pub fn new(trans: u32, bound: u32, inhibitor: bool) -> Self {
        debug_assert!(bound < INHIBITOR_BIT, "bound exceeds 2^31 - 1");
        Self {
            trans,
            bound_inh: bound | if inhibitor { INHIBITOR_BIT } else { 0 },
        }
    }

    /// Input multiplicity or inhibitor threshold.
    #[inline]
    pub fn bound(&self) -> u32 {
        self.bound_inh & !INHIBITOR_BIT
    }

    /// True for inhibitor conditions (`m < bound` satisfies).
    #[inline]
    pub fn inhibitor(&self) -> bool {
        self.bound_inh & INHIBITOR_BIT != 0
    }

    /// Whether `tokens` satisfies this condition.
    #[inline]
    pub fn satisfied(&self, tokens: u32) -> bool {
        (tokens >= self.bound()) != self.inhibitor()
    }
}

/// Compressed sparse rows: row `i` is `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Self {
            start: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T> Csr<T> {
    /// Close the current row at the end of `items`.
    fn end_row(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    #[inline]
    fn row(&self, i: u32) -> &[T] {
        &self.items[self.start[i as usize] as usize..self.start[i as usize + 1] as usize]
    }
}

/// Incremental net constructor.
#[derive(Debug, Default)]
pub struct NetBuilder {
    place_names: Vec<String>,
    initial: Vec<u32>,
    trans_names: Vec<String>,
    kinds: Vec<TransitionKind>,
    arcs: Vec<TransitionArcs>,
}

impl NetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a place with an initial token count.
    pub fn place(&mut self, name: impl Into<String>, initial_tokens: u32) -> PlaceId {
        self.place_names.push(name.into());
        self.initial.push(initial_tokens);
        PlaceId((self.place_names.len() - 1) as u32)
    }

    /// Add a transition of the given kind.
    pub fn transition(&mut self, name: impl Into<String>, kind: TransitionKind) -> TransitionId {
        self.trans_names.push(name.into());
        self.kinds.push(kind);
        self.arcs.push(TransitionArcs::default());
        TransitionId((self.trans_names.len() - 1) as u32)
    }

    /// Shorthand: immediate transition with priority and weight.
    pub fn immediate(
        &mut self,
        name: impl Into<String>,
        priority: u8,
        weight: f64,
    ) -> TransitionId {
        self.transition(name, TransitionKind::Immediate { priority, weight })
    }

    /// Shorthand: exponential transition.
    pub fn exponential(&mut self, name: impl Into<String>, rate: f64) -> TransitionId {
        self.transition(name, TransitionKind::exponential(rate))
    }

    /// Shorthand: deterministic transition.
    pub fn deterministic(&mut self, name: impl Into<String>, delay: f64) -> TransitionId {
        self.transition(name, TransitionKind::deterministic(delay))
    }

    /// Input arc: firing `t` consumes `multiplicity` tokens from `p`.
    pub fn input_arc(&mut self, p: PlaceId, t: TransitionId, multiplicity: u32) -> &mut Self {
        self.arcs[t.index()].inputs.push((p.0, multiplicity));
        self
    }

    /// Output arc: firing `t` produces `multiplicity` tokens into `p`.
    pub fn output_arc(&mut self, t: TransitionId, p: PlaceId, multiplicity: u32) -> &mut Self {
        self.arcs[t.index()].outputs.push((p.0, multiplicity));
        self
    }

    /// Inhibitor arc: `t` is disabled while `m(p) >= threshold` (the "small
    /// circle" arcs of the paper's Fig. 3).
    pub fn inhibitor_arc(&mut self, p: PlaceId, t: TransitionId, threshold: u32) -> &mut Self {
        self.arcs[t.index()].inhibitors.push((p.0, threshold));
        self
    }

    /// Validate and freeze into a [`PetriNet`].
    pub fn build(self) -> Result<PetriNet, PetriError> {
        // Unique names.
        let mut seen = std::collections::HashSet::new();
        for n in self.place_names.iter().chain(&self.trans_names) {
            if !seen.insert(n.as_str()) {
                return Err(PetriError::DuplicateName(n.clone()));
            }
        }
        // Kinds and arcs.
        for (ti, kind) in self.kinds.iter().enumerate() {
            match kind {
                TransitionKind::Immediate { weight, .. } => {
                    if !(*weight > 0.0) || !weight.is_finite() {
                        return Err(PetriError::InvalidWeight {
                            transition: self.trans_names[ti].clone(),
                            weight: *weight,
                        });
                    }
                }
                TransitionKind::Timed { dist, .. } => dist.validate()?,
            }
            let arcs = &self.arcs[ti];
            for (kind_arcs, _is_inhib) in [
                (&arcs.inputs, false),
                (&arcs.outputs, false),
                (&arcs.inhibitors, true),
            ] {
                let mut places = std::collections::HashSet::new();
                for &(p, mult) in kind_arcs.iter() {
                    // Zero is meaningless; the top bit is reserved by the
                    // packed enabling-condition layout (`EnablingCond`),
                    // where it would silently flip the arc kind.
                    if mult == 0 || mult >= INHIBITOR_BIT {
                        return Err(PetriError::InvalidMultiplicity {
                            transition: self.trans_names[ti].clone(),
                            place: self.place_names[p as usize].clone(),
                        });
                    }
                    if !places.insert(p) {
                        return Err(PetriError::DuplicateArc {
                            transition: self.trans_names[ti].clone(),
                            place: self.place_names[p as usize].clone(),
                        });
                    }
                }
            }
        }

        // Highest priority first (stable, so equal priorities keep index
        // order and weight-tie RNG draws are unchanged): the simulator's
        // vanishing resolution can then stop scanning at the end of the
        // first priority group containing an enabled transition.
        let mut immediates: Vec<u32> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_immediate())
            .map(|(i, _)| i as u32)
            .collect();
        immediates.sort_by_key(|&t| {
            std::cmp::Reverse(match self.kinds[t as usize] {
                TransitionKind::Immediate { priority, .. } => priority,
                TransitionKind::Timed { .. } => unreachable!("filtered to immediates"),
            })
        });
        let timed: Vec<u32> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| !k.is_immediate())
            .map(|(i, _)| i as u32)
            .collect();

        // CSR of enabling conditions grouped by place, each place's run in
        // ascending transition order. Two passes: count per place, then
        // fill at the running offsets.
        let n_places = self.place_names.len();
        let mut cond_start = vec![0u32; n_places + 1];
        for arcs in &self.arcs {
            for &(p, _) in arcs.inputs.iter().chain(&arcs.inhibitors) {
                cond_start[p as usize + 1] += 1;
            }
        }
        for p in 0..n_places {
            cond_start[p + 1] += cond_start[p];
        }
        let mut fill = cond_start.clone();
        let mut items = vec![EnablingCond::new(0, 0, false); cond_start[n_places] as usize];
        for (ti, arcs) in self.arcs.iter().enumerate() {
            for &(p, bound) in &arcs.inputs {
                items[fill[p as usize] as usize] = EnablingCond::new(ti as u32, bound, false);
                fill[p as usize] += 1;
            }
            for &(p, bound) in &arcs.inhibitors {
                items[fill[p as usize] as usize] = EnablingCond::new(ti as u32, bound, true);
                fill[p as usize] += 1;
            }
        }
        let conds = Csr {
            start: cond_start,
            items,
        };

        // Firing plans, one CSR row per transition `t`: the places a firing
        // changes (inputs first, then outputs not already listed), and the
        // transitions other than `t` with an enabling condition on those
        // places, deduplicated keeping first occurrence (each place's
        // conditions run in ascending transition order). An enabling
        // recheck never moves the marking, so a repeated visit is a no-op
        // and walking the deduplicated row visits transitions — and draws
        // random numbers — in exactly the order the full neighbour walk
        // did.
        let mut changed = Csr::default();
        let mut recheck = Csr::default();
        for (ti, arcs) in self.arcs.iter().enumerate() {
            let row = changed.items.len();
            for &(p, _) in arcs.inputs.iter().chain(&arcs.outputs) {
                if !changed.items[row..].contains(&p) {
                    changed.items.push(p);
                }
            }
            changed.end_row();
            let rrow = recheck.items.len();
            for &p in &changed.items[row..] {
                for c in conds.row(p) {
                    if c.trans != ti as u32 && !recheck.items[rrow..].contains(&c.trans) {
                        recheck.items.push(c.trans);
                    }
                }
            }
            recheck.end_row();
        }

        // Flat immediate priority/weight side tables (timed slots unused):
        // the vanishing loop reads these instead of matching `kind()` per
        // candidate.
        let imm_priority: Vec<u8> = self
            .kinds
            .iter()
            .map(|k| match k {
                TransitionKind::Immediate { priority, .. } => *priority,
                TransitionKind::Timed { .. } => 0,
            })
            .collect();
        let imm_weight: Vec<f64> = self
            .kinds
            .iter()
            .map(|k| match k {
                TransitionKind::Immediate { weight, .. } => *weight,
                TransitionKind::Timed { .. } => 0.0,
            })
            .collect();

        Ok(PetriNet {
            place_names: self.place_names,
            initial: self.initial,
            trans_names: self.trans_names,
            kinds: self.kinds,
            arcs: self.arcs,
            changed,
            recheck,
            immediates,
            timed,
            conds,
            imm_priority,
            imm_weight,
        })
    }
}

/// An immutable, validated Petri net.
#[derive(Debug, Clone, PartialEq)]
pub struct PetriNet {
    place_names: Vec<String>,
    initial: Vec<u32>,
    trans_names: Vec<String>,
    kinds: Vec<TransitionKind>,
    arcs: Vec<TransitionArcs>,
    /// Firing plan, part 1: places whose marking firing `t` changes.
    changed: Csr<u32>,
    /// Firing plan, part 2: transitions whose enabling may flip after `t`
    /// fires, in enabling-recheck order.
    recheck: Csr<u32>,
    /// Indices of immediate transitions.
    immediates: Vec<u32>,
    /// Indices of timed transitions.
    timed: Vec<u32>,
    /// Enabling conditions grouped by place (see [`EnablingCond`]).
    conds: Csr<EnablingCond>,
    /// Per-transition immediate priority (0 for timed transitions).
    imm_priority: Vec<u8>,
    /// Per-transition immediate weight (0.0 for timed transitions).
    imm_weight: Vec<f64>,
}

impl PetriNet {
    /// Number of places.
    pub fn n_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn n_transitions(&self) -> usize {
        self.trans_names.len()
    }

    /// All place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.place_names.len() as u32).map(PlaceId)
    }

    /// All transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.trans_names.len() as u32).map(TransitionId)
    }

    /// Name of a place.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.index()]
    }

    /// Name of a transition.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.trans_names[t.index()]
    }

    /// Kind of a transition.
    pub fn kind(&self, t: TransitionId) -> TransitionKind {
        self.kinds[t.index()]
    }

    /// Kind of transition `t` by reference (engine hot path: no copy of the
    /// distribution).
    #[inline]
    pub(crate) fn kind_ref(&self, t: u32) -> &TransitionKind {
        &self.kinds[t as usize]
    }

    /// Look a place up by name.
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Look a transition up by name.
    pub fn find_transition(&self, name: &str) -> Option<TransitionId> {
        self.trans_names
            .iter()
            .position(|n| n == name)
            .map(|i| TransitionId(i as u32))
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.initial.clone())
    }

    /// Input arcs of `t` as `(place, multiplicity)`.
    pub fn inputs(&self, t: TransitionId) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.arcs[t.index()]
            .inputs
            .iter()
            .map(|&(p, m)| (PlaceId(p), m))
    }

    /// Output arcs of `t` as `(place, multiplicity)`.
    pub fn outputs(&self, t: TransitionId) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.arcs[t.index()]
            .outputs
            .iter()
            .map(|&(p, m)| (PlaceId(p), m))
    }

    /// Inhibitor arcs of `t` as `(place, threshold)`.
    pub fn inhibitors(&self, t: TransitionId) -> impl Iterator<Item = (PlaceId, u32)> + '_ {
        self.arcs[t.index()]
            .inhibitors
            .iter()
            .map(|&(p, m)| (PlaceId(p), m))
    }

    /// Places whose marking firing `t` changes: inputs first, then outputs
    /// not already listed.
    #[inline]
    pub(crate) fn changed_places(&self, t: u32) -> &[u32] {
        self.changed.row(t)
    }

    /// Transitions other than `t` to recheck for an enabling flip after `t`
    /// fires: every neighbour of [`Self::changed_places`], deduplicated in
    /// first-visit order.
    #[inline]
    pub(crate) fn recheck_after(&self, t: u32) -> &[u32] {
        self.recheck.row(t)
    }

    /// Indices of immediate transitions, highest priority first (equal
    /// priorities in ascending index order).
    pub(crate) fn immediate_indices(&self) -> &[u32] {
        &self.immediates
    }

    /// Indices of timed transitions (ascending).
    pub(crate) fn timed_indices(&self) -> &[u32] {
        &self.timed
    }

    /// Enabling conditions reading place `p` (CSR slice).
    #[inline]
    pub(crate) fn conds_of(&self, p: u32) -> &[EnablingCond] {
        self.conds.row(p)
    }

    /// Count each transition's unsatisfied enabling conditions in `marking`
    /// into `unsat` (one slot per transition, zeroed first). A transition is
    /// enabled iff its count is zero — the simulator seeds its incremental
    /// counters with this and then maintains them from marking deltas.
    pub(crate) fn count_unsat(&self, marking: &Marking, unsat: &mut [u32]) {
        debug_assert_eq!(unsat.len(), self.n_transitions());
        unsat.iter_mut().for_each(|u| *u = 0);
        for p in 0..self.place_names.len() {
            let tokens = marking.0[p];
            for c in self.conds_of(p as u32) {
                if !c.satisfied(tokens) {
                    unsat[c.trans as usize] += 1;
                }
            }
        }
    }

    /// Immediate priority of transition `t` (side table; 0 for timed).
    #[inline]
    pub(crate) fn imm_priority(&self, t: u32) -> u8 {
        self.imm_priority[t as usize]
    }

    /// Immediate weight of transition `t` (side table; 0.0 for timed).
    #[inline]
    pub(crate) fn imm_weight(&self, t: u32) -> f64 {
        self.imm_weight[t as usize]
    }

    /// Whether `t` is enabled in `marking` (inputs satisfied, no inhibitor
    /// tripped).
    pub fn is_enabled(&self, marking: &Marking, t: TransitionId) -> bool {
        let arcs = &self.arcs[t.index()];
        for &(p, mult) in &arcs.inputs {
            if marking.0[p as usize] < mult {
                return false;
            }
        }
        for &(p, thresh) in &arcs.inhibitors {
            if marking.0[p as usize] >= thresh {
                return false;
            }
        }
        true
    }

    /// All transitions enabled in `marking`.
    pub fn enabled_transitions(&self, marking: &Marking) -> Vec<TransitionId> {
        self.transitions()
            .filter(|&t| self.is_enabled(marking, t))
            .collect()
    }

    /// Fire `t` in `marking` (must be enabled), mutating it in place.
    #[inline]
    pub(crate) fn fire_into(&self, marking: &mut Marking, t: u32) {
        let arcs = &self.arcs[t as usize];
        for &(p, mult) in &arcs.inputs {
            debug_assert!(marking.0[p as usize] >= mult, "firing disabled transition");
            marking.0[p as usize] -= mult;
        }
        for &(p, mult) in &arcs.outputs {
            marking.0[p as usize] += mult;
        }
    }

    /// Raw input arcs of `t` as `(place, multiplicity)` (engine hot path).
    #[inline]
    pub(crate) fn input_arcs(&self, t: u32) -> &[(u32, u32)] {
        &self.arcs[t as usize].inputs
    }

    /// Raw output arcs of `t` as `(place, multiplicity)` (engine hot path).
    #[inline]
    pub(crate) fn output_arcs(&self, t: u32) -> &[(u32, u32)] {
        &self.arcs[t as usize].outputs
    }

    /// Fire `t` on a copy of `marking` and return the successor (must be
    /// enabled).
    pub fn fire(&self, marking: &Marking, t: TransitionId) -> Marking {
        let mut next = marking.clone();
        self.fire_into(&mut next, t.0);
        next
    }

    /// Serializable specification of this net.
    pub fn to_spec(&self) -> NetSpec {
        let mut arcs = Vec::new();
        for t in self.transitions() {
            for (p, m) in self.inputs(t) {
                arcs.push(ArcSpec {
                    kind: ArcKind::Input,
                    place: self.place_name(p).to_owned(),
                    transition: self.transition_name(t).to_owned(),
                    multiplicity: m,
                });
            }
            for (p, m) in self.outputs(t) {
                arcs.push(ArcSpec {
                    kind: ArcKind::Output,
                    place: self.place_name(p).to_owned(),
                    transition: self.transition_name(t).to_owned(),
                    multiplicity: m,
                });
            }
            for (p, m) in self.inhibitors(t) {
                arcs.push(ArcSpec {
                    kind: ArcKind::Inhibitor,
                    place: self.place_name(p).to_owned(),
                    transition: self.transition_name(t).to_owned(),
                    multiplicity: m,
                });
            }
        }
        NetSpec {
            places: self
                .places()
                .map(|p| PlaceSpec {
                    name: self.place_name(p).to_owned(),
                    initial: self.initial[p.index()],
                })
                .collect(),
            transitions: self
                .transitions()
                .map(|t| TransSpec {
                    name: self.transition_name(t).to_owned(),
                    kind: self.kind(t),
                })
                .collect(),
            arcs,
        }
    }
}

/// Arc direction/kind in a [`NetSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum ArcKind {
    /// Place → transition, consumed on firing.
    Input,
    /// Transition → place, produced on firing.
    Output,
    /// Place —o transition, disables at or above the threshold.
    Inhibitor,
}

/// One place in a [`NetSpec`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct PlaceSpec {
    /// Place name (unique).
    pub name: String,
    /// Initial token count.
    pub initial: u32,
}

/// One transition in a [`NetSpec`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct TransSpec {
    /// Transition name (unique).
    pub name: String,
    /// Kind and parameters.
    pub kind: TransitionKind,
}

/// One arc in a [`NetSpec`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ArcSpec {
    /// Arc kind.
    pub kind: ArcKind,
    /// Place name.
    pub place: String,
    /// Transition name.
    pub transition: String,
    /// Multiplicity (inputs/outputs) or threshold (inhibitors).
    pub multiplicity: u32,
}

/// Serializable net description (names instead of indices) — the exchange
/// format for nets on disk.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct NetSpec {
    /// Places.
    pub places: Vec<PlaceSpec>,
    /// Transitions.
    pub transitions: Vec<TransSpec>,
    /// Arcs.
    pub arcs: Vec<ArcSpec>,
}

impl NetSpec {
    /// Resolve names and build the net.
    pub fn build(&self) -> Result<PetriNet, PetriError> {
        let mut b = NetBuilder::new();
        for p in &self.places {
            b.place(p.name.clone(), p.initial);
        }
        for t in &self.transitions {
            b.transition(t.name.clone(), t.kind);
        }
        // Need id lookup before build(); replicate the index mapping.
        let place_of = |name: &str| -> Result<PlaceId, PetriError> {
            self.places
                .iter()
                .position(|p| p.name == name)
                .map(|i| PlaceId(i as u32))
                .ok_or_else(|| PetriError::UnknownName(name.to_owned()))
        };
        let trans_of = |name: &str| -> Result<TransitionId, PetriError> {
            self.transitions
                .iter()
                .position(|t| t.name == name)
                .map(|i| TransitionId(i as u32))
                .ok_or_else(|| PetriError::UnknownName(name.to_owned()))
        };
        for a in &self.arcs {
            let p = place_of(&a.place)?;
            let t = trans_of(&a.transition)?;
            match a.kind {
                ArcKind::Input => b.input_arc(p, t, a.multiplicity),
                ArcKind::Output => b.output_arc(t, p, a.multiplicity),
                ArcKind::Inhibitor => b.inhibitor_arc(p, t, a.multiplicity),
            };
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P0 --(t: exp)-- P1 with an inhibitor from P1 (threshold 2).
    fn tiny() -> PetriNet {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t = b.exponential("t", 2.0);
        b.input_arc(p0, t, 1);
        b.output_arc(t, p1, 1);
        b.inhibitor_arc(p1, t, 2);
        b.build().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let net = tiny();
        assert_eq!(net.n_places(), 2);
        assert_eq!(net.n_transitions(), 1);
        let p0 = net.find_place("P0").unwrap();
        let t = net.find_transition("t").unwrap();
        assert_eq!(net.place_name(p0), "P0");
        assert_eq!(net.transition_name(t), "t");
        assert!(net.find_place("nope").is_none());
        assert!(net.find_transition("nope").is_none());
        assert_eq!(net.inputs(t).collect::<Vec<_>>(), vec![(p0, 1)]);
        assert!(matches!(
            net.kind(t),
            TransitionKind::Timed {
                dist: Dist::Exponential { .. },
                ..
            }
        ));
    }

    #[test]
    fn enabling_and_firing() {
        let net = tiny();
        let t = net.find_transition("t").unwrap();
        let m0 = net.initial_marking();
        assert!(net.is_enabled(&m0, t));
        let m1 = net.fire(&m0, t);
        assert_eq!(m1.as_slice(), &[0, 1]);
        assert!(!net.is_enabled(&m1, t), "input empty");
        assert_eq!(net.enabled_transitions(&m0), vec![t]);
        assert!(net.enabled_transitions(&m1).is_empty());
    }

    #[test]
    fn inhibitor_disables() {
        let net = tiny();
        let t = net.find_transition("t").unwrap();
        let m = Marking::new(vec![5, 2]);
        assert!(!net.is_enabled(&m, t), "P1 at threshold trips inhibitor");
        let m = Marking::new(vec![5, 1]);
        assert!(net.is_enabled(&m, t));
    }

    #[test]
    fn source_transition_always_enabled() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.exponential("src", 1.0);
        b.output_arc(t, p, 1);
        let net = b.build().unwrap();
        let t = net.find_transition("src").unwrap();
        assert!(net.is_enabled(&net.initial_marking(), t));
    }

    #[test]
    fn multiplicity_arithmetic() {
        let mut b = NetBuilder::new();
        let p0 = b.place("in", 5);
        let p1 = b.place("out", 0);
        let t = b.immediate("t", 1, 1.0);
        b.input_arc(p0, t, 3);
        b.output_arc(t, p1, 2);
        let net = b.build().unwrap();
        let t = net.find_transition("t").unwrap();
        let m = net.fire(&net.initial_marking(), t);
        assert_eq!(m.as_slice(), &[2, 2]);
        // Needs 3 tokens: disabled at 2.
        assert!(!net.is_enabled(&m, t));
    }

    #[test]
    fn builder_rejects_duplicates_and_invalids() {
        let mut b = NetBuilder::new();
        b.place("X", 0);
        b.place("X", 0);
        assert!(matches!(b.build(), Err(PetriError::DuplicateName(_))));

        let mut b = NetBuilder::new();
        b.place("P", 0);
        b.transition("P", TransitionKind::immediate(1));
        assert!(matches!(b.build(), Err(PetriError::DuplicateName(_))));

        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.immediate("t", 1, 0.0);
        b.input_arc(p, t, 1);
        assert!(matches!(b.build(), Err(PetriError::InvalidWeight { .. })));

        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.immediate("t", 1, 1.0);
        b.input_arc(p, t, 0);
        assert!(matches!(
            b.build(),
            Err(PetriError::InvalidMultiplicity { .. })
        ));

        // The packed enabling-condition layout reserves the top bit, so
        // 2^31 and above must be rejected at build time (not silently
        // reinterpreted as an inhibitor in release builds).
        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.immediate("t", 1, 1.0);
        b.input_arc(p, t, 1 << 31);
        assert!(matches!(
            b.build(),
            Err(PetriError::InvalidMultiplicity { .. })
        ));
        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.immediate("t", 1, 1.0);
        b.inhibitor_arc(p, t, u32::MAX);
        assert!(matches!(
            b.build(),
            Err(PetriError::InvalidMultiplicity { .. })
        ));

        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.immediate("t", 1, 1.0);
        b.input_arc(p, t, 1);
        b.input_arc(p, t, 1);
        assert!(matches!(b.build(), Err(PetriError::DuplicateArc { .. })));

        let mut b = NetBuilder::new();
        b.exponential("t", -1.0);
        assert!(matches!(b.build(), Err(PetriError::Stats(_))));
    }

    #[test]
    fn input_and_output_to_same_place_allowed() {
        // Self-loop place (read arc pattern): consume and reproduce.
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let t = b.exponential("t", 1.0);
        b.input_arc(p, t, 1);
        b.output_arc(t, p, 1);
        let net = b.build().unwrap();
        let t = net.find_transition("t").unwrap();
        let m = net.fire(&net.initial_marking(), t);
        assert_eq!(m.as_slice(), &[1]);
    }

    #[test]
    fn spec_round_trip() {
        let net = tiny();
        let spec = net.to_spec();
        let rebuilt = spec.build().unwrap();
        assert_eq!(net, rebuilt);
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: NetSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.build().unwrap(), net);
    }

    #[test]
    fn spec_unknown_names_rejected() {
        let mut spec = tiny().to_spec();
        spec.arcs[0].place = "ghost".into();
        assert!(matches!(spec.build(), Err(PetriError::UnknownName(_))));
        let mut spec = tiny().to_spec();
        spec.arcs[0].transition = "ghost".into();
        assert!(matches!(spec.build(), Err(PetriError::UnknownName(_))));
    }

    #[test]
    fn enabling_conditions_csr_matches_is_enabled() {
        let net = tiny();
        // P0 carries t's input condition (bound 1), P1 its inhibitor
        // (bound 2).
        assert_eq!(net.conds_of(0), &[EnablingCond::new(0, 1, false)]);
        assert_eq!(net.conds_of(1), &[EnablingCond::new(0, 2, true)]);
        assert_eq!(net.conds_of(0)[0].bound(), 1);
        assert!(!net.conds_of(0)[0].inhibitor());
        assert_eq!(net.conds_of(1)[0].bound(), 2);
        assert!(net.conds_of(1)[0].inhibitor());
        let mut unsat = vec![0u32; net.n_transitions()];
        for m in [
            Marking::new(vec![1, 0]),
            Marking::new(vec![0, 1]),
            Marking::new(vec![5, 2]),
            Marking::new(vec![0, 3]),
        ] {
            net.count_unsat(&m, &mut unsat);
            let t = TransitionId(0);
            assert_eq!(unsat[0] == 0, net.is_enabled(&m, t), "marking {m:?}");
        }
    }

    #[test]
    fn immediate_side_tables() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let timed = b.exponential("timed", 1.0);
        b.input_arc(p, timed, 1);
        let imm = b.immediate("imm", 3, 2.5);
        b.input_arc(p, imm, 1);
        let net = b.build().unwrap();
        assert_eq!(net.imm_priority(imm.0), 3);
        assert_eq!(net.imm_weight(imm.0), 2.5);
        assert_eq!(net.imm_priority(timed.0), 0);
        assert_eq!(net.imm_weight(timed.0), 0.0);
    }

    #[test]
    fn raw_arc_slices_match_iterators() {
        let mut b = NetBuilder::new();
        let p0 = b.place("in", 5);
        let p1 = b.place("out", 2);
        let t = b.immediate("t", 1, 1.0);
        b.input_arc(p0, t, 3);
        b.output_arc(t, p0, 1);
        b.output_arc(t, p1, 2);
        let net = b.build().unwrap();
        assert_eq!(net.input_arcs(0), &[(0, 3)]);
        assert_eq!(net.output_arcs(0), &[(0, 1), (1, 2)]);
        assert_eq!(
            net.inputs(TransitionId(0))
                .map(|(p, m)| (p.0, m))
                .collect::<Vec<_>>(),
            net.input_arcs(0)
        );
    }

    #[test]
    fn affected_by_index() {
        let net = tiny();
        // Firing t changes P0 (input) and P1 (output); t is the only
        // transition reading either, so there is nothing else to recheck.
        assert_eq!(net.changed_places(0), &[0, 1]);
        assert_eq!(net.recheck_after(0), &[] as &[u32]);
        assert_eq!(net.immediate_indices(), &[] as &[u32]);
        assert_eq!(net.timed_indices(), &[0]);
    }

    /// Firing plans: changed places list inputs first, then new outputs;
    /// recheck lists walk each changed place's readers in index order,
    /// skipping the fired transition and repeats.
    #[test]
    fn firing_plans_dedup_in_first_visit_order() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 1);
        let q = b.place("Q", 0);
        let r = b.place("R", 0);
        // t0: P -> P + Q (self-loop on P), inhibited by R.
        let t0 = b.exponential("t0", 1.0);
        b.input_arc(p, t0, 1);
        b.output_arc(t0, q, 1);
        b.output_arc(t0, p, 1);
        b.inhibitor_arc(r, t0, 1);
        // t1 reads Q and R; t2 reads P (input and inhibitor) and Q.
        let t1 = b.immediate("t1", 1, 1.0);
        b.input_arc(q, t1, 1);
        b.input_arc(r, t1, 1);
        let t2 = b.exponential("t2", 1.0);
        b.input_arc(q, t2, 1);
        b.input_arc(p, t2, 1);
        b.inhibitor_arc(p, t2, 3);
        // Source: no inputs, feeds R.
        let src = b.exponential("src", 1.0);
        b.output_arc(src, r, 1);
        let net = b.build().unwrap();
        assert_eq!(net.changed_places(t0.0), &[0, 1]);
        assert_eq!(net.recheck_after(t0.0), &[2, 1]);
        assert_eq!(net.changed_places(t1.0), &[1, 2]);
        assert_eq!(net.recheck_after(t1.0), &[2, 0]);
        assert_eq!(net.changed_places(t2.0), &[1, 0]);
        assert_eq!(net.recheck_after(t2.0), &[1, 0]);
        assert_eq!(net.changed_places(src.0), &[2]);
        assert_eq!(net.recheck_after(src.0), &[0, 1]);
    }
}
