//! Bounded reachability exploration.

use crate::error::PetriError;
use crate::marking::{Interned, Marking, MarkingIndex};
use crate::net::{PetriNet, TransitionId, TransitionKind};

/// Budget limits for exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachOptions {
    /// Abort after this many distinct markings.
    pub max_markings: usize,
    /// Per-place token bound; exceeding it reports the net as (possibly)
    /// unbounded.
    pub max_tokens: u32,
}

impl Default for ReachOptions {
    fn default() -> Self {
        Self {
            max_markings: 100_000,
            max_tokens: 4096,
        }
    }
}

/// The reachability graph.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// Distinct reachable markings (index 0 = initial).
    pub markings: Vec<Marking>,
    /// Edges `(from, transition, to)` over marking indices.
    pub edges: Vec<(u32, u32, u32)>,
    /// Whether each marking is vanishing (an immediate transition enabled).
    pub vanishing: Vec<bool>,
}

impl ReachabilityGraph {
    /// Number of markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// True when the graph is empty (cannot happen post-exploration).
    pub fn is_empty(&self) -> bool {
        self.markings.is_empty()
    }

    /// Number of tangible markings.
    pub fn n_tangible(&self) -> usize {
        self.vanishing.iter().filter(|&&v| !v).count()
    }

    /// The maximum token count any place reaches (the net's bound).
    pub fn max_tokens_seen(&self) -> u32 {
        self.markings
            .iter()
            .flat_map(|m| m.as_slice().iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// True when no reachable marking enables any transition it could fire
    /// (deadlock exists somewhere).
    pub fn has_deadlock(&self, net: &PetriNet) -> bool {
        self.markings
            .iter()
            .any(|m| net.enabled_transitions(m).is_empty())
    }
}

/// Transitions fireable from a marking under GSPN semantics: if any
/// immediate is enabled, only the maximal-priority enabled immediates fire;
/// otherwise all enabled timed transitions do.
pub(crate) fn fireable(net: &PetriNet, m: &Marking) -> Vec<TransitionId> {
    let mut best_priority = 0u8;
    let mut immediates: Vec<TransitionId> = Vec::new();
    for t in net.transitions() {
        if let TransitionKind::Immediate { priority, .. } = net.kind(t) {
            if net.is_enabled(m, t) {
                if immediates.is_empty() || priority > best_priority {
                    immediates.clear();
                    immediates.push(t);
                    best_priority = priority;
                } else if priority == best_priority {
                    immediates.push(t);
                }
            }
        }
    }
    if !immediates.is_empty() {
        return immediates;
    }
    net.transitions()
        .filter(|&t| !net.kind(t).is_immediate() && net.is_enabled(m, t))
        .collect()
}

/// Whether a marking is vanishing (some immediate transition enabled).
pub(crate) fn is_vanishing(net: &PetriNet, m: &Marking) -> bool {
    net.transitions()
        .any(|t| net.kind(t).is_immediate() && net.is_enabled(m, t))
}

/// Intern `m`, returning its ID and whether it is new. A marking with more
/// than `opts.max_tokens` in some place reports the net as unbounded; a new
/// marking beyond `opts.max_markings` distinct ones exhausts the budget. (A
/// known marking passed the token check on its first visit.)
pub(crate) fn intern_bounded(
    net: &PetriNet,
    opts: ReachOptions,
    index: &mut MarkingIndex,
    m: &Marking,
) -> Result<(u32, bool), PetriError> {
    if let Some(p) = net.places().find(|&p| m.tokens(p) > opts.max_tokens) {
        return Err(PetriError::Unbounded {
            place: net.place_name(p).to_owned(),
            bound: opts.max_tokens,
        });
    }
    match index.intern(m.as_slice()) {
        Interned::Known(i) => Ok((i, false)),
        Interned::New(i) => Ok((i, true)),
        Interned::Full => Err(PetriError::TooManyMarkings {
            limit: opts.max_markings,
        }),
    }
}

/// Breadth-first exploration from the initial marking.
pub fn explore(net: &PetriNet, opts: ReachOptions) -> Result<ReachabilityGraph, PetriError> {
    let mut index = MarkingIndex::new(net.n_places(), opts.max_markings);
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut vanishing: Vec<bool> = Vec::new();

    let mut m = net.initial_marking();
    intern_bounded(net, opts, &mut index, &m)?;
    vanishing.push(is_vanishing(net, &m));
    let mut frontier = 0usize;
    while frontier < index.len() {
        m.0.copy_from_slice(index.marking(frontier as u32));
        for t in fireable(net, &m) {
            let next = net.fire(&m, t);
            let (j, new) = intern_bounded(net, opts, &mut index, &next)?;
            if new {
                vanishing.push(is_vanishing(net, &next));
            }
            edges.push((frontier as u32, t.index() as u32, j));
        }
        frontier += 1;
    }
    Ok(ReachabilityGraph {
        markings: index.into_markings(),
        edges,
        vanishing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    #[test]
    fn bounded_cycle_graph() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t01 = b.exponential("t01", 1.0);
        let t10 = b.exponential("t10", 1.0);
        b.input_arc(p0, t01, 1);
        b.output_arc(t01, p1, 1);
        b.input_arc(p1, t10, 1);
        b.output_arc(t10, p0, 1);
        let net = b.build().unwrap();
        let g = explore(&net, ReachOptions::default()).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.n_tangible(), 2);
        assert!(!g.has_deadlock(&net));
        assert_eq!(g.max_tokens_seen(), 1);
        assert!(!g.is_empty());
    }

    #[test]
    fn mm1k_state_count() {
        // Queue bounded by inhibitor at K=4 → 5 markings (0..=4 tokens).
        let mut b = NetBuilder::new();
        let q = b.place("Queue", 0);
        let arrive = b.exponential("arrive", 1.0);
        b.output_arc(arrive, q, 1);
        b.inhibitor_arc(q, arrive, 4);
        let serve = b.exponential("serve", 2.0);
        b.input_arc(q, serve, 1);
        let net = b.build().unwrap();
        let g = explore(&net, ReachOptions::default()).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.max_tokens_seen(), 4);
    }

    #[test]
    fn unbounded_source_detected() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.exponential("t", 1.0);
        b.output_arc(t, p, 1);
        let net = b.build().unwrap();
        let err = explore(
            &net,
            ReachOptions {
                max_markings: 1_000_000,
                max_tokens: 64,
            },
        )
        .unwrap_err();
        assert!(matches!(err, PetriError::Unbounded { .. }));
    }

    #[test]
    fn marking_budget_respected() {
        let mut b = NetBuilder::new();
        let p = b.place("P", 0);
        let t = b.exponential("t", 1.0);
        b.output_arc(t, p, 1);
        let net = b.build().unwrap();
        let err = explore(
            &net,
            ReachOptions {
                max_markings: 10,
                max_tokens: 1_000_000,
            },
        )
        .unwrap_err();
        assert!(matches!(err, PetriError::TooManyMarkings { .. }));
    }

    #[test]
    fn vanishing_classification_and_priority() {
        // src(exp) -> Wait; immediate moves Wait -> Done. Marking with a
        // token in Wait is vanishing.
        let mut b = NetBuilder::new();
        let wait = b.place("Wait", 0);
        let done = b.place("Done", 0);
        let src = b.exponential("src", 1.0);
        b.output_arc(src, wait, 1);
        b.inhibitor_arc(done, src, 3);
        let im = b.immediate("im", 1, 1.0);
        b.input_arc(wait, im, 1);
        b.output_arc(im, done, 1);
        let net = b.build().unwrap();
        let g = explore(&net, ReachOptions::default()).unwrap();
        let n_vanishing = g.vanishing.iter().filter(|&&v| v).count();
        assert!(n_vanishing >= 1);
        assert!(g.n_tangible() >= 2);
        // From a vanishing marking only the immediate fires.
        for (i, m) in g.markings.iter().enumerate() {
            if g.vanishing[i] {
                let f = fireable(&net, m);
                assert!(f.iter().all(|&t| net.kind(t).is_immediate()));
            }
        }
    }

    #[test]
    fn deadlock_detected() {
        let mut b = NetBuilder::new();
        let p0 = b.place("P0", 1);
        let p1 = b.place("P1", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(p0, t, 1);
        b.output_arc(t, p1, 1);
        let net = b.build().unwrap();
        let g = explore(&net, ReachOptions::default()).unwrap();
        assert!(g.has_deadlock(&net), "final marking enables nothing");
    }
}
