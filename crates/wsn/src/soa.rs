//! Structure-of-arrays topology core — the one network evaluator.
//!
//! Every scenario network, from a three-node chain to a million-node
//! template tree, evaluates here. The routed [`crate::Network`] stores one
//! [`crate::NodeConfig`] struct per node (name `String`, CPU params, power
//! profile, radio, battery — several hundred bytes each) and returns one
//! [`crate::NodeAnalysis`] per node; it is kept as the reference oracle the
//! tests compare this module against. [`SoaNetwork`] is the same model in
//! flat arrays:
//!
//! * topology is a [`Routes`] value: a star or a breadth-first tree (a
//!   chain is a fanout-1 tree) is a rule with no per-node storage, and only
//!   explicit routes (a mesh, or a converted oracle net) keep one `u32`
//!   parent per node ([`SINK`] marks sink-adjacent nodes);
//! * per-node workload is three [`RunColumn`]s (event rate, packets per
//!   event, exogenous rx rate), which store one value per run of
//!   consecutive bit-equal nodes, so a template's column is one value;
//! * CPU parameters, power profile and battery are shared (a scenario's
//!   nodes share them by construction), and radios are a shared model plus
//!   a sparse override list;
//! * names are either generated on demand (`prefix` + 1-based index — zero
//!   bytes per node) or interned into a single arena.
//!
//! The routing pass ([`SoaNetwork::routing`]) computes hop depths,
//! forwarding loads and subtree sizes, as run columns, with floating-point
//! sums **bit-identical** to the oracle [`crate::Network::routing`]. The
//! oracle processes nodes in stable deepest-first order, so each parent's
//! load is its children's output rates added to `+0.0` in ascending index
//! order. Stars and trees are routed level by level: level `d` of a
//! breadth-first tree is a contiguous index range, and node `i`'s children
//! are `f·i + 1 ..= f·i + f`, so walking the levels bottom-up, one level's
//! runs give the next level's in O(1) per run — parents whose whole child
//! window lies in one run share one fold, and only windows that straddle a
//! run boundary are folded child by child. That costs O(levels + runs), not
//! O(nodes): the 10^6-node fanout-4 tree routes in 11 levels and 20 runs.
//! A chain has one node per level, where level runs buy nothing, so it is
//! routed over its parent array like explicit parents: node by node, in
//! the oracle's order from a stable counting sort by depth, and compressed
//! into the same columns. The equivalence battery in
//! `tests/soa_topology.rs` pins `SoaNetwork` against the per-node oracle up
//! to 10^5 nodes, and the unit tests pin star and tree routing against
//! parent-array routing of the same topologies.
//!
//! Node evaluation ([`SoaNetwork::analyze_with`]) shares work across
//! *runs*: maximal ranges of consecutive indices whose per-node inputs
//! (event rate, packets per event, rx rate, forwarded load, radio) are
//! bitwise equal. Each run is solved once and its power and lifetime fill
//! every node in it, which is exact because [`wsnem_core::CpuSolver::solve`]
//! is a pure function of its inputs. The runs are found by merging the run
//! boundaries of the four input columns with the nodes where an override
//! changes the radio's bits, so finding them costs O(runs + overrides).
//! Breadth-first template trees have a handful of operating points (a
//! 10^6-node fanout-4 tree has 20 runs), so they cost a handful of solves;
//! a net with no repeats, such as a chain, has one run per node.
//!
//! [`SoaAnalysis`] keeps every column — depth, forwarded load, subtree
//! size, power, lifetime and utilization — as a [`RunColumn`], so any node
//! can be indexed, but it never builds per-node rows or fills a per-node
//! array. Its aggregates — first death,
//! bottlenecks, lifetime histogram, the worst-lifetime cohort, the
//! near-unstable count — read one value per run, since forwarded load,
//! power, lifetime and utilization are constant on a run; the hop-depth
//! percentiles read the per-depth counts of the routing pass. On the
//! 10^6-node tree that is 20 values, not 10^6. The mean lifetime, the total
//! power and the sink inflow are node-order sums, whose order fixes their
//! last bits; [`RunColumn::sum`] gives those bits from the runs, adding a
//! run's repeated value a binade at a time in O(log n) steps, so a star or
//! tree template costs O(runs · log n) from routing to report. Small nets
//! that report per node read each node's CPU split from its run
//! ([`SoaAnalysis::run_for`]).

use wsnem_core::{BackendId, BackendRegistry, CpuModelParams, EvalOptions};
use wsnem_energy::{Battery, PowerProfile, StateFractions};
use wsnem_stats::dist::Sample;
use wsnem_stats::par;

use crate::radio::RadioModel;
use crate::topology::{Network, NetworkError, NextHop};

/// Parent-array sentinel: this node transmits directly to the sink.
pub const SINK: u32 = u32::MAX;

/// Node-name storage for a [`SoaNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub enum NodeNames {
    /// Names are `{prefix}{i+1}` (1-based), generated on demand — zero
    /// bytes per node, the template/large-net representation.
    Generated {
        /// The shared name prefix.
        prefix: String,
    },
    /// Explicit names interned into one arena (converted small nets).
    Interned {
        /// Concatenated names.
        arena: String,
        /// `offsets[i]..offsets[i + 1]` is node `i`'s name; length `n + 1`.
        offsets: Vec<u32>,
    },
}

impl NodeNames {
    /// Intern an iterator of names into an arena.
    pub fn intern<'a>(names: impl Iterator<Item = &'a str>) -> Self {
        let mut arena = String::new();
        let mut offsets = vec![0u32];
        for name in names {
            arena.push_str(name);
            offsets.push(arena.len() as u32);
        }
        NodeNames::Interned { arena, offsets }
    }

    /// Node `i`'s name.
    pub fn name(&self, i: usize) -> String {
        match self {
            NodeNames::Generated { prefix } => format!("{prefix}{}", i + 1),
            NodeNames::Interned { arena, offsets } => {
                arena[offsets[i] as usize..offsets[i + 1] as usize].to_owned()
            }
        }
    }
}

/// A value a [`RunColumn`] can hold.
pub trait RunValue: Copy + Default {
    /// True when neighbours `a` and `b` share a run.
    fn same(a: Self, b: Self) -> bool;
}

impl RunValue for f64 {
    /// Bit equality: `0.0` and `-0.0`, or two NaN payloads, differ.
    fn same(a: Self, b: Self) -> bool {
        a.to_bits() == b.to_bits()
    }
}

impl RunValue for u32 {
    fn same(a: Self, b: Self) -> bool {
        a == b
    }
}

/// A per-node column stored as runs of consecutive equal values.
///
/// Runs are maximal: neighbouring runs differ ([`RunValue::same`]), so for
/// `f64` the values `0.0` and `-0.0`, or two NaN payloads, stay apart. A
/// template's column is one run however many nodes it has. While every run
/// is one node the column keeps only its values and `[i]` reads
/// `values[i]`; the first repeat adds run ends, and `[i]` then
/// binary-searches them unless there is one run.
#[derive(Debug, Clone, Default)]
pub struct RunColumn<T = f64> {
    /// One value per run, in node order.
    values: Vec<T>,
    /// Exclusive end index of each run; empty while every run is one node.
    ends: Vec<usize>,
    /// Number of nodes.
    len: usize,
}

impl<T: RunValue> RunColumn<T> {
    /// `len` nodes of one value.
    pub(crate) fn repeat(value: T, len: usize) -> Self {
        let mut column = Self::default();
        column.push_run(value, len);
        column
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a column of no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.values.len()
    }

    /// Append `count` nodes of `value`, extending the last run when it
    /// holds the same value.
    pub(crate) fn push_run(&mut self, value: T, count: usize) {
        if count == 0 {
            return;
        }
        let merge = self.values.last().is_some_and(|&last| T::same(last, value));
        if self.ends.is_empty() {
            if !merge && count == 1 {
                self.values.push(value);
                self.len += 1;
                return;
            }
            // The first run longer than one node: every earlier run was one.
            self.ends = (1..=self.len).collect();
        }
        self.len += count;
        match self.ends.last_mut() {
            Some(end) if merge => *end = self.len,
            _ => {
                self.values.push(value);
                self.ends.push(self.len);
            }
        }
    }

    /// The run holding node `i`: no search for a column of one run or of
    /// one-node runs. For `i >= len()` the result is at least
    /// `run_count()`, since the last run ends at `len()`.
    fn run_index(&self, i: usize) -> usize {
        if self.values.len() == 1 && i < self.len {
            0
        } else if self.ends.is_empty() {
            i
        } else {
            self.ends.partition_point(|&end| end <= i)
        }
    }

    /// Exclusive end of run `r < run_count()`.
    fn run_end(&self, r: usize) -> usize {
        self.ends.get(r).copied().unwrap_or(r + 1)
    }

    /// Each run from node `start` on as its value and node count, in node
    /// order; the first is cut to begin at `start`.
    fn runs_from(&self, start: usize) -> impl Iterator<Item = (T, usize)> + '_ {
        let mut at = start;
        (self.run_index(start)..self.values.len()).map(move |r| {
            let end = self.run_end(r);
            let len = end - at;
            at = end;
            (self.values[r], len)
        })
    }

    /// Each run as its value and node count, in node order.
    pub fn runs(&self) -> impl Iterator<Item = (T, usize)> + '_ {
        self.runs_from(0)
    }

    /// Every node's value, in node order. A column of one-node runs is
    /// read straight from its values.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let (dense, runs) = if self.ends.is_empty() {
            (&self.values[..], &[][..])
        } else {
            (&[][..], &self.values[..])
        };
        let runs = runs
            .iter()
            .zip(&self.ends)
            .scan(0, |start, (&value, &end)| {
                let len = end - *start;
                *start = end;
                Some(std::iter::repeat_n(value, len))
            });
        dense.iter().copied().chain(runs.flatten())
    }
}

impl RunColumn {
    /// The sum of every node's value in node order: bit for bit
    /// `self.iter().sum::<f64>()`, which adds each node to `-0.0` in turn,
    /// but in about `log2(len)` additions per run instead of one per node.
    pub fn sum(&self) -> f64 {
        self.runs()
            .fold(-0.0, |acc, (value, count)| add_repeated(acc, value, count))
    }
}

/// `acc` after `k` rounded additions of `v`: bit for bit the loop
/// `for _ in 0..k { acc += v }`, in about `log2(k)` live additions.
///
/// While a finite accumulator stays in one binade, so keeps its ulp `u`,
/// and `v` has its sign, every round-to-nearest-even step adds the same
/// whole number of ulps to its magnitude: `d = q + (f > ½)` for
/// `|v| / u = q + f`. On a tie (`f = ½`) a step from an even multiple of
/// `u` adds `q + (q odd)` and lands on an even one again, so only a step
/// from an odd multiple runs live. The steps that stay in the binade are
/// one integer add of `m · d` to the bits, and the step that crosses into
/// the next binade runs live: a run costs a live step or two per binade
/// the sum climbs. One live step settles a non-finite accumulator or a `v`
/// of ±0; operands of opposite signs run the plain loop.
fn add_repeated(mut acc: f64, v: f64, mut k: usize) -> f64 {
    /// The largest 53-bit significand: the top of a binade, in ulps.
    const TOP: u64 = (1 << 53) - 1;
    while k > 0 {
        let jumpable = k > 1
            && acc.is_finite()
            && v.is_finite()
            && v != 0.0
            && acc.is_sign_negative() == v.is_sign_negative();
        if jumpable {
            let magnitude = acc.abs().to_bits();
            match ulps_per_step(magnitude, v.abs().to_bits()) {
                Some(0) => return acc,
                Some(d) => {
                    let m = (k as u64).min((TOP - significand(magnitude).0) / d);
                    if m > 0 {
                        acc = f64::from_bits(acc.to_bits() + m * d);
                        k -= m as usize;
                        continue;
                    }
                }
                None => {}
            }
        }
        acc += v;
        k -= 1;
        if !acc.is_finite() || v == 0.0 {
            return acc;
        }
    }
    acc
}

/// The ulps by which adding the finite magnitude `v > 0` moves the finite
/// magnitude `a >= 0`, the same on every step that keeps `a`'s binade, or
/// `None` when the next step must run live: `v` is 2^53 ulps or more, or
/// it is a tie from an odd multiple of the ulp.
fn ulps_per_step(a: u64, v: u64) -> Option<u64> {
    let (s, a_exponent) = significand(a);
    let (v_significand, v_exponent) = significand(v);
    // A `v` in a higher binade is a normal number of at least 2^53 ulps.
    let shift = a_exponent.checked_sub(v_exponent)?;
    if shift > 53 {
        return Some(0); // below half an ulp: every step rounds back to `a`
    }
    if shift == 0 {
        return Some(v_significand);
    }
    let q = v_significand >> shift;
    let half = 1 << (shift - 1);
    match (v_significand & ((1 << shift) - 1)).cmp(&half) {
        std::cmp::Ordering::Less => Some(q),
        std::cmp::Ordering::Greater => Some(q + 1),
        std::cmp::Ordering::Equal => (s % 2 == 0).then_some(q + q % 2),
    }
}

/// A finite magnitude's integer significand, with its hidden bit, and its
/// exponent field; subnormals read as field 1, whose ulp they share.
fn significand(bits: u64) -> (u64, u64) {
    let field = bits >> 52;
    let fraction = bits & ((1 << 52) - 1);
    (fraction | u64::from(field != 0) << 52, field.max(1))
}

impl<T: RunValue> std::ops::Index<usize> for RunColumn<T> {
    type Output = T;

    /// Node `i`'s value. Panics when `i >= len()`.
    fn index(&self, i: usize) -> &T {
        &self.values[self.run_index(i)]
    }
}

impl<T: RunValue> From<Vec<T>> for RunColumn<T> {
    /// Per-node values as runs; a vector without equal neighbours becomes
    /// the column's values as it is.
    fn from(values: Vec<T>) -> Self {
        // A fold without early exit, so the scan vectorizes: a column
        // without repeats, the common case here, is read to its end anyway.
        let repeats = values
            .iter()
            .zip(values.iter().skip(1))
            .fold(false, |seen, (&a, &b)| seen | T::same(a, b));
        if repeats {
            return values.into_iter().collect();
        }
        Self {
            len: values.len(),
            values,
            ends: Vec::new(),
        }
    }
}

impl<T: RunValue> FromIterator<T> for RunColumn<T> {
    /// Collect node values, merging equal neighbours into runs.
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut column = Self::default();
        for value in values {
            column.push_run(value, 1);
        }
        column
    }
}

impl<T: RunValue + PartialEq> PartialEq for RunColumn<T> {
    /// Node-by-node equality, as for a `Vec` (`==` on `f64`, not bits).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// How the nodes of a [`SoaNetwork`] route to the sink.
///
/// Star and tree routes are a rule, not an array, so a template of any
/// size stores no per-node topology: routing walks their breadth-first
/// levels as runs, except a chain's, which has one node per level and is
/// routed over a parent array built for the pass. `Parents` holds one next
/// hop per node.
#[derive(Debug, Clone, PartialEq)]
pub enum Routes {
    /// Every node transmits to the sink.
    Star,
    /// A complete tree in breadth-first order: node 0 is the sink-adjacent
    /// root and node `i > 0` forwards to `(i - 1) / fanout`. A fanout of 1
    /// is a chain ([`Routes::CHAIN`]); below 1 is treated as 1, as in
    /// [`tree_parents`].
    Tree {
        /// Children per parent.
        fanout: usize,
    },
    /// `parents[i]` is where node `i` forwards; [`SINK`] for sink-adjacent.
    /// Any acyclic route set, e.g. a mesh's static routes.
    Parents(Vec<u32>),
}

impl Routes {
    /// A chain: node 0 is sink-adjacent, node `i > 0` forwards to `i - 1`.
    pub const CHAIN: Routes = Routes::Tree { fanout: 1 };

    /// Where node `i` forwards: a node index, or [`SINK`].
    pub fn parent_of(&self, i: usize) -> u32 {
        match self {
            Routes::Star => SINK,
            Routes::Tree { .. } if i == 0 => SINK,
            Routes::Tree { fanout } => ((i - 1) / (*fanout).max(1)) as u32,
            Routes::Parents(parents) => parents[i],
        }
    }
}

/// A routed network in structure-of-arrays form (module docs).
///
/// All per-node columns have `node_count` nodes; [`SoaNetwork::validate`]
/// checks that plus the routing structure.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaNetwork {
    /// Where each node forwards.
    pub routes: Routes,
    /// Number of nodes.
    pub node_count: usize,
    /// Sensing events per second per node.
    pub event_rate: RunColumn,
    /// Packets transmitted per sensing event per node.
    pub tx_per_event: RunColumn,
    /// Exogenous packets received per second per node.
    pub rx_rate: RunColumn,
    /// Node names.
    pub names: NodeNames,
    /// Shared CPU parameters (λ is overridden per node by the event rate
    /// plus forwarding load).
    pub cpu: CpuModelParams,
    /// Shared CPU power profile.
    pub cpu_profile: PowerProfile,
    /// Shared battery.
    pub battery: Battery,
    /// Shared radio model.
    pub radio: RadioModel,
    /// Sparse per-node radio overrides, strictly ascending by node index
    /// ([`SoaNetwork::validate`] checks it).
    pub radio_overrides: Vec<(u32, RadioModel)>,
}

/// The routing structure of a [`SoaNetwork`] — run-column counterpart of
/// [`crate::RoutingTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct SoaRouting {
    /// Hops to the sink per node (sink-adjacent = 1).
    pub depths: RunColumn<u32>,
    /// Forwarded input rate per node (packets/s).
    pub forwarded: RunColumn,
    /// Subtree size per node (each node counts itself).
    pub subtree_sizes: RunColumn<u32>,
    /// `depth_counts[d]` nodes sit `d` hops from the sink; the length is
    /// the deepest hop count plus one (index 0 counts no node).
    pub(crate) depth_counts: Vec<usize>,
}

impl SoaRouting {
    /// The deepest hop count (0 for an empty network).
    pub fn max_hop_depth(&self) -> u32 {
        self.depth_counts.len().saturating_sub(1) as u32
    }
}

/// A run of one breadth-first level during level routing: `len` nodes
/// with one forwarded load, subtree size and output rate.
#[derive(Debug, Clone, Copy)]
struct LevelRun {
    len: usize,
    forwarded: f64,
    subtree: u32,
    /// Own transmit rate plus `forwarded`: what the run sends its parents.
    out: f64,
}

/// Appends a level's runs left to right, splitting them where the own
/// transmit rate changes.
struct LevelWriter<'a> {
    own_tx: &'a RunColumn,
    /// The own-rate run at node `at`, and where it ends.
    run: usize,
    end: usize,
    /// The next node to write.
    at: usize,
    /// Index of the level's first run in the shared run list.
    first: usize,
}

impl<'a> LevelWriter<'a> {
    /// A writer for the level starting at node `start < own_tx.len()`,
    /// whose runs begin at `runs[first]`.
    fn new(own_tx: &'a RunColumn, start: usize, first: usize) -> Self {
        let run = own_tx.run_index(start);
        Self {
            own_tx,
            run,
            end: own_tx.run_end(run),
            at: start,
            first,
        }
    }

    /// Append `len` nodes with this forwarded load and subtree size,
    /// merging into the level's last run where all three values match.
    fn push(&mut self, runs: &mut Vec<LevelRun>, mut len: usize, forwarded: f64, subtree: u32) {
        while len > 0 {
            if self.at == self.end {
                self.run += 1;
                self.end = self.own_tx.run_end(self.run);
            }
            let take = len.min(self.end - self.at);
            let out = self.own_tx.values[self.run] + forwarded;
            let in_level = runs.len() > self.first;
            match runs.last_mut() {
                Some(last)
                    if in_level
                        && f64::same(last.out, out)
                        && f64::same(last.forwarded, forwarded)
                        && last.subtree == subtree =>
                {
                    last.len += take
                }
                _ => runs.push(LevelRun {
                    len: take,
                    forwarded,
                    subtree,
                    out,
                }),
            }
            self.at += take;
            len -= take;
        }
    }
}

impl SoaNetwork {
    /// A homogeneous network of `node_count` nodes: every node has the same
    /// workload, one run per column, with generated names.
    #[allow(clippy::too_many_arguments)]
    pub fn homogeneous(
        routes: Routes,
        node_count: usize,
        prefix: impl Into<String>,
        event_rate: f64,
        tx_per_event: f64,
        rx_rate: f64,
        cpu: CpuModelParams,
        cpu_profile: PowerProfile,
        radio: RadioModel,
        battery: Battery,
    ) -> Self {
        let n = node_count;
        Self {
            routes,
            node_count,
            event_rate: RunColumn::repeat(event_rate, n),
            tx_per_event: RunColumn::repeat(tx_per_event, n),
            rx_rate: RunColumn::repeat(rx_rate, n),
            names: NodeNames::Generated {
                prefix: prefix.into(),
            },
            cpu,
            cpu_profile,
            battery,
            radio,
            radio_overrides: Vec::new(),
        }
    }

    /// Convert a per-node [`Network`] (the reference oracle), so tests can
    /// run both evaluators on one net. Fails when the nodes disagree on CPU
    /// parameters, power profile or battery — those are shared here. Radio
    /// differences become sparse overrides against node 0's radio.
    pub fn from_network(net: &Network) -> Result<Self, String> {
        let first = net
            .nodes
            .first()
            .ok_or_else(|| "cannot convert an empty network".to_owned())?;
        if net.next_hop.len() != net.nodes.len() {
            return Err(format!(
                "routing table has {} entries for {} nodes",
                net.next_hop.len(),
                net.nodes.len()
            ));
        }
        let mut radio_overrides = Vec::new();
        for (i, node) in net.nodes.iter().enumerate() {
            if node.cpu != first.cpu {
                return Err(format!(
                    "node `{}` has different CPU parameters (SoA networks share them)",
                    node.name
                ));
            }
            if node.cpu_profile != first.cpu_profile {
                return Err(format!(
                    "node `{}` has a different power profile (SoA networks share it)",
                    node.name
                ));
            }
            if node.battery != first.battery {
                return Err(format!(
                    "node `{}` has a different battery (SoA networks share it)",
                    node.name
                ));
            }
            if node.radio != first.radio {
                radio_overrides.push((i as u32, node.radio));
            }
        }
        let parents = net
            .next_hop
            .iter()
            .map(|hop| match *hop {
                NextHop::Sink => SINK,
                NextHop::Node(j) => j as u32,
            })
            .collect();
        Ok(Self {
            routes: Routes::Parents(parents),
            node_count: net.nodes.len(),
            event_rate: net.nodes.iter().map(|nd| nd.event_rate).collect(),
            tx_per_event: net.nodes.iter().map(|nd| nd.tx_per_event).collect(),
            rx_rate: net.nodes.iter().map(|nd| nd.rx_rate).collect(),
            names: NodeNames::intern(net.nodes.iter().map(|nd| nd.name.as_str())),
            cpu: first.cpu,
            cpu_profile: first.cpu_profile.clone(),
            battery: first.battery,
            radio: first.radio,
            radio_overrides,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// True for the empty network.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Node `i`'s name.
    pub fn name(&self, i: usize) -> String {
        self.names.name(i)
    }

    /// Node `i`'s radio (override or shared).
    pub fn radio_for(&self, i: usize) -> RadioModel {
        match self
            .radio_overrides
            .binary_search_by_key(&(i as u32), |&(j, _)| j)
        {
            Ok(pos) => self.radio_overrides[pos].1,
            Err(_) => self.radio,
        }
    }

    /// Packets per second node `i` originates itself.
    pub fn own_tx_rate(&self, i: usize) -> f64 {
        self.event_rate[i] * self.tx_per_event[i]
    }

    /// Every node's own transmit rate, computed once per run of the event
    /// rate and packets-per-event columns.
    fn own_tx_rates(&self) -> RunColumn {
        let mut column = RunColumn::default();
        let (mut rates, mut txs) = (self.event_rate.runs(), self.tx_per_event.runs());
        let (mut rate, mut tx) = (rates.next(), txs.next());
        while let (Some((r, r_len)), Some((t, t_len))) = (rate, tx) {
            let len = r_len.min(t_len);
            column.push_run(r * t, len);
            rate = (r_len > len)
                .then_some((r, r_len - len))
                .or_else(|| rates.next());
            tx = (t_len > len)
                .then_some((t, t_len - len))
                .or_else(|| txs.next());
        }
        column
    }

    /// Total packet rate entering the sink — by conservation, the sum of
    /// every node's own transmit rate, in node order. It is summed over the
    /// runs of own rates ([`RunColumn::sum`]), bit for bit the node-order
    /// sum, so a template costs O(runs · log n), not O(n).
    pub fn sink_arrival_pkts_s(&self) -> f64 {
        self.own_tx_rates().sum()
    }

    /// Validate array lengths, the radio overrides (in range, strictly
    /// ascending by index) and the routing structure (parents in range, no
    /// self-loops, every node reaches the sink), and return the routing
    /// computed on the way.
    pub fn validate(&self) -> Result<SoaRouting, String> {
        self.check_columns()?;
        if let Routes::Parents(parents) = &self.routes {
            let n = self.len();
            for (i, &p) in parents.iter().enumerate() {
                if p == SINK {
                    continue;
                }
                if p as usize >= n {
                    return Err(format!(
                        "node `{}` forwards to index {p}, but there are only {n} nodes",
                        self.name(i)
                    ));
                }
                if p as usize == i {
                    return Err(format!("node `{}` forwards to itself", self.name(i)));
                }
            }
        }
        self.route()
    }

    /// Check that the node count fits `u32` indices, that every per-node
    /// column, a parent array and the name table match it, and that the
    /// radio overrides are in range and strictly ascending by index.
    /// [`SoaNetwork::routing`] runs this too, so a hand-built net with a
    /// short column or unsorted overrides errors instead of panicking or
    /// applying the wrong radios.
    fn check_columns(&self) -> Result<(), String> {
        let n = self.len();
        // Depths and subtree sizes are `u32`, and the parent walk keeps
        // `u32::MAX` as its on-path sentinel.
        if n >= u32::MAX as usize {
            return Err(format!(
                "{n} nodes, but `u32` node indices allow at most {}",
                u32::MAX - 1
            ));
        }
        if let Routes::Parents(parents) = &self.routes {
            if parents.len() != n {
                return Err(format!(
                    "parent array has {} entries for {n} nodes",
                    parents.len()
                ));
            }
        }
        for (what, len) in [
            ("event_rate", self.event_rate.len()),
            ("tx_per_event", self.tx_per_event.len()),
            ("rx_rate", self.rx_rate.len()),
        ] {
            if len != n {
                return Err(format!("{what} has {len} entries for {n} nodes"));
            }
        }
        if let NodeNames::Interned { offsets, .. } = &self.names {
            if offsets.len() != n + 1 {
                return Err(format!(
                    "name table has {} offsets for {n} nodes",
                    offsets.len()
                ));
            }
        }
        // `radio_for` binary-searches the overrides, so anything but a
        // strictly ascending list of in-range indices applies wrong radios.
        let mut prev = None;
        for &(j, _) in &self.radio_overrides {
            if j as usize >= n {
                return Err(format!(
                    "radio override for node index {j}, but there are only {n} nodes"
                ));
            }
            match prev {
                Some(p) if p == j => {
                    return Err(format!("duplicate radio override for node index {j}"))
                }
                Some(p) if p > j => {
                    return Err(format!(
                        "radio override for node index {j} follows index {p} \
                         (overrides must be sorted by node index)"
                    ))
                }
                _ => prev = Some(j),
            }
        }
        Ok(())
    }

    /// Hops to the sink per node (sink-adjacent = 1), after the column
    /// checks of [`SoaNetwork::validate`]; a parent array that loops fails
    /// with the same node-naming error as the oracle.
    pub fn hop_depths(&self) -> Result<Vec<u32>, String> {
        self.check_columns()?;
        match &self.routes {
            Routes::Parents(parents) => self.parent_depths(parents),
            _ => Ok(self.route()?.depths.iter().collect()),
        }
    }

    /// Hops to the sink over a parent array of `len()` entries. Linear
    /// time: each walk stops at the first already-resolved node, and the
    /// nodes of the current walk hold an on-path sentinel in `depths` until
    /// the walk resolves, so reaching one again is a cycle. No depth
    /// reaches the sentinel (`u32::MAX`): a depth counts distinct nodes,
    /// and [`SoaNetwork::check_columns`] rejects a net of that many.
    fn parent_depths(&self, parents: &[u32]) -> Result<Vec<u32>, String> {
        const UNRESOLVED: u32 = 0;
        const ON_PATH: u32 = u32::MAX;
        let n = parents.len();
        let mut depths = vec![UNRESOLVED; n];
        let mut path = Vec::new();
        for start in 0..n {
            if depths[start] != UNRESOLVED {
                continue;
            }
            path.clear();
            let mut cur = start;
            let base = loop {
                path.push(cur);
                depths[cur] = ON_PATH;
                match parents[cur] {
                    SINK => break 0,
                    j => {
                        let j = j as usize;
                        if j >= n {
                            return Err(format!(
                                "node `{}` forwards to index {j}, but there are only {n} nodes",
                                self.name(cur)
                            ));
                        }
                        match depths[j] {
                            UNRESOLVED => cur = j,
                            ON_PATH => {
                                return Err(format!(
                                    "node `{}` cannot reach the sink (routing cycle)",
                                    self.name(start)
                                ))
                            }
                            depth => break depth,
                        }
                    }
                }
            };
            for (back, &node) in path.iter().rev().enumerate() {
                depths[node] = base + 1 + back as u32;
            }
        }
        Ok(depths)
    }

    /// Depths, forwarded rates and subtree sizes, after the column checks
    /// of [`SoaNetwork::validate`]. Every parent's forwarded load is the
    /// sum of its children's output rates from `+0.0` in ascending child
    /// index, which is the oracle's deepest-first, ascending-index order,
    /// so the sums are bit-identical to [`Network::routing`]. Stars and
    /// trees are routed level by level over runs; chains and parent arrays
    /// node by node (module docs).
    pub fn routing(&self) -> Result<SoaRouting, String> {
        self.check_columns()?;
        self.route()
    }

    /// [`SoaNetwork::routing`] without the column checks.
    fn route(&self) -> Result<SoaRouting, String> {
        match &self.routes {
            Routes::Star => Ok(self.route_levels(None)),
            Routes::Tree { fanout } if *fanout <= 1 => {
                self.route_parents(&chain_parents(self.len()))
            }
            Routes::Tree { fanout } => Ok(self.route_levels(Some(*fanout))),
            Routes::Parents(parents) => self.route_parents(parents),
        }
    }

    /// Routing over a parent array in one deepest-first sink-ward pass.
    /// The processing order — deepest first, ascending index within a depth
    /// — is produced by a stable counting sort and is exactly the order of
    /// the oracle's stable `sort_by`. The sort's per-depth counts are kept
    /// for the hop-depth accessors of [`SoaAnalysis`].
    fn route_parents(&self, parents: &[u32]) -> Result<SoaRouting, String> {
        let depths = self.parent_depths(parents)?;
        let n = self.len();
        // Stable counting sort, deepest first.
        let mut depth_counts = vec![0usize];
        for &d in &depths {
            let d = d as usize;
            if d >= depth_counts.len() {
                depth_counts.resize(d + 1, 0);
            }
            depth_counts[d] += 1;
        }
        let mut starts = vec![0usize; depth_counts.len()];
        let mut acc = 0usize;
        for (start, &count) in starts.iter_mut().zip(&depth_counts).rev() {
            *start = acc;
            acc += count;
        }
        let mut order = vec![0u32; n];
        for (i, &d) in depths.iter().enumerate() {
            let slot = &mut starts[d as usize];
            order[*slot] = i as u32;
            *slot += 1;
        }
        let mut forwarded = vec![0.0f64; n];
        let mut subtree_sizes = vec![1u32; n];
        let own_tx = self.own_tx_rates();
        for &i in &order {
            let i = i as usize;
            let out = own_tx[i] + forwarded[i];
            let p = parents[i];
            if p != SINK {
                forwarded[p as usize] += out;
                subtree_sizes[p as usize] += subtree_sizes[i];
            }
        }
        Ok(SoaRouting {
            depths: depths.into(),
            forwarded: forwarded.into(),
            subtree_sizes: subtree_sizes.into(),
            depth_counts,
        })
    }

    /// Routing of a star (`fanout` `None`) or a tree of `fanout >= 2`, one
    /// breadth-first level at a time, deepest first, over runs. Level
    /// `d + 1` is the index range `bounds[d]..bounds[d + 1]`, and node
    /// `i`'s children are `fanout·i + 1 ..= fanout·i + fanout`, so a level's
    /// parents read the runs of the level below. Parents whose whole child
    /// window lies in one child run share one forwarded load, folded once;
    /// only a window that straddles a run boundary, or is cut short by the
    /// last node, is folded child by child. Work is O(levels + runs) plus
    /// one fold per distinct window.
    fn route_levels(&self, fanout: Option<usize>) -> SoaRouting {
        let n = self.len();
        let mut bounds = vec![0];
        let mut end = if fanout.is_some() { n.min(1) } else { n };
        while end > bounds[bounds.len() - 1] {
            bounds.push(end);
            end = match fanout {
                Some(f) => end.saturating_mul(f).saturating_add(1).min(n),
                None => n,
            };
        }
        let levels = bounds.len() - 1;
        // Nodes below `parents_end` have children.
        let parents_end = match fanout {
            Some(f) if n > 0 => (n - 1).div_ceil(f),
            _ => 0,
        };
        let own_tx = self.own_tx_rates();
        // Level runs, deepest level first; level `d`'s begin at `first[d]`.
        let mut runs: Vec<LevelRun> = Vec::new();
        let mut first = vec![0; levels];
        for d in (0..levels).rev() {
            let (a, b) = (bounds[d], bounds[d + 1]);
            first[d] = runs.len();
            let mut writer = LevelWriter::new(&own_tx, a, runs.len());
            let with_children = parents_end.clamp(a, b);
            if let (Some(f), true) = (fanout, with_children > a) {
                // The child run holding the window's first child, and where
                // it ends.
                let mut c = first[d + 1];
                let mut c_end = b + runs[c].len;
                let mut i = a;
                while i < with_children {
                    let w0 = f * i + 1;
                    let w1 = w0.saturating_add(f).min(n);
                    while c_end <= w0 {
                        c += 1;
                        c_end += runs[c].len;
                    }
                    let (count, forwarded, subtree) = if w1 <= c_end {
                        let LevelRun { out, subtree, .. } = runs[c];
                        let width = w1 - w0;
                        // Every later parent whose full window ends inside
                        // this run shares the result.
                        let count = if width == f {
                            ((c_end - 1) / f).min(with_children) - i
                        } else {
                            1
                        };
                        let forwarded = (0..width).fold(0.0, |acc, _| acc + out);
                        (count, forwarded, 1 + width as u32 * subtree)
                    } else {
                        let (mut forwarded, mut subtree) = (0.0, 1);
                        let (mut k, mut k_end) = (c, c_end);
                        for child in w0..w1 {
                            while k_end <= child {
                                k += 1;
                                k_end += runs[k].len;
                            }
                            forwarded += runs[k].out;
                            subtree += runs[k].subtree;
                        }
                        (1, forwarded, subtree)
                    };
                    writer.push(&mut runs, count, forwarded, subtree);
                    i += count;
                }
            }
            writer.push(&mut runs, b - with_children, 0.0, 1);
        }
        let mut routing = SoaRouting {
            depths: RunColumn::default(),
            forwarded: RunColumn::default(),
            subtree_sizes: RunColumn::default(),
            depth_counts: vec![0],
        };
        for d in 0..levels {
            let len = bounds[d + 1] - bounds[d];
            routing.depths.push_run(d as u32 + 1, len);
            routing.depth_counts.push(len);
            let end = if d == 0 { runs.len() } else { first[d - 1] };
            for run in &runs[first[d]..end] {
                routing.forwarded.push_run(run.forwarded, run.len);
                routing.subtree_sizes.push_run(run.subtree, run.len);
            }
        }
        routing
    }

    /// Analyze every node with forwarding loads applied — the flat-array
    /// counterpart of the oracle's [`Network::analyze_with_threads`],
    /// evaluating the identical per-node recipe (CPU λ = event rate +
    /// forwarded load, CPU power from the profile, radio power from tx/rx
    /// rates, lifetime from the battery) without building per-node result
    /// structs.
    ///
    /// The recipe runs once per maximal run of consecutive nodes whose
    /// inputs are bitwise equal ([`CpuSolver::solve`] is a pure function of
    /// its inputs): the run's power, lifetime and utilization enter their
    /// columns once for all its nodes, and its CPU split is kept once in
    /// [`SoaAnalysis::runs`]. A failing run
    /// reports its first node, which is the lowest-index failing node.
    ///
    /// [`CpuSolver::solve`]: wsnem_core::CpuSolver::solve
    pub fn analyze_with(
        &self,
        registry: &BackendRegistry,
        backend: BackendId,
        opts: &EvalOptions,
        threads: Option<usize>,
    ) -> Result<SoaAnalysis, NetworkError> {
        let SoaRouting {
            depths,
            forwarded,
            subtree_sizes,
            depth_counts,
        } = self.routing().map_err(NetworkError::Routing)?;
        // Before the output columns exist, so its scratch column adds no peak.
        let sink_arrival_pkts_s = self.sink_arrival_pkts_s();
        let n = self.len();
        let run_starts = self.run_starts(&forwarded);
        let results = par::map_indexed(run_starts.len(), threads, |r| {
            let i = run_starts[r];
            let params = self.cpu.with_forwarding(self.event_rate[i], forwarded[i]);
            // The rare error is boxed to keep each run's result small.
            let eval = registry.solve(backend, &params, opts).map_err(Box::new)?;
            Ok::<SoaRun, Box<wsnem_core::CoreError>>(SoaRun {
                start: i,
                cpu_fractions: eval.fractions,
                cpu_power_mw: self.cpu_profile.mean_power_mw(&eval.fractions),
                radio_power_mw: self.radio_for(i).mean_power_mw(
                    self.own_tx_rate(i) + forwarded[i],
                    self.rx_rate[i] + forwarded[i],
                ),
            })
        });
        // Moved out of `results` in place: the runs are never held twice.
        let runs = results
            .into_iter()
            .enumerate()
            .map(|(r, result)| {
                result.map_err(|e| NetworkError::Node {
                    node: self.name(run_starts[r]),
                    source: *e,
                })
            })
            .collect::<Result<Vec<SoaRun>, _>>()?;
        let mean_service = opts.service.to_dist(self.cpu.mu).mean();
        // Each output column holds at most one value per run.
        let column = || RunColumn {
            values: Vec::with_capacity(runs.len()),
            ..RunColumn::default()
        };
        let (mut total_power_mw, mut lifetime_days, mut rho) = (column(), column(), column());
        for (r, run) in runs.iter().enumerate() {
            let (i, total) = (run.start, run.cpu_power_mw + run.radio_power_mw);
            let len = run_starts.get(r + 1).copied().unwrap_or(n) - i;
            total_power_mw.push_run(total, len);
            lifetime_days.push_run(self.battery.lifetime_days(total), len);
            // The event rate and the forwarded load are bitwise equal on a
            // run, so its utilization is too.
            let run_rho = (self.event_rate[i] + forwarded[i]) * mean_service;
            rho.push_run(run_rho, len);
        }
        Ok(SoaAnalysis {
            depths,
            forwarded,
            subtree_sizes,
            total_power_mw,
            lifetime_days,
            rho,
            sink_arrival_pkts_s,
            runs,
            depth_counts,
        })
    }

    /// Starts of the maximal runs of consecutive nodes with bitwise-equal
    /// evaluation inputs — forwarded load, event rate, packets per event,
    /// rx rate and radio — and so bit-identical results. The run columns
    /// are maximal, so their run boundaries are exactly the nodes where a
    /// workload input changes; these are merged with the nodes where the
    /// radio's bits change, for O(runs + overrides) work.
    fn run_starts(&self, forwarded: &RunColumn) -> Vec<usize> {
        let n = self.len();
        if n == 0 {
            return Vec::new();
        }
        let columns = [
            forwarded,
            &self.event_rate,
            &self.tx_per_event,
            &self.rx_rate,
        ];
        // Per column: the run at the current node, and where it ends.
        let mut cursors = columns.map(|column| (0, column.run_end(0)));
        let radio_bounds = self.radio_bounds();
        // Every start is a run boundary of a column or a radio change.
        let bound: usize = columns.iter().map(|c| c.run_count()).sum();
        let mut starts = Vec::with_capacity((bound + radio_bounds.len()).min(n));
        starts.push(0);
        let mut radio_bounds = radio_bounds.into_iter().peekable();
        loop {
            let column_next = cursors.iter().map(|&(_, end)| end).min().unwrap_or(n);
            let next = radio_bounds
                .peek()
                .map_or(column_next, |&b| b.min(column_next));
            if next >= n {
                return starts;
            }
            starts.push(next);
            radio_bounds.next_if_eq(&next);
            for (column, (run, end)) in columns.iter().zip(&mut cursors) {
                if *end == next {
                    *run += 1;
                    *end = column.run_end(*run);
                }
            }
        }
    }

    /// Ascending nodes `i > 0` whose radio's bits differ from node
    /// `i - 1`'s. Only an override or the node after one can differ, so
    /// this walks the overrides; an override equal to its neighbour's
    /// radio, shared or overridden, splits nothing.
    fn radio_bounds(&self) -> Vec<usize> {
        let shared = radio_bits(self.radio);
        let mut bounds = Vec::new();
        // The last node walked, and its radio's bits.
        let (mut at, mut bits) = (0, shared);
        for &(j, radio) in &self.radio_overrides {
            let j = j as usize;
            // Nodes `at + 1 .. j` run the shared radio.
            if j > at + 1 && bits != shared {
                bounds.push(at + 1);
                bits = shared;
            }
            let radio_bits = radio_bits(radio);
            if j > 0 && radio_bits != bits {
                bounds.push(j);
            }
            (at, bits) = (j, radio_bits);
        }
        if at + 1 < self.len() && bits != shared {
            bounds.push(at + 1);
        }
        bounds
    }
}

/// The bits of every field of a radio model.
fn radio_bits(radio: RadioModel) -> [u64; 7] {
    let RadioModel {
        sleep_mw,
        listen_mw,
        tx_mw,
        period_s,
        listen_s,
        tx_airtime_s,
        rx_airtime_s,
    } = radio;
    [
        sleep_mw,
        listen_mw,
        tx_mw,
        period_s,
        listen_s,
        tx_airtime_s,
        rx_airtime_s,
    ]
    .map(f64::to_bits)
}

/// Star parents over `n` nodes: everyone transmits to the sink.
pub fn star_parents(n: usize) -> Vec<u32> {
    vec![SINK; n]
}

/// Chain parents: node 0 is sink-adjacent, node `i > 0` forwards to `i - 1`.
pub fn chain_parents(n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| if i == 0 { SINK } else { i as u32 - 1 })
        .collect()
}

/// Complete `fanout`-ary tree parents in breadth-first order: node 0 is the
/// sink-adjacent root, node `i > 0` forwards to `(i - 1) / fanout`.
/// `fanout < 1` is treated as 1 (a chain).
pub fn tree_parents(n: usize, fanout: usize) -> Vec<u32> {
    let fanout = fanout.max(1);
    (0..n)
        .map(|i| {
            if i == 0 {
                SINK
            } else {
                ((i - 1) / fanout) as u32
            }
        })
        .collect()
}

/// One bin of an equal-width lifetime histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistBin {
    /// Inclusive lower edge (days).
    pub lo: f64,
    /// Exclusive upper edge (days); the global maximum lands in the last
    /// bin.
    pub hi: f64,
    /// Nodes in `[lo, hi)`.
    pub count: u64,
}

/// One run of identical nodes, evaluated once: the CPU split and the power
/// every node in the run shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoaRun {
    /// Index of the run's first node.
    pub start: usize,
    /// CPU steady-state occupancy.
    pub cpu_fractions: StateFractions,
    /// Mean CPU power (mW).
    pub cpu_power_mw: f64,
    /// Mean radio power (mW).
    pub radio_power_mw: f64,
}

/// Per-node analysis results plus the aggregate accessors large-net
/// reports are built from.
///
/// The columns are public, and the aggregates rely on one invariant that
/// [`SoaNetwork::analyze_with`] establishes: `runs` partitions `0..len()`
/// into consecutive ranges (run `r` covers `runs[r].start` up to the next
/// run's start), and `forwarded`, `total_power_mw`, `lifetime_days` and
/// `rho` are bitwise constant on each range. Every column is a
/// [`RunColumn`]; the last three hold one value per range, or fewer where
/// neighbouring ranges share one. Each aggregate except the mean lifetime
/// and the total power reads one node per run. The hop-depth accessors
/// read the per-depth counts of the routing pass, not `depths`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaAnalysis {
    /// Hops to the sink per node (sink-adjacent = 1).
    pub depths: RunColumn<u32>,
    /// Forwarded input rate per node (packets/s).
    pub forwarded: RunColumn,
    /// Subtree size per node (each node counts itself).
    pub subtree_sizes: RunColumn<u32>,
    /// Total mean power per node (mW).
    pub total_power_mw: RunColumn,
    /// Expected battery lifetime per node (days).
    pub lifetime_days: RunColumn,
    /// Effective CPU utilization per node: `(event rate + forwarded) ·
    /// E[S]` under the evaluated service distribution.
    pub rho: RunColumn,
    /// Total packet rate entering the sink (packets/s).
    pub sink_arrival_pkts_s: f64,
    /// The runs of identical nodes, ascending by start; the first starts at
    /// node 0.
    pub runs: Vec<SoaRun>,
    /// `depth_counts[d]` nodes sit `d` hops from the sink
    /// (as in [`SoaRouting`]).
    pub(crate) depth_counts: Vec<usize>,
}

/// Heap entry for the worst-lifetime cohort selection (max-heap over the
/// kept k, ordered by lifetime then index).
struct CohortEntry {
    lifetime: f64,
    index: usize,
}

impl PartialEq for CohortEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for CohortEntry {}
impl PartialOrd for CohortEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CohortEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lifetime
            .total_cmp(&other.lifetime)
            .then(self.index.cmp(&other.index))
    }
}

impl SoaAnalysis {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.lifetime_days.len()
    }

    /// True for the empty network.
    pub fn is_empty(&self) -> bool {
        self.lifetime_days.is_empty()
    }

    /// The run node `i` belongs to.
    pub fn run_for(&self, i: usize) -> &SoaRun {
        &self.runs[self.runs.partition_point(|run| run.start <= i) - 1]
    }

    /// Each run as its first node and its node count.
    fn run_spans(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs.iter().enumerate().map(|(r, run)| {
            let end = self.runs.get(r + 1).map_or(self.len(), |next| next.start);
            (run.start, end - run.start)
        })
    }

    /// Lifetime until the first node dies (days).
    pub fn first_death_days(&self) -> f64 {
        self.runs
            .iter()
            .map(|run| self.lifetime_days[run.start])
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean node lifetime (days). The sum is bit for bit the node-order
    /// sum, so the result does not depend on how the nodes group into runs,
    /// but it costs O(log n) per run ([`RunColumn::sum`]).
    pub fn mean_lifetime_days(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lifetime_days.sum() / self.len() as f64
    }

    /// Total network power (mW), the node-order sum read per run like the
    /// mean.
    pub fn total_power_mw(&self) -> f64 {
        self.total_power_mw.sum()
    }

    /// The deepest hop count (0 for an empty network).
    pub fn max_hop_depth(&self) -> u32 {
        self.depth_counts.len().saturating_sub(1) as u32
    }

    /// Index of the shortest-lived node (ties: lowest index, like the
    /// oracle's `min_by`).
    pub fn bottleneck(&self) -> Option<usize> {
        self.first_shortest_lived(|_| true)
    }

    /// Index of the shortest-lived *forwarding* node (`None` when nothing
    /// forwards, e.g. a star) — same ranking as
    /// [`crate::RoutedAnalysis::bottleneck_relay`].
    pub fn bottleneck_relay(&self) -> Option<usize> {
        self.first_shortest_lived(|i| self.forwarded[i] > 0.0)
    }

    /// The first node of the first shortest-lived run whose first node
    /// passes `keep`: the lowest-index shortest-lived node that passes it,
    /// since lifetime and forwarded load are constant on a run.
    fn first_shortest_lived(&self, keep: impl Fn(usize) -> bool) -> Option<usize> {
        self.runs
            .iter()
            .map(|run| run.start)
            .filter(|&i| keep(i))
            .min_by(|&a, &b| self.lifetime_days[a].total_cmp(&self.lifetime_days[b]))
    }

    /// The `k` shortest-lived nodes, ordered by (lifetime, index) ascending
    /// — selected with a bounded heap over at most the first `k` nodes of
    /// each run.
    pub fn worst_lifetime_cohort(&self, k: usize) -> Vec<usize> {
        if k == 0 {
            return Vec::new();
        }
        let mut heap = std::collections::BinaryHeap::<CohortEntry>::with_capacity(k + 1);
        for (start, len) in self.run_spans() {
            let lifetime = self.lifetime_days[start];
            // Nodes arrive in index order, so a node that ties the kept
            // maximum's lifetime ranks after it and stays out; so do the
            // rest of its run.
            for index in start..start + len.min(k) {
                if heap.len() == k {
                    match heap.peek() {
                        Some(max) if lifetime.total_cmp(&max.lifetime).is_lt() => {}
                        _ => break,
                    }
                    heap.pop();
                }
                heap.push(CohortEntry { lifetime, index });
            }
        }
        let mut cohort: Vec<CohortEntry> = heap.into_vec();
        cohort.sort_unstable();
        cohort.into_iter().map(|e| e.index).collect()
    }

    /// Count of nodes whose utilization is at or above `rho_threshold` —
    /// the cohort worth re-checking with a simulation backend.
    pub fn near_unstable_count(&self, rho_threshold: f64) -> usize {
        self.run_spans()
            .filter(|&(start, _)| self.rho[start] >= rho_threshold)
            .map(|(_, len)| len)
            .sum()
    }

    /// Hop-depth value at each requested percentile (nearest-rank over the
    /// depth counts: the depth of the node at 1-based rank `ceil(p/100 ·
    /// n)` in depth-sorted order).
    pub fn hop_depth_percentiles(&self, percentiles: &[f64]) -> Vec<(f64, u32)> {
        let n = self.len();
        if n == 0 {
            return percentiles.iter().map(|&p| (p, 0)).collect();
        }
        percentiles
            .iter()
            .map(|&p| {
                let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
                let mut acc = 0u64;
                let value = self
                    .depth_counts
                    .iter()
                    .position(|&c| {
                        acc += c as u64;
                        acc >= rank
                    })
                    .map_or(self.max_hop_depth(), |d| d as u32);
                (p, value)
            })
            .collect()
    }

    /// Equal-width lifetime histogram over `[min, max]` (the maximum is
    /// counted in the last bin). A single distinct value yields one full
    /// bin.
    pub fn lifetime_histogram(&self, bins: usize) -> Vec<HistBin> {
        if bins == 0 || self.is_empty() {
            return Vec::new();
        }
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for run in &self.runs {
            let x = self.lifetime_days[run.start];
            min = min.min(x);
            max = max.max(x);
        }
        let width = if max > min {
            (max - min) / bins as f64
        } else {
            1.0
        };
        let mut counts = vec![0u64; bins];
        for (start, len) in self.run_spans() {
            let idx = (((self.lifetime_days[start] - min) / width) as usize).min(bins - 1);
            counts[idx] += len as u64;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, count)| HistBin {
                lo: min + i as f64 * width,
                hi: min + (i + 1) as f64 * width,
                count,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};

    fn small_soa(n: usize, fanout: usize, period_s: f64) -> SoaNetwork {
        let node = NodeConfig::monitoring("n", period_s);
        SoaNetwork::homogeneous(
            Routes::Tree { fanout },
            n,
            "n",
            node.event_rate,
            node.tx_per_event,
            node.rx_rate,
            node.cpu,
            node.cpu_profile,
            node.radio,
            node.battery,
        )
    }

    /// The column's values and run ends, for asserting its layout.
    fn layout(column: &RunColumn) -> (Vec<u64>, &[usize]) {
        let values = column.values.iter().map(|x| x.to_bits()).collect();
        (values, &column.ends)
    }

    #[test]
    fn run_column_keeps_bit_distinct_neighbours_apart() {
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        let column: RunColumn = [0.0, 0.0, -0.0, nan_a, nan_a, nan_b, 1.0]
            .into_iter()
            .collect();
        assert_eq!(column.len(), 7);
        assert_eq!(column.run_count(), 5);
        let bits = [0.0, -0.0, nan_a, nan_b, 1.0].map(f64::to_bits).to_vec();
        assert_eq!(layout(&column), (bits, &[2, 3, 5, 6, 7][..]));
        assert_eq!(column[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(column[4].to_bits(), nan_a.to_bits());
        assert_eq!(column[5].to_bits(), nan_b.to_bits());
    }

    #[test]
    fn run_column_indexes_the_first_and_last_node_of_every_run() {
        let mut column = RunColumn::default();
        let runs = [(1.5, 3usize), (2.5, 1), (-4.0, 5), (0.25, 1), (8.0, 2)];
        for (value, len) in runs {
            column.push_run(value, len);
        }
        column.push_run(9.0, 0);
        assert_eq!(column.len(), 12);
        assert_eq!(column.run_count(), runs.len());
        assert_eq!(column.runs().collect::<Vec<_>>(), runs.to_vec());
        let mut start = 0;
        for (value, len) in runs {
            assert_eq!(column[start], value, "first node of the run at {start}");
            assert_eq!(
                column[start + len - 1],
                value,
                "last node of the run at {start}"
            );
            start += len;
        }
        // A push that repeats the last value extends its run.
        column.push_run(8.0, 4);
        assert_eq!(column.run_count(), runs.len());
        assert_eq!(column[15], 8.0);
        assert_eq!(
            RunColumn::repeat(3.0, 10).runs().collect::<Vec<_>>(),
            [(3.0, 10)]
        );
        assert!(RunColumn::repeat(3.0, 0).is_empty());
    }

    #[test]
    #[should_panic]
    fn run_column_panics_past_its_last_node() {
        let column = RunColumn::repeat(1.0, 4);
        let _ = column[4];
    }

    #[test]
    #[should_panic]
    fn one_node_run_column_panics_past_its_last_node() {
        let column: RunColumn = [1.0, 2.0].into_iter().collect();
        let _ = column[2];
    }

    #[test]
    fn run_column_iter_expands_runs_in_node_order() {
        let values = [5.0, 5.0, 1.0, 2.0, 2.0, 2.0, 5.0, 0.0];
        let column: RunColumn = values.into_iter().collect();
        assert_eq!(column.iter().collect::<Vec<_>>(), values.to_vec());
        assert_eq!(column.run_count(), 5);
        let equal: RunColumn = values.into_iter().collect();
        assert_eq!(column, equal);
        assert_ne!(column, RunColumn::repeat(5.0, 8));
        assert_eq!(RunColumn::<f64>::default().iter().count(), 0);
    }

    #[test]
    fn one_node_runs_index_without_a_search() {
        // No run ends are kept, so `[i]` reads `values[i]` directly.
        let column: RunColumn = (0..1000).map(f64::from).collect();
        assert_eq!(column.run_count(), 1000);
        assert!(layout(&column).1.is_empty());
        for i in [0, 1, 499, 999] {
            assert_eq!(column[i], i as f64);
        }
        // The first repeat adds the run ends, earlier runs one node each.
        let mut column: RunColumn = [1.0, 2.0, 3.0].into_iter().collect();
        column.push_run(3.0, 1);
        assert_eq!(layout(&column).1, &[1, 2, 4]);
        assert_eq!(column.iter().collect::<Vec<_>>(), vec![1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn own_tx_rates_split_runs_where_either_column_changes() {
        let mut soa = small_soa(9, 2, 10.0);
        soa.event_rate = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
            .into_iter()
            .collect();
        soa.tx_per_event = [4.0, 4.0, 5.0, 5.0, 5.0, 5.0, 5.0, 6.0, 6.0]
            .into_iter()
            .collect();
        let own = soa.own_tx_rates();
        assert_eq!(own.run_count(), 5);
        let per_node: Vec<f64> = (0..soa.len()).map(|i| soa.own_tx_rate(i)).collect();
        assert_eq!(own.iter().collect::<Vec<_>>(), per_node);
        assert_eq!(
            soa.sink_arrival_pkts_s().to_bits(),
            per_node.iter().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn parent_helpers_match_oracle_next_hops() {
        use crate::topology::{chain_next_hops, star_next_hops, tree_next_hops};
        for n in [0, 1, 2, 7, 30] {
            assert_eq!(
                star_parents(n),
                star_next_hops(n)
                    .iter()
                    .map(|h| match h {
                        NextHop::Sink => SINK,
                        NextHop::Node(j) => *j as u32,
                    })
                    .collect::<Vec<_>>()
            );
            for fanout in [0, 1, 2, 3] {
                assert_eq!(
                    tree_parents(n, fanout),
                    tree_next_hops(n, fanout)
                        .iter()
                        .map(|h| match h {
                            NextHop::Sink => SINK,
                            NextHop::Node(j) => *j as u32,
                        })
                        .collect::<Vec<_>>(),
                    "n={n} fanout={fanout}"
                );
            }
            assert_eq!(
                chain_parents(n),
                chain_next_hops(n)
                    .iter()
                    .map(|h| match h {
                        NextHop::Sink => SINK,
                        NextHop::Node(j) => *j as u32,
                    })
                    .collect::<Vec<_>>()
            );
        }
        assert_eq!(chain_parents(3), vec![SINK, 0, 1]);
    }

    #[test]
    fn routing_matches_small_tree() {
        let soa = small_soa(7, 2, 10.0);
        soa.validate().unwrap();
        let r = soa.routing().unwrap();
        assert_eq!(
            r.depths.iter().collect::<Vec<_>>(),
            vec![1, 2, 2, 3, 3, 3, 3]
        );
        assert_eq!(
            r.subtree_sizes.iter().collect::<Vec<_>>(),
            vec![7, 3, 3, 1, 1, 1, 1]
        );
        // Root forwards everything except its own traffic.
        assert!((r.forwarded[0] - 6.0 * 0.1).abs() < 1e-12);
        assert!((soa.sink_arrival_pkts_s() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn generated_and_interned_names() {
        let soa = small_soa(3, 2, 10.0);
        assert_eq!(soa.name(0), "n1");
        assert_eq!(soa.name(2), "n3");
        let interned = NodeNames::intern(["alpha", "b", "gamma"].into_iter());
        assert_eq!(interned.name(0), "alpha");
        assert_eq!(interned.name(1), "b");
        assert_eq!(interned.name(2), "gamma");
    }

    #[test]
    fn validate_rejects_bad_structure() {
        let with_parents = |parents: Vec<u32>| SoaNetwork {
            routes: Routes::Parents(parents),
            ..small_soa(3, 2, 10.0)
        };
        let err = with_parents(vec![SINK, 9, 0]).validate().unwrap_err();
        assert!(err.contains("only 3 nodes"), "{err}");

        let err = with_parents(vec![SINK, 0, 2]).validate().unwrap_err();
        assert!(err.contains("itself"), "{err}");

        let err = with_parents(vec![SINK, 2, 1]).validate().unwrap_err();
        assert!(err.contains("cycle"), "{err}");

        let err = with_parents(vec![SINK, 0]).validate().unwrap_err();
        assert_eq!(err, "parent array has 2 entries for 3 nodes");

        let mut soa = small_soa(3, 2, 10.0);
        soa.event_rate = soa.event_rate.iter().take(2).collect();
        assert!(soa.validate().unwrap_err().contains("event_rate"));
    }

    fn with_overrides(indices: &[u32]) -> SoaNetwork {
        let mut soa = small_soa(3, 2, 10.0);
        let radio = crate::RadioSpec::Preset("cc2420-always-on".into())
            .lower()
            .unwrap();
        soa.radio_overrides = indices.iter().map(|&j| (j, radio)).collect();
        soa
    }

    #[test]
    fn validate_accepts_sorted_in_range_radio_overrides() {
        with_overrides(&[0, 2]).validate().unwrap();
    }

    #[test]
    fn validate_rejects_an_out_of_range_radio_override() {
        let err = with_overrides(&[1, 3]).validate().unwrap_err();
        assert_eq!(
            err,
            "radio override for node index 3, but there are only 3 nodes"
        );
    }

    #[test]
    fn validate_rejects_a_duplicate_radio_override() {
        let err = with_overrides(&[0, 1, 1]).validate().unwrap_err();
        assert_eq!(err, "duplicate radio override for node index 1");
    }

    #[test]
    fn validate_rejects_unsorted_radio_overrides() {
        let err = with_overrides(&[2, 0]).validate().unwrap_err();
        assert_eq!(
            err,
            "radio override for node index 0 follows index 2 \
             (overrides must be sorted by node index)"
        );
    }

    #[test]
    fn routing_rejects_short_columns() {
        for column in ["event_rate", "tx_per_event", "rx_rate"] {
            let mut soa = small_soa(3, 2, 10.0);
            let short = match column {
                "event_rate" => &mut soa.event_rate,
                "tx_per_event" => &mut soa.tx_per_event,
                _ => &mut soa.rx_rate,
            };
            *short = short.iter().take(2).collect();
            let expected = format!("{column} has 2 entries for 3 nodes");
            assert_eq!(soa.routing().unwrap_err(), expected);
            let err = soa
                .analyze_with(
                    wsnem_core::backend::global(),
                    BackendId::Markov,
                    &EvalOptions::default(),
                    Some(1),
                )
                .unwrap_err();
            assert!(
                matches!(&err, NetworkError::Routing(msg) if *msg == expected),
                "{err}"
            );
        }
    }

    #[test]
    fn routing_rejects_unsorted_radio_overrides() {
        let soa = with_overrides(&[2, 0]);
        let expected = "radio override for node index 0 follows index 2 \
                        (overrides must be sorted by node index)";
        assert_eq!(soa.routing().unwrap_err(), expected);
        let err = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Markov,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap_err();
        assert!(
            matches!(&err, NetworkError::Routing(msg) if msg == expected),
            "{err}"
        );
    }

    #[test]
    fn runs_carry_each_nodes_cpu_split() {
        // A chain: every node forwards a different load, so each is its
        // own run, and the runs match the oracle's per-node rows.
        let nodes: Vec<NodeConfig> = (0..4)
            .map(|i| NodeConfig::monitoring(format!("n{}", i + 1), 5.0))
            .collect();
        let oracle = Network::chain(nodes.clone())
            .analyze(BackendId::Markov)
            .unwrap();
        let soa = SoaNetwork::from_network(&Network::chain(nodes)).unwrap();
        let a = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Markov,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap();
        assert_eq!(a.runs.len(), 4);
        for (i, o) in oracle.per_node.iter().enumerate() {
            let run = a.run_for(i);
            assert_eq!(run.start, i);
            assert_eq!(run.cpu_fractions, o.analysis.cpu_fractions, "node {i}");
            assert_eq!(run.cpu_power_mw, o.analysis.cpu_power_mw, "node {i}");
            assert_eq!(run.radio_power_mw, o.analysis.radio_power_mw, "node {i}");
        }
        // A star of identical nodes is one run covering everyone.
        let a = small_soa(5, 5, 10.0);
        let star = SoaNetwork {
            routes: Routes::Star,
            ..a
        };
        let a = star
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Markov,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap();
        assert_eq!(a.runs.len(), 1);
        assert_eq!(a.run_for(4), &a.runs[0]);
    }

    #[test]
    fn analysis_matches_oracle_exactly() {
        let nodes: Vec<NodeConfig> = (0..7)
            .map(|i| NodeConfig::monitoring(format!("n{}", i + 1), 5.0))
            .collect();
        let oracle = Network::tree(nodes, 2).analyze(BackendId::Markov).unwrap();
        let soa = small_soa(7, 2, 5.0);
        let a = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Markov,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap();
        for (i, o) in oracle.per_node.iter().enumerate() {
            assert_eq!(a.lifetime_days[i], o.analysis.lifetime_days, "node {i}");
            assert_eq!(a.total_power_mw[i], o.analysis.total_power_mw, "node {i}");
            assert_eq!(a.forwarded[i], o.forwarded_rx_pkts_s, "node {i}");
            assert_eq!(a.depths[i], o.hop_depth);
            assert_eq!(a.subtree_sizes[i] as usize, o.subtree_size);
        }
        assert_eq!(a.first_death_days(), oracle.first_death_days());
        assert_eq!(a.total_power_mw(), oracle.total_power_mw());
        assert_eq!(a.max_hop_depth(), oracle.max_hop_depth());
        assert_eq!(
            soa.name(a.bottleneck().unwrap()),
            oracle.bottleneck().unwrap().analysis.name
        );
        assert_eq!(
            soa.name(a.bottleneck_relay().unwrap()),
            oracle.bottleneck_relay().unwrap().analysis.name
        );
    }

    #[test]
    fn unstable_relay_names_the_node() {
        // 9 leaves at 1.5 ev/s feeding one relay: λ ≈ 13.7 > μ = 10.
        let soa = small_soa(10, 9, 1.0 / 1.5);
        let err = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Markov,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap_err();
        match &err {
            NetworkError::Node { node, .. } => assert_eq!(node, "n1"),
            other => panic!("expected node error, got {other}"),
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let soa = small_soa(30, 3, 8.0);
        let a = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Mg1,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap();
        // Histogram covers every node.
        let hist = a.lifetime_histogram(8);
        assert_eq!(hist.len(), 8);
        assert_eq!(hist.iter().map(|b| b.count).sum::<u64>(), 30);
        // The worst cohort starts at the bottleneck.
        let cohort = a.worst_lifetime_cohort(5);
        assert_eq!(cohort.len(), 5);
        assert_eq!(cohort[0], a.bottleneck().unwrap());
        let mut sorted = cohort.clone();
        sorted.sort_by(|&x, &y| {
            a.lifetime_days[x]
                .total_cmp(&a.lifetime_days[y])
                .then(x.cmp(&y))
        });
        assert_eq!(cohort, sorted);
        // Percentiles are monotone and end at the max depth.
        let pcts = a.hop_depth_percentiles(&[50.0, 90.0, 99.0, 100.0]);
        assert!(pcts.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(pcts.last().unwrap().1, a.max_hop_depth());
        // Low event rates → nothing near-unstable.
        assert_eq!(a.near_unstable_count(0.95), 0);
        assert!(a.near_unstable_count(0.0) == 30);
    }

    #[test]
    fn from_network_handles_radio_overrides_and_heterogeneity() {
        let mut nodes: Vec<NodeConfig> = (0..3)
            .map(|i| NodeConfig::monitoring(format!("x{i}"), 2.0))
            .collect();
        nodes[1].radio = crate::RadioSpec::Preset("cc2420-always-on".into())
            .lower()
            .unwrap();
        let net = Network::chain(nodes.clone());
        let soa = SoaNetwork::from_network(&net).unwrap();
        assert_eq!(soa.radio_overrides.len(), 1);
        assert_eq!(soa.radio_for(1), nodes[1].radio);
        assert_eq!(soa.radio_for(0), nodes[0].radio);
        assert_eq!(soa.name(1), "x1");
        // Lifetimes still agree with the oracle, override included.
        let oracle = net.analyze(BackendId::Markov).unwrap();
        let a = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Markov,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap();
        for (i, o) in oracle.per_node.iter().enumerate() {
            assert_eq!(a.lifetime_days[i], o.analysis.lifetime_days);
        }

        let mut het = nodes;
        het[2].cpu = het[2].cpu.with_mu(20.0);
        let err = SoaNetwork::from_network(&Network::chain(het)).unwrap_err();
        assert!(err.contains("CPU parameters"), "{err}");
        assert!(SoaNetwork::from_network(&Network::star(Vec::new())).is_err());
    }

    /// A column of `n` nodes drawn from `values`, repeating the previous
    /// node's value three times in four, so it forms runs of random length.
    fn random_runs(rng: &mut Xoshiro256PlusPlus, n: usize, values: &[f64]) -> RunColumn {
        let mut value = values[0];
        (0..n)
            .map(|_| {
                if rng.next_u64().is_multiple_of(4) {
                    value = values[rng.next_u64() as usize % values.len()];
                }
                value
            })
            .collect()
    }

    /// `soa` with random-run workload columns.
    fn with_random_workload(mut soa: SoaNetwork, rng: &mut Xoshiro256PlusPlus) -> SoaNetwork {
        let n = soa.len();
        // Signed zeros make bit-distinct own rates that compare equal.
        soa.event_rate = random_runs(rng, n, &[1e-4, 2e-4, 3e-4]);
        soa.tx_per_event = random_runs(rng, n, &[1.0, 2.0, 0.0, -0.0]);
        soa.rx_rate = random_runs(rng, n, &[0.0, 1e-3]);
        soa
    }

    /// The routing's columns and depth counts, floats by their bits.
    fn routing_bits(r: &SoaRouting) -> (Vec<u32>, Vec<u64>, Vec<u32>, &[usize]) {
        (
            r.depths.iter().collect(),
            r.forwarded.iter().map(f64::to_bits).collect(),
            r.subtree_sizes.iter().collect(),
            &r.depth_counts,
        )
    }

    #[test]
    fn level_routing_matches_parent_routing() {
        let mut rng = Xoshiro256PlusPlus::new(0x1E7E1);
        let sizes = (0..=300).chain([10_000]);
        for n in sizes {
            let mut cases = vec![(Routes::Star, star_parents(n))];
            // Fanout 0 is treated as 1 by both forms.
            for fanout in 0..=6 {
                cases.push((Routes::Tree { fanout }, tree_parents(n, fanout)));
            }
            for (routes, parents) in cases {
                let label = format!("n = {n}, {routes:?}");
                let level = with_random_workload(
                    SoaNetwork {
                        routes,
                        ..small_soa(n, 1, 10.0)
                    },
                    &mut rng,
                );
                let per_node = SoaNetwork {
                    routes: Routes::Parents(parents),
                    ..level.clone()
                };
                let (a, b) = (level.routing().unwrap(), per_node.routing().unwrap());
                assert_eq!(routing_bits(&a), routing_bits(&b), "{label}");
                assert_eq!(a.max_hop_depth(), b.max_hop_depth(), "{label}");
                assert_eq!(level.hop_depths(), per_node.hop_depths(), "{label}");
                for i in 0..n {
                    assert_eq!(
                        level.routes.parent_of(i),
                        per_node.routes.parent_of(i),
                        "{label}: node {i}"
                    );
                }
            }
        }
    }

    /// The 10^6-node template keeps no per-node column: routing and
    /// analysis store a handful of runs, so a column that regresses to one
    /// value per node fails here whatever the process's memory reads.
    #[test]
    fn a_million_node_tree_routes_to_one_run_per_operating_point() {
        let soa = small_soa(1_000_000, 4, 1e7);
        let r = soa.routing().unwrap();
        // 11 levels; each is one run of depth.
        assert_eq!(r.max_hop_depth(), 11);
        assert_eq!(r.depths.run_count(), 11);
        assert_eq!(r.depth_counts.iter().sum::<usize>(), 1_000_000);
        assert!(r.forwarded.run_count() < 32, "{}", r.forwarded.run_count());
        assert!(r.subtree_sizes.run_count() < 32);
        assert_eq!(r.subtree_sizes[0], 1_000_000);
        assert_eq!(r.forwarded[999_999].to_bits(), 0.0f64.to_bits());
        let a = soa
            .analyze_with(
                wsnem_core::backend::global(),
                BackendId::Mg1,
                &EvalOptions::default(),
                Some(1),
            )
            .unwrap();
        assert_eq!(a.len(), 1_000_000);
        assert!(a.runs.len() < 32, "{} runs", a.runs.len());
        let columns = [
            ("depths", a.depths.run_count()),
            ("forwarded", a.forwarded.run_count()),
            ("subtree_sizes", a.subtree_sizes.run_count()),
            ("total_power_mw", a.total_power_mw.run_count()),
            ("lifetime_days", a.lifetime_days.run_count()),
            ("rho", a.rho.run_count()),
        ];
        for (name, runs) in columns {
            assert!(runs <= a.runs.len(), "{name}: {runs} runs");
        }
    }

    /// Run starts by comparing every node's inputs with its predecessor's:
    /// the per-node definition the merged boundaries must reproduce.
    fn run_starts_per_node(soa: &SoaNetwork, forwarded: &RunColumn) -> Vec<usize> {
        let same = |a: usize, b: usize| {
            let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
            eq(forwarded[a], forwarded[b])
                && eq(soa.event_rate[a], soa.event_rate[b])
                && eq(soa.tx_per_event[a], soa.tx_per_event[b])
                && eq(soa.rx_rate[a], soa.rx_rate[b])
                && radio_bits(soa.radio_for(a)) == radio_bits(soa.radio_for(b))
        };
        (0..soa.len())
            .filter(|&i| i == 0 || !same(i - 1, i))
            .collect()
    }

    #[test]
    fn merged_run_starts_match_the_per_node_reference() {
        let mut rng = Xoshiro256PlusPlus::new(0x5747);
        let always_on = crate::RadioSpec::Preset("cc2420-always-on".into())
            .lower()
            .unwrap();
        let short_check = crate::RadioSpec::Lpl {
            period_s: 0.1,
            listen_s: 0.004,
        }
        .lower()
        .unwrap();
        for (n, fanout) in [(1usize, 1usize), (2, 1), (40, 2), (300, 3), (2000, 4)] {
            let soa = with_random_workload(small_soa(n, fanout, 10.0), &mut rng);
            // Equal to the shared radio by its bits: overriding with it
            // splits nothing.
            let shared = soa.radio;
            for density in [2u64, 4, 16] {
                let mut soa = soa.clone();
                // An override equal to the shared radio, then two equal
                // adjacent overrides; random ones from node 4 on.
                let fixed = [(0, shared), (1, always_on), (2, always_on)];
                soa.radio_overrides = fixed.into_iter().take(n.saturating_sub(1)).collect();
                let radios = [always_on, short_check, shared];
                soa.radio_overrides.extend((4..n as u32).filter_map(|j| {
                    let draw = rng.next_u64();
                    draw.is_multiple_of(density)
                        .then(|| (j, radios[(draw / density) as usize % 3]))
                }));
                let label = format!("n = {n}, fanout {fanout}, density 1/{density}");
                let forwarded = soa.validate().unwrap().forwarded;
                assert_eq!(
                    soa.run_starts(&forwarded),
                    run_starts_per_node(&soa, &forwarded),
                    "{label}"
                );
            }
        }
    }

    /// `k` additions of `v` to `acc`, one at a time.
    fn add_loop(mut acc: f64, v: f64, k: usize) -> f64 {
        for _ in 0..k {
            acc += v;
        }
        acc
    }

    /// Equal bits, or both NaN: Rust leaves NaN payloads unspecified.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// The float of this sign and exponent field whose fraction is the
    /// low 52 bits of `fraction`.
    fn float(negative: bool, field: u64, fraction: u64) -> f64 {
        f64::from_bits(u64::from(negative) << 63 | field << 52 | fraction & ((1 << 52) - 1))
    }

    #[test]
    fn add_repeated_matches_the_plain_loop_bit_for_bit() {
        let mut rng = Xoshiro256PlusPlus::new(29);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            -f64::MAX,
            1.0,
            -0.1,
        ];
        for case in 0..12_000u64 {
            let k = match case % 7 {
                0 => rng.next_bounded(3) as usize,
                _ => rng.next_bounded(10_001) as usize,
            };
            let negative = rng.next_bool(0.5);
            let (acc, v) = match case % 6 {
                // Random bit patterns: every sign, binade, subnormal,
                // infinity and NaN, mostly far apart.
                0 => (
                    f64::from_bits(rng.next_u64()),
                    f64::from_bits(rng.next_u64()),
                ),
                // Same sign, `v` up to 2^60 times smaller than `acc` or a
                // few binades larger, so runs climb binades.
                1 => {
                    let field = 64 + rng.next_bounded(1975);
                    let v_field = field + 4 - rng.next_bounded(64);
                    (
                        float(negative, field, rng.next_u64()),
                        float(negative, v_field, rng.next_u64()),
                    )
                }
                // Exact ties, `v = (2q + 1)·u/2` for `acc`'s ulp `u`, at
                // each parity of `acc`'s significand and of `q`.
                2 => {
                    let field = 60 + rng.next_bounded(1900);
                    let parity = case / 6 % 4;
                    let acc = float(negative, field, rng.next_u64()).to_bits() & !1 | parity & 1;
                    let q = rng.next_u64() >> (12 + rng.next_bounded(52)) & !1 | parity >> 1;
                    let half_ulp = f64::from_bits((field - 53) << 52);
                    let v = (2 * q + 1) as f64 * half_ulp;
                    (f64::from_bits(acc), if negative { -v } else { v })
                }
                // Subnormals, zeros and the smallest normals.
                3 => (
                    float(negative, rng.next_bounded(2), rng.next_u64()),
                    float(
                        rng.next_bool(0.2) != negative,
                        rng.next_bounded(3),
                        rng.next_u64(),
                    ),
                ),
                // Specials against specials and against random values.
                4 => {
                    let acc = specials[rng.next_bounded(specials.len() as u64) as usize];
                    let v = match rng.next_bool(0.5) {
                        true => specials[rng.next_bounded(specials.len() as u64) as usize],
                        false => float(negative, 1000 + rng.next_bounded(40), rng.next_u64()),
                    };
                    (acc, v)
                }
                // Opposite signs, close enough that the sum crosses zero.
                _ => {
                    let field = 1000 + rng.next_bounded(20);
                    (
                        float(negative, field, rng.next_u64()),
                        float(!negative, field - rng.next_bounded(16), rng.next_u64()),
                    )
                }
            };
            let (want, got) = (add_loop(acc, v, k), add_repeated(acc, v, k));
            assert!(
                same_bits(got, want),
                "case {case}: {acc:e} + {k} x {v:e}: {got:e} ({:#x}) != {want:e} ({:#x})",
                got.to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn add_repeated_climbs_binades_not_steps() {
        // 2^64 - 1 additions of 0.1, about 55 binades: below 2^50 each step
        // rounds up to a whole ulp, and from 2^50 on 0.1 is below half an
        // ulp, so the sum stops there.
        let stalled = add_repeated(-0.0, 0.1, usize::MAX);
        assert_eq!(stalled, 2f64.powi(50));
        assert_eq!(add_repeated(stalled, 0.1, usize::MAX), stalled);
        // Non-finite and zero cases settle after one live step.
        assert_eq!(add_repeated(f64::MAX, f64::MAX, usize::MAX), f64::INFINITY);
        assert!(add_repeated(f64::INFINITY, f64::NEG_INFINITY, usize::MAX).is_nan());
        assert_eq!(
            add_repeated(-0.0, 0.0, usize::MAX).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            add_repeated(-0.0, -0.0, usize::MAX).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn column_sum_matches_the_node_order_sum() {
        let mut rng = Xoshiro256PlusPlus::new(31);
        let pool = [
            0.1,
            1e-3,
            3.0,
            2.5e-7,
            1e6,
            0.0,
            -0.0,
            -0.25,
            5e-324,
            f64::MIN_POSITIVE,
        ];
        for case in 0..240u64 {
            let n = rng.next_bounded(20_000) as usize;
            // A new value every node (dense one-node runs), every other
            // node, or every 64 nodes on average.
            let every = [1, 2, 64][case as usize % 3];
            let mut value = pool[0];
            let column: RunColumn = (0..n)
                .map(|_| {
                    if rng.next_bounded(every) == 0 {
                        value = match rng.next_bool(0.5) {
                            true => pool[rng.next_bounded(pool.len() as u64) as usize],
                            false => rng.next_f64() * 10f64.powi(rng.next_bounded(21) as i32 - 10),
                        };
                    }
                    value
                })
                .collect();
            let want: f64 = column.iter().sum();
            assert_eq!(column.sum().to_bits(), want.to_bits(), "case {case}");
        }
        // Distinct neighbours keep no run ends; long runs climb binades.
        let dense: RunColumn = (0..5000).map(|i| f64::from(i) * 0.1).collect();
        let mut long = RunColumn::repeat(0.1, 1_000_000);
        long.push_run(1e-9, 3_000_000);
        long.push_run(7.0, 1);
        for column in [dense, long, RunColumn::default()] {
            let want: f64 = column.iter().sum();
            assert_eq!(column.sum().to_bits(), want.to_bits());
        }
    }
}
