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
//! * topology is one `u32` parent array ([`SINK`] marks sink-adjacent
//!   nodes), so a million-node collection tree is 4 MB instead of hundreds;
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
//! forwarding loads and subtree sizes in one sink-ward sweep whose
//! floating-point accumulation order is **bit-identical** to the oracle
//! [`crate::Network::routing`]: the oracle processes nodes in stable
//! deepest-first order, and this module reproduces exactly that order with
//! a stable counting sort by depth. The equivalence battery in
//! `tests/soa_topology.rs` pins `SoaNetwork` against the per-node oracle up
//! to 10^5 nodes.
//!
//! Node evaluation ([`SoaNetwork::analyze_with`]) shares work across
//! *runs*: maximal ranges of consecutive indices whose per-node inputs
//! (event rate, packets per event, rx rate, forwarded load, radio) are
//! bitwise equal. Each run is solved once and its power and lifetime fill
//! every node in it, which is exact because [`wsnem_core::CpuSolver::solve`]
//! is a pure function of its inputs. Breadth-first template trees have a
//! handful of operating points (a 10^6-node fanout-4 tree has 20 runs), so
//! they cost a handful of solves; a net with no repeats pays one comparison
//! per node.
//!
//! [`SoaAnalysis`] keeps power, lifetime and utilization as [`RunColumn`]s
//! with one value per run, so any node can be indexed, but it never builds
//! per-node rows or fills a per-node array. Its aggregates — first death,
//! bottlenecks, lifetime histogram, the worst-lifetime cohort, the
//! near-unstable count — read one value per run, since forwarded load,
//! power, lifetime and utilization are constant on a run; the hop-depth
//! percentiles read the per-depth counts of the routing pass. On the
//! 10^6-node tree that is 20 values, not 10^6. Only the mean lifetime and
//! the total power still sum every node, in node order, because that order
//! fixes their last bits. Small nets that report per node read each node's
//! CPU split from its run ([`SoaAnalysis::run_for`]).

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

/// A per-node `f64` column stored as runs of consecutive bit-equal values.
///
/// Runs are maximal: neighbouring runs differ in their bits, so `0.0` and
/// `-0.0`, or two NaN payloads, stay apart. A template's column is one run
/// however many nodes it has. While every run is one node the column keeps
/// only its values and `[i]` reads `values[i]`; the first repeat adds run
/// ends, and `[i]` then binary-searches them unless there is one run.
#[derive(Debug, Clone, Default)]
pub struct RunColumn {
    /// One value per run, in node order.
    values: Vec<f64>,
    /// Exclusive end index of each run; empty while every run is one node.
    ends: Vec<usize>,
    /// Number of nodes.
    len: usize,
}

impl RunColumn {
    /// `len` nodes of one value.
    pub(crate) fn repeat(value: f64, len: usize) -> Self {
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

    /// Append `count` nodes of `value`, extending the last run when its
    /// bits equal `value`'s.
    pub(crate) fn push_run(&mut self, value: f64, count: usize) {
        if count == 0 {
            return;
        }
        let merge = self
            .values
            .last()
            .is_some_and(|last| last.to_bits() == value.to_bits());
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

    /// Each run as its value and node count, in node order.
    fn runs(&self) -> impl Iterator<Item = (f64, usize)> + '_ {
        let mut start = 0;
        self.values.iter().enumerate().map(move |(r, &value)| {
            let end = self.ends.get(r).copied().unwrap_or(start + 1);
            let len = end - start;
            start = end;
            (value, len)
        })
    }

    /// Every node's value, in node order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs()
            .flat_map(|(value, len)| std::iter::repeat_n(value, len))
    }
}

impl std::ops::Index<usize> for RunColumn {
    type Output = f64;

    /// Node `i`'s value: no search for a column of one run (a template's)
    /// or of one-node runs. Panics when `i >= len()`; a search then lands
    /// one past the last value, since the last run ends at `len()`.
    fn index(&self, i: usize) -> &f64 {
        if self.values.len() == 1 && i < self.len {
            return &self.values[0];
        }
        if self.ends.is_empty() {
            return &self.values[i];
        }
        &self.values[self.ends.partition_point(|&end| end <= i)]
    }
}

impl FromIterator<f64> for RunColumn {
    /// Collect node values, merging bit-equal neighbours into runs.
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut column = Self::default();
        for value in values {
            column.push_run(value, 1);
        }
        column
    }
}

impl PartialEq for RunColumn {
    /// Node-by-node `f64` equality, as for a `Vec<f64>`.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// A routed network in structure-of-arrays form (module docs).
///
/// All per-node columns have the same length; [`SoaNetwork::validate`]
/// checks that plus the routing structure.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaNetwork {
    /// `parent[i]` is where node `i` forwards; [`SINK`] for sink-adjacent.
    pub parent: Vec<u32>,
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

/// The routing structure of a [`SoaNetwork`] — flat-array counterpart of
/// [`crate::RoutingTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct SoaRouting {
    /// Hops to the sink per node (sink-adjacent = 1).
    pub depths: Vec<u32>,
    /// Forwarded input rate per node (packets/s).
    pub forwarded: Vec<f64>,
    /// Subtree size per node (each node counts itself).
    pub subtree_sizes: Vec<u32>,
    /// `depth_counts[d]` nodes sit `d` hops from the sink; the length is
    /// the deepest hop count plus one (index 0 counts no node).
    pub(crate) depth_counts: Vec<usize>,
}

impl SoaNetwork {
    /// A homogeneous network: every node has the same workload, one run per
    /// column, on a parent array from one of the topology helpers
    /// ([`star_parents`], [`chain_parents`], [`tree_parents`]) with
    /// generated names.
    #[allow(clippy::too_many_arguments)]
    pub fn homogeneous(
        parent: Vec<u32>,
        prefix: impl Into<String>,
        event_rate: f64,
        tx_per_event: f64,
        rx_rate: f64,
        cpu: CpuModelParams,
        cpu_profile: PowerProfile,
        radio: RadioModel,
        battery: Battery,
    ) -> Self {
        let n = parent.len();
        Self {
            parent,
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
        let parent = net
            .next_hop
            .iter()
            .map(|hop| match *hop {
                NextHop::Sink => SINK,
                NextHop::Node(j) => j as u32,
            })
            .collect();
        Ok(Self {
            parent,
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
        self.parent.len()
    }

    /// True for the empty network.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
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
    /// every node's own transmit rate.
    pub fn sink_arrival_pkts_s(&self) -> f64 {
        self.own_tx_rates().iter().sum()
    }

    /// Validate array lengths, the radio overrides (in range, strictly
    /// ascending by index) and the routing structure (parents in range, no
    /// self-loops, every node reaches the sink), and return the routing
    /// computed on the way.
    pub fn validate(&self) -> Result<SoaRouting, String> {
        self.check_columns()?;
        let n = self.len();
        for (i, &p) in self.parent.iter().enumerate() {
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
        self.route()
    }

    /// Check that every per-node column and the name table match the parent
    /// array's length, and that the radio overrides are in range and
    /// strictly ascending by index. [`SoaNetwork::routing`] runs this too,
    /// so a hand-built net with a short column or unsorted overrides errors
    /// instead of panicking or applying the wrong radios.
    fn check_columns(&self) -> Result<(), String> {
        let n = self.len();
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

    /// Hops to the sink per node (sink-adjacent = 1), failing on cycles with
    /// the same node-naming error as the oracle. Linear time: each walk
    /// stops at the first already-resolved node, and the nodes of the
    /// current walk hold an on-path sentinel in `depths` until the walk
    /// resolves, so reaching one again is a cycle. No depth reaches the
    /// sentinel (`u32::MAX`): a depth counts distinct nodes, and a net of
    /// that many nodes is rejected up front.
    pub fn hop_depths(&self) -> Result<Vec<u32>, String> {
        const UNRESOLVED: u32 = 0;
        const ON_PATH: u32 = u32::MAX;
        let n = self.len();
        if n >= ON_PATH as usize {
            return Err(format!(
                "{n} nodes, but `u32` node indices allow at most {}",
                ON_PATH - 1
            ));
        }
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
                match self.parent[cur] {
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

    /// Depths, forwarded rates and subtree sizes in one deepest-first
    /// sink-ward pass, after the column checks of [`SoaNetwork::validate`].
    /// The processing order — deepest first, ascending index within a depth
    /// — is produced by a stable counting sort and is exactly the order of
    /// the oracle's stable `sort_by`, so the floating-point forwarding sums
    /// are bit-identical to [`Network::routing`]. The sort's per-depth
    /// counts are kept for the hop-depth accessors of [`SoaAnalysis`].
    pub fn routing(&self) -> Result<SoaRouting, String> {
        self.check_columns()?;
        self.route()
    }

    /// [`SoaNetwork::routing`] without the column checks.
    fn route(&self) -> Result<SoaRouting, String> {
        let depths = self.hop_depths()?;
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
            let p = self.parent[i];
            if p != SINK {
                forwarded[p as usize] += out;
                subtree_sizes[p as usize] += subtree_sizes[i];
            }
        }
        Ok(SoaRouting {
            depths,
            forwarded,
            subtree_sizes,
            depth_counts,
        })
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
        let mean_service = opts.service.to_dist(self.cpu.mu).mean();
        let mut runs = Vec::with_capacity(results.len());
        // Each output column holds at most one value per run.
        let column = || RunColumn {
            values: Vec::with_capacity(results.len()),
            ..RunColumn::default()
        };
        let (mut total_power_mw, mut lifetime_days, mut rho) = (column(), column(), column());
        for (r, result) in results.into_iter().enumerate() {
            let run = result.map_err(|e| NetworkError::Node {
                node: self.name(run_starts[r]),
                source: *e,
            })?;
            let (i, total) = (run.start, run.cpu_power_mw + run.radio_power_mw);
            let len = run_starts.get(r + 1).copied().unwrap_or(n) - i;
            total_power_mw.push_run(total, len);
            lifetime_days.push_run(self.battery.lifetime_days(total), len);
            // The event rate and the forwarded load are bitwise equal on a
            // run, so its utilization is too.
            let run_rho = (self.event_rate[i] + forwarded[i]) * mean_service;
            rho.push_run(run_rho, len);
            runs.push(run);
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
    /// evaluation inputs (see [`SoaNetwork::same_inputs`]). Each node's
    /// radio comes from a cursor over the ascending overrides.
    fn run_starts(&self, forwarded: &[f64]) -> Vec<usize> {
        let n = self.len();
        // Sized for the worst case (no repeats); untouched capacity costs
        // no memory.
        let mut starts = Vec::with_capacity(n);
        let mut overrides = self.radio_overrides.iter().peekable();
        let mut prev_radio = &self.radio;
        for i in 0..n {
            let radio = match overrides.next_if(|&&(j, _)| j as usize == i) {
                Some((_, radio)) => radio,
                None => &self.radio,
            };
            if i == 0 || !self.same_inputs(i - 1, i, forwarded, prev_radio, radio) {
                starts.push(i);
            }
            prev_radio = radio;
        }
        starts
    }

    /// True when nodes `a` and `b`, with radios `radio_a` and `radio_b`,
    /// have bitwise-equal evaluation inputs — workload, forwarded load and
    /// radio — and so bit-identical results. The forwarded load goes first:
    /// on nets without repeats it differs and ends the comparison. Two
    /// nodes on the shared radio skip the radio comparison, so a net
    /// without overrides never makes one.
    fn same_inputs(
        &self,
        a: usize,
        b: usize,
        forwarded: &[f64],
        radio_a: &RadioModel,
        radio_b: &RadioModel,
    ) -> bool {
        let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
        eq(forwarded[a], forwarded[b])
            && eq(self.event_rate[a], self.event_rate[b])
            && eq(self.tx_per_event[a], self.tx_per_event[b])
            && eq(self.rx_rate[a], self.rx_rate[b])
            && (std::ptr::eq(radio_a, radio_b) || radio_bits(*radio_a) == radio_bits(*radio_b))
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
/// `rho` are bitwise constant on each range. The last three are
/// [`RunColumn`]s that hold one value per range, or fewer where
/// neighbouring ranges share one. Each aggregate except the mean lifetime
/// and the total power reads one node per run. The hop-depth accessors
/// read the per-depth counts of the routing pass, not `depths`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaAnalysis {
    /// Hops to the sink per node (sink-adjacent = 1).
    pub depths: Vec<u32>,
    /// Forwarded input rate per node (packets/s).
    pub forwarded: Vec<f64>,
    /// Subtree size per node (each node counts itself).
    pub subtree_sizes: Vec<u32>,
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

    /// Mean node lifetime (days). Sums every node in index order, so the
    /// result does not depend on how the nodes group into runs.
    pub fn mean_lifetime_days(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lifetime_days.iter().sum::<f64>() / self.len() as f64
    }

    /// Total network power (mW), summed in node order like the mean.
    pub fn total_power_mw(&self) -> f64 {
        self.total_power_mw.iter().sum()
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

    fn small_soa(n: usize, fanout: usize, period_s: f64) -> SoaNetwork {
        let node = NodeConfig::monitoring("n", period_s);
        SoaNetwork::homogeneous(
            tree_parents(n, fanout),
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
        assert_eq!(RunColumn::default().iter().count(), 0);
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
        assert_eq!(r.depths, vec![1, 2, 2, 3, 3, 3, 3]);
        assert_eq!(r.subtree_sizes, vec![7, 3, 3, 1, 1, 1, 1]);
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
        let mut soa = small_soa(3, 2, 10.0);
        soa.parent[1] = 9;
        let err = soa.validate().unwrap_err();
        assert!(err.contains("only 3 nodes"), "{err}");

        let mut soa = small_soa(3, 2, 10.0);
        soa.parent[2] = 2;
        let err = soa.validate().unwrap_err();
        assert!(err.contains("itself"), "{err}");

        let mut soa = small_soa(3, 2, 10.0);
        soa.parent[1] = 2;
        soa.parent[2] = 1;
        let err = soa.validate().unwrap_err();
        assert!(err.contains("cycle"), "{err}");

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
            parent: star_parents(5),
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
}
