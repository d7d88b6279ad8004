//! # wsnem-wsn
//!
//! Sensor-node and network-level energy studies built on the CPU models —
//! the application layer the paper's introduction motivates (surveillance,
//! habitat/temperature monitoring).
//!
//! * [`radio`] — duty-cycle MAC radio models: a serializable [`RadioSpec`]
//!   (named presets, LPL, B-MAC-style full preambles, X-MAC-style strobed
//!   preambles, raw custom numbers) lowering to the shared [`RadioModel`]
//!   mean-power evaluation. The power figures are synthetic datasheet
//!   composites, documented as such; the paper models only the CPU and
//!   notes communication dominates — this crate lets studies weigh both.
//! * [`node`] — a sensor node: sensing workload → CPU jobs (+ radio
//!   traffic), evaluated with any registered CPU backend, yielding power
//!   breakdown and battery lifetime.
//! * [`topology`] — routed networks of heterogeneous nodes (star, chain,
//!   tree or mesh with static routes): per-node forwarding load propagated
//!   sink-ward, hop depths, first-node death, mean lifetime and
//!   relay-bottleneck identification (lifetime-ranked, so per-node radio
//!   overrides shift the hot spot). Scenarios do not run on it: it is the
//!   per-node reference oracle the [`soa`] core is tested against.
//! * [`soa`] — the same routed model in structure-of-arrays form (flat
//!   `u32` parent array, run-length workload columns, shared CPU/battery,
//!   generated or interned names),
//!   the one evaluator every scenario network runs on, from a handful of
//!   nodes to millions, with aggregate accessors (lifetime histogram,
//!   hop-depth percentiles, worst-lifetime cohort); bit-identical to
//!   [`topology`] on the common subset.
//! * [`tuning`] — pick the energy-optimal Power Down Threshold for a
//!   workload (the design question the paper's Fig. 5 poses).
//!
//! # Examples
//!
//! Co-tune the radio MAC with the sensing workload:
//!
//! ```
//! use wsnem_wsn::{BackendId, NodeConfig, RadioSpec};
//!
//! let mut node = NodeConfig::monitoring("lab-7", 30.0);
//! let default_radio = node.analyze(BackendId::Markov).unwrap();
//! node.radio = RadioSpec::XMac {
//!     check_interval_s: 0.5,
//!     strobe_s: 0.004,
//!     ack_s: 0.001,
//! }
//! .lower()
//! .unwrap();
//! let strobed = node.analyze(BackendId::Markov).unwrap();
//! // At one reading per 30 s the strobed MAC out-lives the 5% LPL default.
//! assert!(strobed.lifetime_days > default_radio.lifetime_days);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
// `!(x > 0.0)`-style guards deliberately reject NaN together with the
// out-of-domain values; `partial_cmp` rewrites would lose that property.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod node;
pub mod radio;
pub mod soa;
pub mod topology;
pub mod tuning;

// `BackendId` re-exported so node and network analysis callers need no
// direct wsnem-core dependency.
pub use node::{NodeAnalysis, NodeConfig};
pub use radio::{RadioModel, RadioSpec, RadioTimeSplit, DEFAULT_RADIO_PRESET};
pub use soa::{
    chain_parents, star_parents, tree_parents, HistBin, NodeNames, Routes, RunColumn, RunValue,
    SoaAnalysis, SoaNetwork, SoaRouting, SoaRun, SINK,
};
pub use topology::{
    Network, NetworkError, NextHop, RoutedAnalysis, RoutedNodeAnalysis, RoutingTable,
};
pub use tuning::{optimize_threshold, ThresholdChoice};
pub use wsnem_core::BackendId;
