//! Scenario fleet generation (`wsnem gen`).
//!
//! The paper's Table 4/5 methodology — and the large power-aware WSN
//! simulation campaigns it sits in — evaluate *families* of parameter
//! points, not single files. This module turns a base [`Scenario`] plus a
//! declarative [`GenSpec`] into N concrete scenario files: pick the fields
//! to vary ([`GenField`] — arrival rate, service mean, radio check
//! interval, topology fan-out, node count), give each a range, choose a
//! sampling [`GenMethod`] (full grid, seeded uniform random, or Latin
//! hypercube), and [`write_fleet`] emits one file per sample into a
//! directory together with a `manifest.json` recording the exact spec and
//! base scenario, so a fleet is reproducible from its manifest alone.
//!
//! Generated scenarios are named `<prefix>-0001`, `<prefix>-0002`, … with
//! the index zero-padded to the fleet size, so lexicographic file order is
//! sample order — the property the directory runner's stable merged output
//! relies on.
//!
//! ```
//! use wsnem_scenario::gen::{FieldSpec, GenField, GenMethod, GenSpec};
//! use wsnem_scenario::{builtin, gen};
//!
//! let spec = GenSpec {
//!     method: GenMethod::Grid,
//!     count: 0, // ignored for grids; the field points define the size
//!     seed: 42,
//!     prefix: "sweep".into(),
//!     fields: vec![FieldSpec {
//!         field: GenField::Lambda,
//!         min: 0.2,
//!         max: 1.0,
//!         points: Some(5),
//!     }],
//! };
//! let fleet = gen::generate(&builtin::paper_defaults(), &spec).unwrap();
//! assert_eq!(fleet.len(), 5);
//! assert_eq!(fleet[0].name, "sweep-1");
//! assert_eq!(fleet[0].cpu.lambda, 0.2);
//! assert_eq!(fleet[4].cpu.lambda, 1.0);
//! ```

use std::path::Path;

use serde::{Deserialize, Serialize};
use wsnem_stats::rng::{Rng64, Xoshiro256PlusPlus};
use wsnem_wsn::RadioSpec;

use crate::error::ScenarioError;
use crate::files::{self, FileFormat};
use crate::schema::{Scenario, TopologySpec, SCHEMA_VERSION};

/// File name of the fleet manifest `write_fleet` drops next to the
/// generated scenarios (and the directory runner skips).
pub const MANIFEST_FILE: &str = "manifest.json";

/// Ceiling on the number of scenarios one `generate` call may produce — a
/// fat-finger guard (`--field a=0:1:1000 --field b=0:1:1000` would other-
/// wise ask for a million-file grid without warning).
pub const MAX_FLEET_SIZE: usize = 100_000;

/// An `E004` on the generator spec itself.
fn gen_error(message: impl Into<String>) -> ScenarioError {
    ScenarioError::invalid("gen", message)
}

/// A scenario field the generator can sample over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GenField {
    /// CPU arrival rate λ (jobs/s) — `cpu.lambda`.
    Lambda,
    /// Mean service time (s); the CPU's μ is set to its reciprocal.
    ServiceMean,
    /// Duty-cycle MAC check interval / wake-up period (s), applied to the
    /// network-level radio (requires a `network` section; the variant is
    /// preserved when the base already names an LPL/B-MAC/X-MAC radio,
    /// otherwise a B-MAC radio with a minimal full preamble is installed).
    RadioCheckInterval,
    /// Tree fan-out (children per parent); replaces the network topology
    /// with `Tree { fanout }` (requires a non-mesh `network` section).
    TopologyFanout,
    /// Network size; the node list is rebuilt to this many clones of the
    /// first node, named `n001`, `n002`, … (requires a non-mesh `network`
    /// section).
    NodeCount,
}

impl GenField {
    /// All fields, for listings and error messages.
    pub const ALL: [GenField; 5] = [
        GenField::Lambda,
        GenField::ServiceMean,
        GenField::RadioCheckInterval,
        GenField::TopologyFanout,
        GenField::NodeCount,
    ];

    /// The CLI spelling (`--field <name>=min:max`).
    pub fn name(self) -> &'static str {
        match self {
            GenField::Lambda => "lambda",
            GenField::ServiceMean => "service-mean",
            GenField::RadioCheckInterval => "radio-check-interval",
            GenField::TopologyFanout => "fanout",
            GenField::NodeCount => "node-count",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Integer-valued fields have their samples rounded to the nearest
    /// integer (and floored at 1).
    pub fn is_integer(self) -> bool {
        matches!(self, GenField::TopologyFanout | GenField::NodeCount)
    }

    /// Apply a sampled value to a scenario.
    fn apply(self, s: &mut Scenario, value: f64) -> Result<(), ScenarioError> {
        let needs_network = |s: &Scenario| {
            s.network.clone().ok_or_else(|| {
                gen_error(format!(
                    "field `{}` requires a base scenario with a network section",
                    self.name()
                ))
            })
        };
        let reject_mesh = |net: &crate::schema::NetworkSpec| {
            if matches!(net.topology, Some(TopologySpec::Mesh { .. })) {
                return Err(gen_error(format!(
                    "field `{}` cannot rewrite a mesh topology \
                     (its static routes name specific nodes)",
                    self.name()
                )));
            }
            Ok(())
        };
        match self {
            GenField::Lambda => s.cpu = s.cpu.with_lambda(value),
            GenField::ServiceMean => {
                if !(value > 0.0) {
                    return Err(gen_error(format!("service-mean must be > 0, got {value}")));
                }
                s.cpu = s.cpu.with_mu(1.0 / value);
            }
            GenField::RadioCheckInterval => {
                let mut net = needs_network(s)?;
                // Keep the base MAC's variant and secondary timing where it
                // still validates; the check interval / wake-up period is
                // what this field sweeps.
                net.radio = Some(match net.radio.take() {
                    Some(RadioSpec::Lpl { listen_s, .. }) => RadioSpec::Lpl {
                        period_s: value,
                        listen_s: listen_s.min(value),
                    },
                    Some(RadioSpec::BMac { preamble_s, .. }) => RadioSpec::BMac {
                        check_interval_s: value,
                        // B-MAC requires preamble >= check interval.
                        preamble_s: preamble_s.max(value),
                    },
                    Some(RadioSpec::XMac {
                        strobe_s, ack_s, ..
                    }) => RadioSpec::XMac {
                        check_interval_s: value,
                        strobe_s,
                        ack_s,
                    },
                    // Presets/custom radios carry no check interval to
                    // rewrite: install the minimal valid B-MAC instead.
                    _ => RadioSpec::BMac {
                        check_interval_s: value,
                        preamble_s: value,
                    },
                });
                s.network = Some(net);
            }
            GenField::TopologyFanout => {
                let mut net = needs_network(s)?;
                reject_mesh(&net)?;
                net.topology = Some(TopologySpec::Tree {
                    fanout: (value as usize).max(1),
                });
                s.network = Some(net);
            }
            GenField::NodeCount => {
                let mut net = needs_network(s)?;
                reject_mesh(&net)?;
                let n = (value as usize).max(1);
                if let Some(t) = &mut net.template {
                    // Template networks scale by count alone — no per-node
                    // structs to clone.
                    t.count = n as u64;
                } else {
                    let proto = net.nodes[0].clone();
                    net.nodes = (1..=n)
                        .map(|i| {
                            let mut node = proto.clone();
                            node.name = format!("n{i:03}");
                            node
                        })
                        .collect();
                }
                s.network = Some(net);
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for GenField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One sampled axis: a field and its range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// The scenario field to vary.
    pub field: GenField,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// Grid points along this axis (grid sampling only; default 3).
    pub points: Option<usize>,
}

impl FieldSpec {
    fn validate(&self) -> Result<(), ScenarioError> {
        if !self.min.is_finite() || !self.max.is_finite() || self.min > self.max {
            return Err(gen_error(format!(
                "field `{}` has an invalid range [{}, {}]",
                self.field, self.min, self.max
            )));
        }
        if self.points == Some(0) {
            return Err(gen_error(format!(
                "field `{}` asks for 0 grid points",
                self.field
            )));
        }
        Ok(())
    }

    /// Grid values along this axis: `points` evenly spaced samples over the
    /// inclusive range (a single point collapses to `min`).
    fn grid_values(&self) -> Vec<f64> {
        let points = self.points.unwrap_or(3);
        (0..points)
            .map(|i| {
                if points == 1 {
                    self.min
                } else {
                    self.min + (self.max - self.min) * i as f64 / (points - 1) as f64
                }
            })
            .collect()
    }
}

/// How samples are drawn over the declared fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GenMethod {
    /// Full factorial grid: the Cartesian product of every field's
    /// `points` evenly spaced values (the fleet size is the product; the
    /// spec's `count` is ignored).
    Grid,
    /// `count` independent uniform samples per field, from the spec's seed.
    Random,
    /// Latin-hypercube sampling: `count` samples where each field's range
    /// is split into `count` equal strata and every stratum is hit exactly
    /// once (better marginal coverage than random at the same budget).
    LatinHypercube,
}

impl GenMethod {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            GenMethod::Grid => "grid",
            GenMethod::Random => "random",
            GenMethod::LatinHypercube => "lhs",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse_name(s: &str) -> Option<Self> {
        [Self::Grid, Self::Random, Self::LatinHypercube]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// A complete generator specification — everything `generate` needs beyond
/// the base scenario, and exactly what the manifest records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenSpec {
    /// Sampling method.
    pub method: GenMethod,
    /// Sample count (random / Latin hypercube; a grid's size is the
    /// product of its per-field points).
    pub count: usize,
    /// RNG seed for the stochastic methods (a grid ignores it).
    pub seed: u64,
    /// Scenario/file name prefix (`<prefix>-0001`, …).
    pub prefix: String,
    /// The sampled fields (must be non-empty).
    pub fields: Vec<FieldSpec>,
}

impl GenSpec {
    fn validate(&self) -> Result<usize, ScenarioError> {
        if self.fields.is_empty() {
            return Err(gen_error("at least one --field is required"));
        }
        for f in &self.fields {
            f.validate()?;
        }
        for (i, f) in self.fields.iter().enumerate() {
            if self.fields[..i].iter().any(|g| g.field == f.field) {
                return Err(gen_error(format!("field `{}` is declared twice", f.field)));
            }
        }
        if self.prefix.is_empty() {
            return Err(gen_error("prefix must be non-empty"));
        }
        let total = match self.method {
            GenMethod::Grid => self
                .fields
                .iter()
                .map(|f| f.points.unwrap_or(3))
                .try_fold(1usize, |acc, p| acc.checked_mul(p))
                .unwrap_or(usize::MAX),
            GenMethod::Random | GenMethod::LatinHypercube => self.count,
        };
        if total == 0 {
            return Err(gen_error(
                "the spec generates 0 scenarios (count must be >= 1)",
            ));
        }
        if total > MAX_FLEET_SIZE {
            return Err(gen_error(format!(
                "the spec generates {total} scenarios, above the {MAX_FLEET_SIZE} cap"
            )));
        }
        Ok(total)
    }

    /// The sample matrix: one row per scenario, one column per field, in
    /// field declaration order. Deterministic in (spec, seed).
    fn samples(&self, total: usize) -> Vec<Vec<f64>> {
        match self.method {
            GenMethod::Grid => {
                let axes: Vec<Vec<f64>> = self.fields.iter().map(|f| f.grid_values()).collect();
                let mut rows = Vec::with_capacity(total);
                let mut idx = vec![0usize; axes.len()];
                loop {
                    rows.push(idx.iter().zip(&axes).map(|(&i, ax)| ax[i]).collect());
                    // Odometer increment, last field fastest.
                    let mut k = axes.len();
                    loop {
                        if k == 0 {
                            return rows;
                        }
                        k -= 1;
                        idx[k] += 1;
                        if idx[k] < axes[k].len() {
                            break;
                        }
                        idx[k] = 0;
                    }
                }
            }
            GenMethod::Random => {
                let mut rng = Xoshiro256PlusPlus::new(self.seed);
                (0..total)
                    .map(|_| {
                        self.fields
                            .iter()
                            .map(|f| f.min + (f.max - f.min) * rng.next_f64())
                            .collect()
                    })
                    .collect()
            }
            GenMethod::LatinHypercube => {
                let mut rng = Xoshiro256PlusPlus::new(self.seed);
                // Per field: a random permutation of the strata, plus a
                // uniform jitter inside each stratum.
                let columns: Vec<Vec<f64>> = self
                    .fields
                    .iter()
                    .map(|f| {
                        let mut strata: Vec<usize> = (0..total).collect();
                        // Fisher–Yates with the workspace RNG.
                        for i in (1..total).rev() {
                            let j = rng.next_bounded(i as u64 + 1) as usize;
                            strata.swap(i, j);
                        }
                        strata
                            .into_iter()
                            .map(|stratum| {
                                let u = (stratum as f64 + rng.next_f64()) / total as f64;
                                f.min + (f.max - f.min) * u
                            })
                            .collect()
                    })
                    .collect();
                (0..total)
                    .map(|row| columns.iter().map(|c| c[row]).collect())
                    .collect()
            }
        }
    }
}

/// The record `write_fleet` drops next to the generated files: the exact
/// spec and base scenario, so the fleet can be regenerated bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Tool that produced the fleet (`wsnem gen`).
    pub generator: String,
    /// Schema version the generated files were written against.
    pub schema_version: u32,
    /// The generator spec.
    pub spec: GenSpec,
    /// The base scenario every sample was applied to.
    pub base: Scenario,
    /// Generated file names, in sample order.
    pub files: Vec<String>,
}

/// Generate the fleet in memory: one validated scenario per sample.
///
/// Scenario `i` (1-based) is the base scenario with sample row `i` applied
/// field by field, renamed `<prefix>-<i>` (zero-padded to the fleet size)
/// and stamped with the current [`SCHEMA_VERSION`]. Every generated
/// scenario is validated; an out-of-range sample (say, a λ past the stable-
/// queue bound) fails loudly with the sample's field values in the error.
pub fn generate(base: &Scenario, spec: &GenSpec) -> Result<Vec<Scenario>, ScenarioError> {
    let total = spec.validate()?;
    base.validate()?;
    let width = total.to_string().len();
    let samples = spec.samples(total);
    let mut out = Vec::with_capacity(total);
    for (row, sample) in samples.iter().enumerate() {
        let mut s = base.clone();
        s.schema_version = SCHEMA_VERSION;
        let mut described = Vec::with_capacity(sample.len());
        for (f, &raw) in spec.fields.iter().zip(sample) {
            let value = if f.field.is_integer() {
                raw.round().max(1.0)
            } else {
                raw
            };
            f.field.apply(&mut s, value)?;
            described.push(format!("{}={value}", f.field));
        }
        s.name = format!("{}-{:0width$}", spec.prefix, row + 1);
        s.description = format!(
            "generated from `{}` by wsnem gen ({}, seed {}): {}",
            base.name,
            spec.method.name(),
            spec.seed,
            described.join(", ")
        );
        s.validate().map_err(|e| {
            gen_error(format!(
                "sample {} ({}) is invalid: {e}",
                row + 1,
                described.join(", ")
            ))
        })?;
        out.push(s);
    }
    Ok(out)
}

/// Generate a fleet and write it into `dir` (created if missing): one
/// scenario file per sample plus [`MANIFEST_FILE`]. Returns the manifest.
pub fn write_fleet(
    dir: impl AsRef<Path>,
    base: &Scenario,
    spec: &GenSpec,
    format: FileFormat,
) -> Result<Manifest, ScenarioError> {
    let dir = dir.as_ref();
    let fleet = generate(base, spec)?;
    std::fs::create_dir_all(dir)
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", dir.display())))?;
    let mut names = Vec::with_capacity(fleet.len());
    for s in &fleet {
        let name = format!("{}.{}", s.name, format.extension());
        let path = dir.join(&name);
        let text = files::to_string(s, format)?;
        std::fs::write(&path, text)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        names.push(name);
    }
    let manifest = Manifest {
        generator: "wsnem gen".into(),
        schema_version: SCHEMA_VERSION,
        spec: spec.clone(),
        base: base.clone(),
        files: names,
    };
    let path = dir.join(MANIFEST_FILE);
    let text =
        serde_json::to_string_pretty(&manifest).map_err(|e| ScenarioError::Parse(e.to_string()))?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;

    fn spec(method: GenMethod, count: usize, fields: Vec<FieldSpec>) -> GenSpec {
        GenSpec {
            method,
            count,
            seed: 42,
            prefix: "fleet".into(),
            fields,
        }
    }

    fn field(field: GenField, min: f64, max: f64, points: Option<usize>) -> FieldSpec {
        FieldSpec {
            field,
            min,
            max,
            points,
        }
    }

    #[test]
    fn grid_is_the_cartesian_product_in_odometer_order() {
        // Binary-exact range endpoints so the evenly spaced grid values
        // compare with `==`.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![
                field(GenField::Lambda, 0.25, 0.75, Some(3)),
                field(GenField::ServiceMean, 0.125, 0.25, Some(2)),
            ],
        );
        let fleet = generate(&builtin::paper_defaults(), &s).unwrap();
        assert_eq!(fleet.len(), 6);
        let lambdas: Vec<f64> = fleet.iter().map(|x| x.cpu.lambda).collect();
        assert_eq!(lambdas, vec![0.25, 0.25, 0.5, 0.5, 0.75, 0.75]);
        // service-mean 0.125 → mu 8, 0.25 → mu 4; last field varies fastest.
        let mus: Vec<f64> = fleet.iter().map(|x| x.cpu.mu).collect();
        assert_eq!(mus, vec![8.0, 4.0, 8.0, 4.0, 8.0, 4.0]);
        // Names are zero-padded to the fleet size and carry the values.
        assert_eq!(fleet[0].name, "fleet-1");
        assert!(fleet[3].description.contains("lambda=0.5"));
        assert!(fleet[3].description.contains("service-mean"));
        assert_eq!(fleet.last().unwrap().schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn single_point_axis_collapses_to_min() {
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::Lambda, 0.3, 0.9, Some(1))],
        );
        let fleet = generate(&builtin::paper_defaults(), &s).unwrap();
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet[0].cpu.lambda, 0.3);
    }

    #[test]
    fn random_sampling_is_seed_deterministic_and_in_range() {
        let mk = |seed: u64| {
            let mut sp = spec(
                GenMethod::Random,
                40,
                vec![field(GenField::Lambda, 0.1, 0.9, None)],
            );
            sp.seed = seed;
            generate(&builtin::paper_defaults(), &sp).unwrap()
        };
        let a = mk(7);
        let b = mk(7);
        let c = mk(8);
        assert_eq!(a, b, "same seed, same fleet");
        assert_ne!(
            a.iter().map(|s| s.cpu.lambda).collect::<Vec<_>>(),
            c.iter().map(|s| s.cpu.lambda).collect::<Vec<_>>(),
            "different seed, different samples"
        );
        assert!(a.iter().all(|s| (0.1..=0.9).contains(&s.cpu.lambda)));
    }

    #[test]
    fn latin_hypercube_hits_every_stratum_once_per_field() {
        let n = 25;
        let s = spec(
            GenMethod::LatinHypercube,
            n,
            vec![
                field(GenField::Lambda, 0.0, 1.0, None),
                field(GenField::ServiceMean, 0.05, 0.15, None),
            ],
        );
        // Raw sample matrix (before scenario validation rejects λ=0 etc.).
        let rows = s.samples(n);
        for (col, f) in s.fields.iter().enumerate() {
            let mut strata: Vec<usize> = rows
                .iter()
                .map(|r| {
                    let u = (r[col] - f.min) / (f.max - f.min);
                    ((u * n as f64) as usize).min(n - 1)
                })
                .collect();
            strata.sort_unstable();
            assert_eq!(
                strata,
                (0..n).collect::<Vec<_>>(),
                "field {} misses a stratum",
                f.field
            );
        }
    }

    #[test]
    fn integer_fields_round_and_rebuild_topology() {
        let s = spec(
            GenMethod::Grid,
            0,
            vec![
                field(GenField::TopologyFanout, 1.0, 3.0, Some(3)),
                field(GenField::NodeCount, 4.0, 4.4, Some(1)),
            ],
        );
        let fleet = generate(&builtin::tree_collection(), &s).unwrap();
        assert_eq!(fleet.len(), 3);
        for (i, sc) in fleet.iter().enumerate() {
            let net = sc.network.as_ref().unwrap();
            assert_eq!(net.nodes.len(), 4, "node-count rounds 4.4 → 4");
            assert_eq!(net.nodes[0].name, "n001");
            match net.topology {
                Some(TopologySpec::Tree { fanout }) => assert_eq!(fanout, i + 1),
                ref other => panic!("expected a tree, got {other:?}"),
            }
        }
    }

    #[test]
    fn node_count_scales_template_networks_by_count() {
        let mut base = builtin::tree_collection();
        let net = base.network.as_mut().unwrap();
        net.nodes.clear();
        net.template = Some(crate::schema::TemplateSpec {
            count: 2,
            prefix: "n".into(),
            // Small enough that the tree root stays stable while the
            // sampler scales the count into the thousands.
            event_rate: 1e-5,
            tx_per_event: 1.0,
            rx_rate: 0.05,
        });
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::NodeCount, 5000.0, 5000.0, Some(1))],
        );
        let fleet = generate(&base, &s).unwrap();
        assert_eq!(fleet.len(), 1);
        let net = fleet[0].network.as_ref().unwrap();
        assert!(net.nodes.is_empty(), "template nets stay node-free");
        assert_eq!(net.template.as_ref().unwrap().count, 5000);
        fleet[0].validate().unwrap();
    }

    #[test]
    fn radio_check_interval_preserves_the_mac_variant() {
        // X-MAC base keeps X-MAC with the swept check interval.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::RadioCheckInterval, 0.2, 0.4, Some(2))],
        );
        let fleet = generate(&builtin::mac_heterogeneous_tree(), &s).unwrap();
        match fleet[0].network.as_ref().unwrap().radio {
            Some(RadioSpec::XMac {
                check_interval_s, ..
            }) => assert!((check_interval_s - 0.2).abs() < 1e-12),
            ref other => panic!("expected X-MAC, got {other:?}"),
        }
        // A preset base gets a valid B-MAC installed.
        let fleet = generate(&builtin::tree_collection(), &s).unwrap();
        match fleet[1].network.as_ref().unwrap().radio {
            Some(RadioSpec::BMac {
                check_interval_s,
                preamble_s,
            }) => {
                assert!((check_interval_s - 0.4).abs() < 1e-12);
                assert!(preamble_s >= check_interval_s, "B-MAC validity");
            }
            ref other => panic!("expected B-MAC, got {other:?}"),
        }
    }

    #[test]
    fn invalid_specs_and_samples_are_rejected_with_context() {
        // No fields.
        let s = spec(GenMethod::Grid, 0, vec![]);
        assert!(generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string()
            .contains("--field"));
        // Inverted range.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::Lambda, 2.0, 1.0, None)],
        );
        assert!(generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string()
            .contains("invalid range"));
        // Duplicate field.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![
                field(GenField::Lambda, 0.1, 0.5, None),
                field(GenField::Lambda, 0.1, 0.5, None),
            ],
        );
        assert!(generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string()
            .contains("twice"));
        // Zero samples.
        let s = spec(
            GenMethod::Random,
            0,
            vec![field(GenField::Lambda, 0.1, 0.5, None)],
        );
        assert!(generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string()
            .contains("0 scenarios"));
        // Grid blow-up guard.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![
                field(GenField::Lambda, 0.1, 0.5, Some(1000)),
                field(GenField::ServiceMean, 0.1, 0.2, Some(1000)),
            ],
        );
        assert!(generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string()
            .contains("cap"));
        // A sample past the stable-queue bound names the offending values.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::Lambda, 5.0, 100.0, Some(2))],
        );
        let err = generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string();
        assert!(err.contains("sample"), "{err}");
        assert!(err.contains("lambda=100"), "{err}");
        // Network-only fields demand a network.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::TopologyFanout, 1.0, 2.0, Some(2))],
        );
        let err = generate(&builtin::paper_defaults(), &s)
            .unwrap_err()
            .to_string();
        assert!(err.contains("network section"), "{err}");
        // Mesh topologies cannot be rewritten.
        let s = spec(
            GenMethod::Grid,
            0,
            vec![field(GenField::NodeCount, 2.0, 3.0, Some(2))],
        );
        let err = generate(&builtin::mesh_field(), &s)
            .unwrap_err()
            .to_string();
        assert!(err.contains("mesh"), "{err}");
    }

    #[test]
    fn write_fleet_emits_files_and_manifest_that_round_trip() {
        let dir = std::env::temp_dir().join("wsnem-gen-write-fleet-test");
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec(
            GenMethod::LatinHypercube,
            5,
            vec![field(GenField::Lambda, 0.2, 0.8, None)],
        );
        let base = builtin::paper_defaults();
        let manifest = write_fleet(&dir, &base, &s, FileFormat::Toml).unwrap();
        assert_eq!(manifest.files.len(), 5);
        assert_eq!(manifest.files[0], "fleet-1.toml");
        assert_eq!(manifest.base, base);
        // Every emitted file loads back as a valid scenario.
        for name in &manifest.files {
            let loaded = files::load(dir.join(name)).unwrap();
            assert!(loaded.name.starts_with("fleet-"));
        }
        // The manifest itself round-trips and regenerates the same fleet.
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let back: Manifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(
            generate(&back.base, &back.spec).unwrap(),
            generate(&base, &s).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_are_zero_padded_to_the_fleet_size() {
        let s = spec(
            GenMethod::Random,
            12,
            vec![field(GenField::Lambda, 0.2, 0.8, None)],
        );
        let fleet = generate(&builtin::paper_defaults(), &s).unwrap();
        assert_eq!(fleet[0].name, "fleet-01");
        assert_eq!(fleet[9].name, "fleet-10");
        let mut names: Vec<&str> = fleet.iter().map(|x| x.name.as_str()).collect();
        let sorted = {
            let mut v = names.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(names, sorted, "lexicographic order == sample order");
        names.dedup();
        assert_eq!(names.len(), 12, "names are unique");
    }

    #[test]
    fn field_and_method_names_round_trip() {
        for f in GenField::ALL {
            assert_eq!(GenField::parse_name(f.name()), Some(f));
        }
        assert_eq!(GenField::parse_name("bogus"), None);
        for m in [
            GenMethod::Grid,
            GenMethod::Random,
            GenMethod::LatinHypercube,
        ] {
            assert_eq!(GenMethod::parse_name(m.name()), Some(m));
        }
        assert_eq!(GenMethod::parse_name("bogus"), None);
    }
}
