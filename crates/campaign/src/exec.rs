//! Campaign execution: the serial reference executor and the sharded pool
//! executor, guaranteed to produce identical results.
//!
//! # The any-shard-count determinism argument
//!
//! 1. Every run's seed is a pure function of `(campaign_seed, cell_index,
//!    replicate)` ([`crate::seed::cell_seed`]) — never of the executing
//!    thread or claim order.
//! 2. A run folds into a [`CellStats`] on the shard that executed it
//!    ([`CellStats::of_run`]); only that compact, order-tagged accumulator
//!    crosses threads.
//! 3. The driver scatters the per-run accumulators back into unit order
//!    (the pool preserves input order) and merges each cell's replicates
//!    **left to right in replicate order** — the same merge tree the
//!    serial executor builds.
//!
//! Steps 1–3 make the result — and hence the JSON artifact bytes — a pure
//! function of the spec, for *any* shard count. `run_serial` exists as the
//! plain-loop oracle this equivalence is tested against (the same pattern
//! as the sparse engine's `run_sparse_reference`).

use crate::cell::CellStats;
use crate::pool;
use crate::progress::{ProgressConfig, ProgressMeta, Reporter, UnitDone};
use crate::seed::cell_seed;
use crate::spec::CampaignSpec;

use std::collections::BTreeMap;
use std::time::Instant;

/// One cell of a finished campaign: grid coordinates plus the merged
/// statistics of its replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scenario-major, model-innermost cell index.
    pub cell_index: usize,
    /// Scenario axis label.
    pub scenario: String,
    /// Protocol axis label.
    pub protocol: String,
    /// Channel-model label of the cell: the explicit axis entry, or the
    /// scenario's intrinsic channel when no axis was declared.
    pub model: String,
    /// Knob annotations of the scenario point.
    pub knobs: BTreeMap<String, f64>,
    /// Merged replicate statistics.
    pub stats: CellStats,
}

/// A finished campaign: every cell's merged statistics, in cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Campaign seed all run seeds derived from.
    pub seed: u64,
    /// Replicates per cell.
    pub replicates: u32,
    /// Protocol axis labels (cells are scenario-major over these).
    pub protocols: Vec<String>,
    /// Scenario axis labels.
    pub scenarios: Vec<String>,
    /// Explicit channel-model axis labels; empty when the campaign had no
    /// model dimension (scenarios kept their intrinsic channels).
    pub models: Vec<String>,
    /// Cell reports, indexed scenario-major with the model axis innermost:
    /// `(scenario_idx · protocols + protocol_idx) · models + model_idx`.
    pub cells: Vec<CellReport>,
}

impl CampaignResult {
    /// Width of the model dimension (1 when no explicit axis).
    fn model_count(&self) -> usize {
        self.models.len().max(1)
    }

    /// The cell at `(scenario_idx, protocol_idx)` in the first model
    /// column — without an explicit model axis, *the* cell there.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, scenario_idx: usize, protocol_idx: usize) -> &CellReport {
        self.cell_model(scenario_idx, protocol_idx, 0)
    }

    /// The cell at `(scenario_idx, protocol_idx, model_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn cell_model(
        &self,
        scenario_idx: usize,
        protocol_idx: usize,
        model_idx: usize,
    ) -> &CellReport {
        assert!(protocol_idx < self.protocols.len(), "protocol index");
        assert!(model_idx < self.model_count(), "model index");
        let cell =
            (scenario_idx * self.protocols.len() + protocol_idx) * self.model_count() + model_idx;
        &self.cells[cell]
    }
}

/// Executes one `(cell, replicate)` unit: derive the seed, run, fold.
fn run_unit(spec: &CampaignSpec, unit: usize) -> CellStats {
    let replicates = spec.replicates as usize;
    let cell = unit / replicates;
    let replicate = unit % replicates;
    // Model axis innermost, then protocols, then scenarios — the same
    // decomposition `CampaignSpec::cell_index_model` composes.
    let model_idx = cell % spec.model_count();
    let rest = cell / spec.model_count();
    let protocol_idx = rest % spec.protocols.len();
    let scenario_idx = rest / spec.protocols.len();
    let seed = cell_seed(spec.seed, cell as u64, replicate as u64);
    let point = &spec.scenarios[scenario_idx];
    let mut seeded = point.scenario().seeded(seed);
    if let Some(model) = spec.models.get(model_idx) {
        seeded = seeded.model(*model);
    }
    let result = spec.protocols[protocol_idx].run(&seeded, point.knobs());
    CellStats::of_run(&result, &spec.metrics)
}

/// Merges per-unit accumulators into cell reports, always left to right in
/// replicate order — the canonical merge tree both executors share.
fn fold(spec: &CampaignSpec, unit_stats: Vec<CellStats>) -> CampaignResult {
    let replicates = spec.replicates as usize;
    debug_assert_eq!(unit_stats.len(), spec.unit_count());
    let mut units = unit_stats.into_iter();
    let mut cells = Vec::with_capacity(spec.cell_count());
    for (scenario_idx, point) in spec.scenarios.iter().enumerate() {
        for (protocol_idx, proto) in spec.protocols.iter().enumerate() {
            for model_idx in 0..spec.model_count() {
                let mut acc = units.next().expect("first replicate");
                for _ in 1..replicates {
                    acc.merge(&units.next().expect("replicate"));
                }
                let model = match spec.models.get(model_idx) {
                    Some(m) => m.label(),
                    None => point.scenario().channel_model().label(),
                };
                cells.push(CellReport {
                    cell_index: spec.cell_index_model(scenario_idx, protocol_idx, model_idx),
                    scenario: point.label().to_string(),
                    protocol: proto.label().to_string(),
                    model,
                    knobs: point.knobs().clone(),
                    stats: acc,
                });
            }
        }
    }
    CampaignResult {
        name: spec.name.clone(),
        seed: spec.seed,
        replicates: spec.replicates,
        protocols: spec
            .protocols
            .iter()
            .map(|p| p.label().to_string())
            .collect(),
        scenarios: spec
            .scenarios
            .iter()
            .map(|s| s.label().to_string())
            .collect(),
        models: spec.models.iter().map(|m| m.label()).collect(),
        cells,
    }
}

impl CampaignSpec {
    /// Runs the campaign on all available cores.
    pub fn run(&self) -> CampaignResult {
        self.run_sharded(pool::default_shards())
    }

    /// Runs the campaign on exactly `shards` worker threads. The result is
    /// identical for every `shards` value (see the [module docs](self)).
    pub fn run_sharded(&self, shards: usize) -> CampaignResult {
        let units: Vec<usize> = (0..self.unit_count()).collect();
        let stats = pool::shard_map_with(shards, units, |u| run_unit(self, u));
        fold(self, stats)
    }

    /// [`run_sharded`](CampaignSpec::run_sharded) with live progress
    /// reporting (see [`crate::progress`]).
    ///
    /// Each worker job is wrapped to send one content-free completion
    /// event (unit index + wall time) to a reporter thread after the
    /// unit's statistics are already final; the execution, fold, and
    /// artifact paths are otherwise *identical* to `run_sharded`, so the
    /// result — and its JSON bytes — are the same with reporting on or
    /// off. With a disabled config this *is* `run_sharded`.
    ///
    /// # Errors
    ///
    /// Fails only on opening the configured JSONL sink, before any
    /// simulation work starts.
    pub fn run_sharded_progress(
        &self,
        shards: usize,
        progress: &ProgressConfig,
    ) -> std::io::Result<CampaignResult> {
        if !progress.enabled() {
            return Ok(self.run_sharded(shards));
        }
        let unit_count = self.unit_count();
        let reporter = Reporter::spawn(
            ProgressMeta {
                campaign: self.name.clone(),
                cells: self.cell_count(),
                replicates: self.replicates as usize,
                shards: shards.clamp(1, unit_count.max(1)),
            },
            progress,
        )?;
        let tx = reporter.sender();
        let units: Vec<usize> = (0..unit_count).collect();
        let stats = pool::shard_map_with(shards, units, |u| {
            let t0 = Instant::now();
            let s = run_unit(self, u);
            // Send after the stats are final; a full channel only briefly
            // blocks this worker, and a hung-up reporter is ignored.
            let _ = tx.send(UnitDone {
                unit: u,
                wall_secs: t0.elapsed().as_secs_f64(),
            });
            s
        });
        drop(tx);
        reporter.finish();
        Ok(fold(self, stats))
    }

    /// The single-threaded reference executor: a plain loop over units in
    /// order, folding as it goes — the oracle [`run_sharded`] is pinned
    /// against.
    ///
    /// [`run_sharded`]: CampaignSpec::run_sharded
    pub fn run_serial(&self) -> CampaignResult {
        let stats: Vec<CellStats> = (0..self.unit_count()).map(|u| run_unit(self, u)).collect();
        fold(self, stats)
    }
}
