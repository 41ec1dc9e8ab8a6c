//! The three workloads, built through the program's public entry points.
//!
//! Each campaign workload exists twice: the program's own spec function
//! (`exp::t4::energy_spec`, `campaigns::feedback_grid_spec`), run once per
//! process as the reference, and a copy built here through the same
//! public `CampaignSpec` builder calls whose protocol closures pass through
//! a [`Probe`]. Untraced, the probe only checks each run's totals; traced,
//! it also times the engine call, carries counting hooks and refolds the
//! run. Every repetition must reproduce the reference bit for bit, which
//! pins the copy to the program's grid.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lowsense::{Ladder, LowSensing, Params};
use lowsense_baselines::{NoCdBackoff, PolynomialBackoff, ProbBeb, WindowedBeb};
use lowsense_campaign::seed::cell_seed;
use lowsense_campaign::{CampaignResult, CampaignSpec, CellStats, ScenarioPoint};
use lowsense_experiments::campaigns::feedback_grid_spec;
use lowsense_experiments::exp::t4::energy_spec;
use lowsense_sim::arrivals::{ArrivalProcess, Batch};
use lowsense_sim::feedback::ChannelModel;
use lowsense_sim::hooks::{Hooks, NoHooks};
use lowsense_sim::jamming::{Jammer, NoJam};
use lowsense_sim::metrics::{RunResult, Totals};
use lowsense_sim::scenario::{scenarios, DynScenario, Scenario};

use crate::machine::Fnv;
use crate::trace::{Counters, Span, Trace};

/// Worker threads of every campaign workload (the box has two cores).
pub const SHARDS: usize = 2;
/// Batch sizes of the energy sweep: `2^6 … 2^13`.
pub const ENERGY_LOG2_N: std::ops::RangeInclusive<u32> = 6..=13;
/// Replicates per energy-sweep cell.
pub const ENERGY_REPLICATES: u32 = 8;
/// Batch size of every feedback-grid cell.
pub const GRID_N: u64 = 384;
/// Replicates per feedback-grid cell.
pub const GRID_REPLICATES: u32 = 2;
/// Stations injected at slot 0 by the million-station run.
pub const MILLION_STATIONS: u64 = 1_000_000;
/// Last slot the million-station run simulates.
pub const MILLION_HORIZON: u64 = 32;

/// Hook sampling period of campaign runs (event slots).
const CAMPAIGN_SAMPLE_PERIOD: u64 = 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The T4 energy sweep: per-packet metrics on, drained batches.
    EnergySweep,
    /// The feedback-model grid: totals only, livelocked no-CD cells.
    FeedbackGrid,
    /// One million-station batch over a short horizon, single thread.
    MillionStation,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::EnergySweep,
        Workload::FeedbackGrid,
        Workload::MillionStation,
    ];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnergySweep => "energy_sweep",
            Workload::FeedbackGrid => "feedback_grid",
            Workload::MillionStation => "million_station",
        }
    }

    /// Largest station count of any run, which sizes the state lane.
    pub fn max_stations(self) -> u64 {
        match self {
            Workload::EnergySweep => 1 << ENERGY_LOG2_N.end(),
            Workload::FeedbackGrid => GRID_N,
            Workload::MillionStation => MILLION_STATIONS,
        }
    }

    /// Whether runs record per-packet metrics (only the energy sweep).
    pub fn per_packet(self) -> bool {
        self == Workload::EnergySweep
    }
}

/// The sparse protocols the workloads run, with the factories the
/// program's specs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Lsb,
    BebWindow,
    BebProb,
    Poly,
    JzNocd,
}

/// The feedback grid's protocol axis, in the program's order.
const GRID_PROTOCOLS: [(&str, Proto); 5] = [
    ("low-sensing", Proto::Lsb),
    ("beb-window", Proto::BebWindow),
    ("beb-prob", Proto::BebProb),
    ("poly(k=2)", Proto::Poly),
    ("jz-nocd", Proto::JzNocd),
];

/// Hook sets that can ride along with every protocol the workloads run.
trait AnyHooks:
    Hooks<LowSensing>
    + Hooks<WindowedBeb>
    + Hooks<ProbBeb>
    + Hooks<PolynomialBackoff>
    + Hooks<NoCdBackoff>
{
}

impl<T> AnyHooks for T where
    T: Hooks<LowSensing>
        + Hooks<WindowedBeb>
        + Hooks<ProbBeb>
        + Hooks<PolynomialBackoff>
        + Hooks<NoCdBackoff>
{
}

fn run_proto<A, J, H>(proto: Proto, sc: &Scenario<A, J>, hooks: &mut H) -> RunResult
where
    A: ArrivalProcess + Clone,
    J: Jammer + Clone,
    H: AnyHooks,
{
    match proto {
        Proto::Lsb => sc.run_sparse_hooked(|_| LowSensing::new(Params::default()), hooks),
        Proto::BebWindow => sc.run_sparse_hooked(|rng| WindowedBeb::new(2, 40, rng), hooks),
        Proto::BebProb => sc.run_sparse_hooked(|_| ProbBeb::new(0.5), hooks),
        Proto::Poly => sc.run_sparse_hooked(|rng| PolynomialBackoff::new(2, 2, rng), hooks),
        Proto::JzNocd => sc.run_sparse_hooked(|_| NoCdBackoff::new(4.0, 4096.0, 2.0), hooks),
    }
}

/// The output checks every run must pass (see the README).
pub fn run_ok(t: &Totals, require_drain: bool) -> bool {
    t.active_slots == t.empty_active + t.successes + t.collision_slots + t.jammed_active
        && t.successes <= t.arrivals
        && t.accesses() > 0
        && (!require_drain || t.successes == t.arrivals)
}

/// What the traced probe records about one run.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// The run's seed, which identifies its `(cell, replicate)`.
    pub seed: u64,
    /// Engine call start, seconds since the trace epoch.
    pub start: f64,
    /// Engine call end.
    pub engine_end: f64,
    /// End of the refold (`CellStats::of_run`).
    pub fold_end: f64,
    /// Hook counters of the run.
    pub counters: Counters,
    /// The run's totals.
    pub totals: Totals,
    /// The refolded statistics.
    pub stats: CellStats,
}

/// Wraps every engine call of a workload: counts and checks runs, and in
/// traced mode times them and records [`UnitRecord`]s.
#[derive(Debug)]
pub struct Probe {
    /// Trace epoch when tracing, else `None`.
    epoch: Option<Instant>,
    sample_period: u64,
    require_drain: bool,
    attempted: AtomicU64,
    failed: AtomicU64,
    units: Mutex<Vec<UnitRecord>>,
}

impl Probe {
    fn new(epoch: Option<Instant>, sample_period: u64, require_drain: bool) -> Arc<Self> {
        Arc::new(Probe {
            epoch,
            sample_period,
            require_drain,
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            units: Mutex::new(Vec::new()),
        })
    }

    fn run<A, J>(&self, proto: Proto, sc: &Scenario<A, J>) -> RunResult
    where
        A: ArrivalProcess + Clone,
        J: Jammer + Clone,
    {
        // Relaxed: plain statistics, read after the pool has joined.
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let result = match self.epoch {
            None => run_proto(proto, sc, &mut NoHooks),
            Some(epoch) => {
                let mut counters = Counters::new(self.sample_period);
                let start = epoch.elapsed().as_secs_f64();
                let result = run_proto(proto, sc, &mut counters);
                let engine_end = epoch.elapsed().as_secs_f64();
                let stats = CellStats::of_run(&result, &[]);
                let fold_end = epoch.elapsed().as_secs_f64();
                self.units
                    .lock()
                    .expect("a shard panicked while recording a unit")
                    .push(UnitRecord {
                        seed: sc.sim_config().seed,
                        start,
                        engine_end,
                        fold_end,
                        counters,
                        totals: result.totals,
                        stats,
                    });
                result
            }
        };
        if !run_ok(&result.totals, self.require_drain) {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn take_units(&self) -> Vec<UnitRecord> {
        std::mem::take(&mut *self.units.lock().expect("unit log poisoned"))
    }
}

/// The result a workload produces, compared bit for bit across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A campaign's merged cells.
    Campaign(CampaignResult),
    /// A single run's totals.
    Totals(Totals),
}

impl Output {
    /// Digest of the artifact and of every field's exact bits (`Debug`
    /// prints each float in its shortest round-trip form).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Output::Campaign(r) => {
                h.write(r.to_json().as_bytes());
                h.write(format!("{:?}", r.cells).as_bytes());
            }
            Output::Totals(t) => h.write(format!("{t:?}").as_bytes()),
        }
        h.finish()
    }

    /// Channel accesses over all runs.
    pub fn accesses(&self) -> u64 {
        match self {
            Output::Campaign(r) => r
                .cells
                .iter()
                .map(|c| c.stats.sends + c.stats.listens)
                .sum(),
            Output::Totals(t) => t.accesses(),
        }
    }
}

/// A workload ready to run: its grid or scenario, built by [`setup`].
pub struct Prepared {
    seed: u64,
    probe: Arc<Probe>,
    job: Job,
}

enum Job {
    Campaign(CampaignSpec),
    Single(Scenario<Batch, NoJam>),
}

/// Builds a workload: the benchmark's set-up. Also builds the protocol's
/// window ladder, the work the process's first `LowSensing::new` does.
pub fn setup(workload: Workload, seed: u64, epoch: Option<Instant>) -> Prepared {
    let ladder = Ladder::build(Params::default(), Params::default().w_min());
    std::hint::black_box(&ladder);
    let period = match workload {
        Workload::MillionStation => 1,
        _ => CAMPAIGN_SAMPLE_PERIOD,
    };
    let probe = Probe::new(epoch, period, workload == Workload::EnergySweep);
    let job = match workload {
        Workload::EnergySweep => Job::Campaign(energy_grid(seed, &probe)),
        Workload::FeedbackGrid => Job::Campaign(feedback_grid(seed, &probe)),
        Workload::MillionStation => Job::Single(million_scenario(seed)),
    };
    Prepared { seed, probe, job }
}

fn energy_ns() -> Vec<u64> {
    ENERGY_LOG2_N.map(|k| 1u64 << k).collect()
}

/// `exp::t4::energy_spec`, rebuilt with probed protocol closures.
fn energy_grid(seed: u64, probe: &Arc<Probe>) -> CampaignSpec {
    let probe = Arc::clone(probe);
    CampaignSpec::new("energy-finite")
        .seed(seed)
        .replicates(ENERGY_REPLICATES)
        .scenarios(
            energy_points()
                .into_iter()
                .map(|(sc, n, rho)| ScenarioPoint::new(sc).knob("n", n as f64).knob("rho", rho)),
        )
        .protocol("low-sensing", move |sc, _| probe.run(Proto::Lsb, sc))
}

/// The energy sweep's scenario axis in cell order, with each point's batch
/// size and jamming rate: for each size, the unjammed drain, then the
/// drain under 10% random jamming.
fn energy_points() -> Vec<(DynScenario, u64, f64)> {
    energy_ns()
        .into_iter()
        .flat_map(|n| {
            [
                (scenarios::batch_drain(n).boxed(), n, 0.0),
                (scenarios::random_jam_batch(n, 0.1).boxed(), n, 0.1),
            ]
        })
        .collect()
}

/// `campaigns::feedback_grid_spec`, rebuilt with probed protocol closures.
fn feedback_grid(seed: u64, probe: &Arc<Probe>) -> CampaignSpec {
    let horizon = GRID_N.saturating_mul(200);
    let mut spec = CampaignSpec::new("feedback_grid")
        .seed(seed)
        .replicates(GRID_REPLICATES)
        .scenario(
            ScenarioPoint::new(
                scenarios::batch_drain(GRID_N)
                    .until_slot(horizon)
                    .totals_only()
                    .boxed(),
            )
            .knob("n", GRID_N as f64),
        )
        .scenario(
            ScenarioPoint::new(
                scenarios::random_jam_batch(GRID_N, 0.2)
                    .until_slot(horizon)
                    .totals_only()
                    .boxed(),
            )
            .knob("n", GRID_N as f64)
            .knob("rho", 0.2),
        )
        .models([
            ChannelModel::Ternary,
            ChannelModel::NoCollisionDetection,
            ChannelModel::CostlyCollisions { alpha: 0.5 },
        ]);
    for (label, proto) in GRID_PROTOCOLS {
        let probe = Arc::clone(probe);
        spec = spec.protocol(label, move |sc, _| probe.run(proto, sc));
    }
    spec
}

fn million_scenario(seed: u64) -> Scenario<Batch, NoJam> {
    scenarios::batch_drain(MILLION_STATIONS)
        .until_slot(MILLION_HORIZON)
        .totals_only()
        .seed(seed)
}

/// The workload exactly as the program defines it, run once per process
/// as the reference every repetition must reproduce.
pub fn reference(workload: Workload, seed: u64) -> Output {
    match workload {
        Workload::EnergySweep => {
            Output::Campaign(energy_spec(&energy_ns(), ENERGY_REPLICATES, seed).run_sharded(SHARDS))
        }
        Workload::FeedbackGrid => {
            Output::Campaign(feedback_grid_spec(GRID_N, GRID_REPLICATES, seed).run_sharded(SHARDS))
        }
        Workload::MillionStation => Output::Totals(
            million_scenario(seed)
                .run_sparse(|_| LowSensing::new(Params::default()))
                .totals,
        ),
    }
}

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Seconds from the first engine call to the finished artifact.
    pub wall: f64,
    /// Runs attempted.
    pub runs: u64,
    /// Runs that failed their output check.
    pub failed: u64,
    /// The workload's result.
    pub output: Output,
    /// Index of the traced `campaign.run` span, if any.
    pub run_span: Option<usize>,
}

impl Prepared {
    /// Runs the workload once. Campaigns run on [`SHARDS`] threads and
    /// serialize their artifact; the million-station run is one engine
    /// call on this thread.
    pub fn execute(&self, mut trace: Option<(&mut Trace, usize)>) -> Rep {
        let t0 = Instant::now();
        let (output, run_span) = match &self.job {
            Job::Campaign(spec) => {
                let (result, run_span) =
                    timed(&mut trace, "campaign.run", || spec.run_sharded(SHARDS));
                let (json, _) = timed(&mut trace, "campaign.artifact", || result.to_json());
                std::hint::black_box(json);
                (Output::Campaign(result), run_span)
            }
            Job::Single(sc) => (Output::Totals(self.probe.run(Proto::Lsb, sc).totals), None),
        };
        let wall = t0.elapsed().as_secs_f64();
        Rep {
            wall,
            runs: self.probe.attempted.swap(0, Ordering::Relaxed),
            failed: self.probe.failed.swap(0, Ordering::Relaxed),
            output,
            run_span,
        }
    }

    /// Takes the traced units of the last execution and attaches their
    /// spans to `trace`: for a campaign, a `campaign.unit` span per run
    /// under `rep.run_span` holding `engine.run` and `campaign.fold`; for a
    /// single run, its `engine.run` under `parent`.
    pub fn record_units(&self, trace: &mut Trace, parent: usize, rep: &Rep) -> Vec<UnitRecord> {
        let units = self.probe.take_units();
        let run_span = rep.run_span;
        for u in &units {
            let parent = match run_span {
                Some(run) => Some(trace.push(Span {
                    name: "campaign.unit",
                    start: u.start,
                    end: u.fold_end,
                    parent: Some(run),
                })),
                None => Some(parent),
            };
            trace.push(Span {
                name: "engine.run",
                start: u.start,
                end: u.engine_end,
                parent,
            });
            if run_span.is_some() {
                trace.push(Span {
                    name: "campaign.fold",
                    start: u.engine_end,
                    end: u.fold_end,
                    parent,
                });
            }
        }
        units
    }

    /// For a campaign, merges the traced units' refolded statistics per
    /// cell in replicate order, the executor's merge order. `None` when
    /// the units do not cover every `(cell, replicate)` exactly once, or
    /// for a single run.
    pub fn remerge(&self, units: &[UnitRecord]) -> Option<Vec<CellStats>> {
        let Job::Campaign(spec) = &self.job else {
            return None;
        };
        let mut by_seed: BTreeMap<u64, &UnitRecord> = BTreeMap::new();
        for u in units {
            if by_seed.insert(u.seed, u).is_some() {
                return None;
            }
        }
        if by_seed.len() != spec.unit_count() {
            return None;
        }
        let replicates = spec.unit_count() / spec.cell_count();
        (0..spec.cell_count())
            .map(|cell| {
                let mut acc: Option<CellStats> = None;
                for rep in 0..replicates {
                    let seed = cell_seed(self.seed, cell as u64, rep as u64);
                    let stats = &by_seed.get(&seed)?.stats;
                    match &mut acc {
                        None => acc = Some(stats.clone()),
                        Some(a) => a.merge(stats),
                    }
                }
                acc
            })
            .collect()
    }
}

/// Whether `merged` equals every cell of `result` bit for bit.
pub fn same_cells(merged: &[CellStats], result: &Output) -> bool {
    let Output::Campaign(result) = result else {
        return false;
    };
    merged.len() == result.cells.len()
        && merged
            .iter()
            .zip(&result.cells)
            .all(|(m, cell)| *m == cell.stats && format!("{m:?}") == format!("{:?}", cell.stats))
}

/// The cost of per-packet recording in the energy sweep, from paired runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerPacket {
    /// Engine seconds of every unit as the workload runs it.
    pub recording_s: f64,
    /// Engine seconds of the same units run `.totals_only()`.
    pub totals_only_s: f64,
    /// Runs made (two per unit).
    pub runs: u64,
    /// Runs that failed their check, or pairs whose totals differ.
    pub failed: u64,
}

/// Runs every energy-sweep unit (same scenario, same seed) with per-packet
/// recording and again totals-only, back to back on this thread and in
/// alternating order, so drift between the two sides cancels.
pub fn per_packet_pairs(seed: u64) -> PerPacket {
    let mut out = PerPacket::default();
    let timed_run = |sc: &DynScenario| {
        let t0 = Instant::now();
        let totals = run_proto(Proto::Lsb, sc, &mut NoHooks).totals;
        (t0.elapsed().as_secs_f64(), totals)
    };
    for (cell, (point, _, _)) in energy_points().iter().enumerate() {
        for rep in 0..ENERGY_REPLICATES {
            let recording = point.seeded(cell_seed(seed, cell as u64, u64::from(rep)));
            let lean = recording.clone().totals_only();
            let ((rec_s, rec), (lean_s, lean)) = if (cell + rep as usize).is_multiple_of(2) {
                let r = timed_run(&recording);
                (r, timed_run(&lean))
            } else {
                let l = timed_run(&lean);
                (timed_run(&recording), l)
            };
            out.recording_s += rec_s;
            out.totals_only_s += lean_s;
            out.runs += 2;
            let bad = [!run_ok(&rec, true), !run_ok(&lean, true), rec != lean];
            out.failed += bad.iter().filter(|&&b| b).count() as u64;
        }
    }
    out
}

fn timed<T>(
    trace: &mut Option<(&mut Trace, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>) {
    match trace {
        Some((t, parent)) => {
            let (idx, out) = t.time(name, Some(*parent), f);
            (out, Some(idx))
        }
        None => (f(), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained() -> Totals {
        Totals {
            arrivals: 4,
            successes: 4,
            active_slots: 10,
            empty_active: 3,
            collision_slots: 2,
            jammed_active: 1,
            sends: 9,
            listens: 5,
            ..Totals::default()
        }
    }

    #[test]
    fn a_drained_partitioned_run_passes() {
        assert!(run_ok(&drained(), true));
    }

    #[test]
    fn each_check_can_fail() {
        let broken_partition = Totals {
            empty_active: 4,
            ..drained()
        };
        assert!(!run_ok(&broken_partition, false));
        let overdelivered = Totals {
            successes: 5,
            empty_active: 2,
            ..drained()
        };
        assert!(!run_ok(&overdelivered, false));
        let silent = Totals {
            sends: 0,
            listens: 0,
            ..drained()
        };
        assert!(!run_ok(&silent, false));
        let capped = Totals {
            arrivals: 6,
            ..drained()
        };
        assert!(
            run_ok(&capped, false),
            "a horizon-capped run is not a failure"
        );
        assert!(!run_ok(&capped, true), "an energy-sweep run must drain");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn digest_sees_every_field() {
        let a = Output::Totals(drained());
        let b = Output::Totals(Totals {
            max_backlog: 1,
            ..drained()
        });
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
    }
}
