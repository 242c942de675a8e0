//! The four workloads and one run of each, at a given scale and seed.
//!
//! Every workload runs on the full KNL machine model (64 modelled cores),
//! an unlimited modelled NIC, 10 bundles per one-second event-time window,
//! and two engine threads. Pipelines are built from the engine's public
//! operators through `PipelineBuilder::stateless_op`/`op`, so the wrappers
//! of [`crate::wrap`] can sit around each operator.

use std::sync::Arc;

use sbx_checkpoint::CheckpointCoordinator;
use sbx_engine::ops::{AggKind, Filter, GroupingSpec, KeyedAggregate, TemporalJoin, WindowInto};
use sbx_engine::{
    benchmarks, Engine, EngineError, Pipeline, PipelineBuilder, RunConfig, RunReport,
    StatelessOperator,
};
use sbx_ingress::{KvSource, NicModel, SenderConfig, YsbSource};
use sbx_obs::{MetricsDump, MetricsRegistry, Obs};
use sbx_records::{Col, WindowSpec};
use sbx_simmem::MachineConfig;

use crate::clock::{cpu_ns, now_ns};
use crate::oracle::Fold;
use crate::wrap::{Probe, TimedHooks, TimedOp, TimedSource, TimedStateless};

/// Event-time ticks per window (one second).
pub const WINDOW_TICKS: u64 = benchmarks::WINDOW_TICKS;
/// Distinct YSB ads.
pub const YSB_ADS: u64 = 10_000;
/// YSB campaigns (the grouping cardinality).
pub const YSB_CAMPAIGNS: u64 = 1_000;
/// Key domain of `sum_ckpt`.
pub const SUM_KEYS: u64 = 1_000_000;
/// Key domain of each `join` stream.
pub const JOIN_KEYS: u64 = 100_000;
/// Values are drawn from `[0, VALUE_RANGE)`.
pub const VALUE_RANGE: u64 = 1_000_000;
/// `sum_ckpt` injects a checkpoint barrier every this many bundles: half
/// of them fall mid-window, so snapshots carry real window state.
pub const BARRIER_EVERY: u64 = 5;
/// Bundles per one-second event-time window (the watermark cadence).
pub const BUNDLES_PER_WINDOW: usize = 10;
/// Engine host threads (lane 0 is the caller).
pub const THREADS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YSB on the sort-merge KPA grouping backend.
    YsbSort,
    /// The same YSB input and pipeline pinned to hash grouping.
    YsbHash,
    /// Windowed sum per key over 1 M keys with checkpoint barriers.
    SumCkpt,
    /// Two-stream temporal join.
    Join,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::YsbSort,
        Workload::YsbHash,
        Workload::SumCkpt,
        Workload::Join,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YsbSort => "ysb_sort",
            Workload::YsbHash => "ysb_hash",
            Workload::SumCkpt => "sum_ckpt",
            Workload::Join => "join",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Records per bundle.
    pub bundle_rows: usize,
    /// Event-time windows per run (each stream of `join` gets this many).
    pub windows: usize,
    /// Windows per run of `join` (its work per window is larger).
    pub join_windows: usize,
}

impl Scale {
    /// The benchmark's scale: 20 000-row bundles, 20 windows (4 M records)
    /// per single-stream run.
    pub const FULL: Scale = Scale {
        bundle_rows: 20_000,
        windows: 20,
        join_windows: 10,
    };

    /// Records per event-time second, per stream.
    pub fn rate(self) -> u64 {
        (self.bundle_rows * BUNDLES_PER_WINDOW) as u64
    }

    /// Windows per run of `w`.
    pub fn windows(self, w: Workload) -> usize {
        match w {
            Workload::Join => self.join_windows,
            _ => self.windows,
        }
    }

    /// Bundles per run of `w` (per stream for `join`).
    pub fn bundles(self, w: Workload) -> usize {
        self.windows(w) * BUNDLES_PER_WINDOW
    }

    /// Records ingested per run of `w`, all streams.
    pub fn records(self, w: Workload) -> u64 {
        let streams = if w == Workload::Join { 2 } else { 1 };
        (self.bundles(w) * self.bundle_rows * streams) as u64
    }
}

/// Seeds of `join`'s left and right streams, derived from the run seed.
pub fn join_seeds(seed: u64) -> (u64, u64) {
    (
        seed.wrapping_mul(2).wrapping_add(1),
        seed.wrapping_mul(2).wrapping_add(2),
    )
}

/// The engine configuration every workload runs with.
pub fn config(scale: Scale, obs: Obs) -> RunConfig {
    RunConfig {
        machine: MachineConfig::knl(),
        cores: 64,
        sender: SenderConfig {
            bundle_rows: scale.bundle_rows,
            bundles_per_watermark: BUNDLES_PER_WINDOW,
            nic: NicModel::unlimited(),
        },
        threads: THREADS,
        obs,
        ..RunConfig::default()
    }
}

fn spec() -> WindowSpec {
    WindowSpec::fixed(WINDOW_TICKS)
}

fn stateless<T: StatelessOperator + 'static>(
    b: PipelineBuilder,
    op: T,
    probe: &Arc<Probe>,
) -> PipelineBuilder {
    if probe.traced() {
        b.stateless_op(Arc::new(TimedStateless::new(op, probe)))
    } else {
        b.stateless_op(Arc::new(op))
    }
}

/// The YSB pipeline of `benchmarks::ysb_grouped`, built from wrapped
/// operators.
pub fn ysb_pipeline(grouping: GroupingSpec, probe: &Arc<Probe>) -> Pipeline {
    let b = stateless(
        PipelineBuilder::new(spec()),
        Filter::new(Col(3), |ad_type| ad_type < 2),
        probe,
    );
    let b = stateless(b, WindowInto::new(spec()), probe);
    let agg = KeyedAggregate::new(spec(), Col(2), Col(0), AggKind::Count)
        .with_grouping(grouping)
        .with_key_map(|ad| ad % YSB_CAMPAIGNS);
    b.op(Box::new(TimedOp::new(agg, probe))).build()
}

/// The pipeline of `benchmarks::sum_per_key`, built from wrapped operators.
pub fn sum_pipeline(probe: &Arc<Probe>) -> Pipeline {
    let b = stateless(PipelineBuilder::new(spec()), WindowInto::new(spec()), probe);
    let agg = KeyedAggregate::new(spec(), Col(0), Col(1), AggKind::Sum);
    b.op(Box::new(TimedOp::new(agg, probe))).build()
}

/// The pipeline of `benchmarks::temporal_join`, built from wrapped
/// operators.
pub fn join_pipeline(probe: &Arc<Probe>) -> Pipeline {
    let b = stateless(PipelineBuilder::new(spec()), WindowInto::new(spec()), probe);
    let join = TemporalJoin::new(spec(), Col(0), Col(1));
    b.op(Box::new(TimedOp::new(join, probe))).build()
}

/// The `ysb_*` source.
pub fn ysb_source(scale: Scale, seed: u64) -> YsbSource {
    YsbSource::new(seed, YSB_ADS, YSB_CAMPAIGNS, scale.rate())
}

/// The `sum_ckpt` source.
pub fn sum_source(scale: Scale, seed: u64) -> KvSource {
    KvSource::new(seed, SUM_KEYS, scale.rate()).with_value_range(VALUE_RANGE)
}

/// The `join` sources, left and right.
pub fn join_sources(scale: Scale, seed: u64) -> (KvSource, KvSource) {
    let (l, r) = join_seeds(seed);
    (
        KvSource::new(l, JOIN_KEYS, scale.rate()).with_value_range(VALUE_RANGE),
        KvSource::new(r, JOIN_KEYS, scale.rate()).with_value_range(VALUE_RANGE),
    )
}

/// A run ready to start: engine, sources, pipeline and hooks built.
pub struct Job {
    bundles: usize,
    engine: Engine,
    probe: Arc<Probe>,
    registry: MetricsRegistry,
    input: Input,
}

enum Input {
    Ysb(TimedSource<YsbSource>, Pipeline),
    Sum(
        TimedSource<KvSource>,
        Pipeline,
        TimedHooks<CheckpointCoordinator>,
    ),
    Join(TimedSource<KvSource>, TimedSource<KvSource>, Pipeline),
}

/// Builds everything a run of `w` at `scale` for `seed` needs before the
/// first record flows (the benchmark's set-up); `traced` wraps every layer
/// and attaches a metrics registry.
pub fn prepare(w: Workload, scale: Scale, seed: u64, traced: bool) -> Job {
    let probe = Probe::new(traced);
    let obs = if traced {
        Obs::metrics_only()
    } else {
        Obs::noop()
    };
    let registry = obs.metrics.clone();
    let engine = Engine::new(config(scale, obs));
    let input = match w {
        Workload::YsbSort | Workload::YsbHash => {
            let grouping = if w == Workload::YsbSort {
                GroupingSpec::SortMerge
            } else {
                GroupingSpec::Hash
            };
            let src = TimedSource::new(ysb_source(scale, seed), &probe);
            Input::Ysb(src, ysb_pipeline(grouping, &probe))
        }
        Workload::SumCkpt => {
            let src = TimedSource::new(sum_source(scale, seed), &probe);
            let coord = CheckpointCoordinator::new().with_metrics(&registry);
            Input::Sum(src, sum_pipeline(&probe), TimedHooks::new(coord, &probe))
        }
        Workload::Join => {
            let (l, r) = join_sources(scale, seed);
            let (l, r) = (TimedSource::new(l, &probe), TimedSource::new(r, &probe));
            Input::Join(l, r, join_pipeline(&probe))
        }
    };
    Job {
        bundles: scale.bundles(w),
        engine,
        probe,
        registry,
        input,
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Run {
    /// Host wall nanoseconds of the engine run call.
    pub wall_ns: u64,
    /// Process CPU nanoseconds (all threads) during the run call.
    pub cpu_ns: u64,
    /// Host clock at the start of the run call.
    pub start_ns: u64,
    /// The engine's report.
    pub report: RunReport,
    /// What the wrappers recorded.
    pub probe: Arc<Probe>,
    /// The metrics registry dump (traced runs only).
    pub dump: Option<MetricsDump>,
    /// `sum_ckpt`: the checkpoint coordinator's committed output fold and
    /// its largest snapshot-store footprint in bytes.
    pub committed: Option<(Fold, u64)>,
}

impl Run {
    /// Wall nanoseconds of the run call less the sink's output fold, which
    /// is the benchmark's own work.
    pub fn engine_wall_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.probe.fold_cost().0)
    }

    /// CPU nanoseconds of the run call less the sink's output fold.
    pub fn engine_cpu_ns(&self) -> u64 {
        self.cpu_ns.saturating_sub(self.probe.fold_cost().1)
    }
}

impl Job {
    /// Runs the job: `Engine::run` for YSB, `run_with_hooks` with a
    /// barrier every [`BARRIER_EVERY`] bundles for `sum_ckpt`, `run_pair`
    /// for `join`.
    ///
    /// # Errors
    ///
    /// Returns the engine's error if the run fails.
    pub fn run(self) -> Result<Run, EngineError> {
        let Job {
            bundles,
            engine,
            probe,
            registry,
            input,
        } = self;
        let mut committed = None;
        let (start_ns, wall_ns, cpu_ns, report) = match input {
            Input::Ysb(src, pipeline) => timed(|| engine.run(src, pipeline, bundles))?,
            Input::Sum(src, pipeline, mut hooks) => {
                let every = Some(BARRIER_EVERY);
                // Untraced runs hand the coordinator over unwrapped.
                let out = if probe.traced() {
                    timed(|| engine.run_with_hooks(src, pipeline, bundles, every, &mut hooks))?
                } else {
                    let coord = &mut hooks.inner;
                    timed(|| engine.run_with_hooks(src, pipeline, bundles, every, coord))?
                };
                let coord = &mut hooks.inner;
                coord.commit_pending();
                let mut fold = Fold::default();
                for row in coord.committed() {
                    fold.add_row(row);
                }
                let store = coord.samples().iter().map(|s| s.store_bytes).max();
                committed = Some((fold, store.unwrap_or(0)));
                out
            }
            Input::Join(l, r, pipeline) => timed(|| engine.run_pair(l, r, pipeline, bundles))?,
        };
        let dump = probe.traced().then(|| registry.snapshot());
        Ok(Run {
            wall_ns,
            cpu_ns,
            start_ns,
            report,
            probe,
            dump,
            committed,
        })
    }
}

/// Runs `w` once at `scale` for `seed` (see [`prepare`] and [`Job::run`]).
///
/// # Errors
///
/// Returns the engine's error if the run fails.
pub fn run(w: Workload, scale: Scale, seed: u64, traced: bool) -> Result<Run, EngineError> {
    prepare(w, scale, seed, traced).run()
}

/// Runs `f`, returning its host start time, wall and CPU nanoseconds.
fn timed(
    f: impl FnOnce() -> Result<RunReport, EngineError>,
) -> Result<(u64, u64, u64, RunReport), EngineError> {
    let (c0, t0) = (cpu_ns(), now_ns());
    let report = f()?;
    let (t1, c1) = (now_ns(), cpu_ns());
    Ok((t0, t1 - t0, c1.saturating_sub(c0), report))
}
