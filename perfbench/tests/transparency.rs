//! The wrappers must not change the program they measure: wrapped
//! pipelines give the same outputs, modelled results and per-operator
//! counters as the engine's canned pipelines on the same seed.

use sbx_checkpoint::CheckpointCoordinator;
use sbx_engine::ops::GroupingSpec;
use sbx_engine::{benchmarks, CheckpointHooks, Engine, EngineError, RunReport, StreamData};
use sbx_obs::{MetricsDump, Obs};
use sbx_perfbench::oracle::Fold;
use sbx_perfbench::workload::{self, Scale, Workload, BARRIER_EVERY, YSB_CAMPAIGNS};
use sbx_simmem::{AccessProfile, MemEnv};

const SMALL: Scale = Scale {
    bundle_rows: 2_000,
    windows: 4,
    join_windows: 3,
};

/// Folds sink outputs; persists nothing (like `NoopHooks`).
#[derive(Default)]
struct FoldHooks(Fold);

impl CheckpointHooks for FoldHooks {
    fn on_checkpoint(
        &mut self,
        _env: &MemEnv,
        _snap: sbx_engine::PipelineSnapshot,
    ) -> Result<AccessProfile, EngineError> {
        Ok(AccessProfile::new())
    }

    fn on_output(&mut self, data: &StreamData) {
        if let StreamData::Bundle(b) = data {
            for r in 0..b.rows() {
                self.0.add_row(b.row(r));
            }
        }
    }
}

/// Runs the canned pipeline for `w` under a metrics registry.
fn canned(w: Workload, seed: u64) -> (RunReport, Fold, MetricsDump) {
    let obs = Obs::metrics_only();
    let registry = obs.metrics.clone();
    let mut cfg = workload::config(SMALL, obs);
    cfg.collect_outputs = w == Workload::Join;
    let engine = Engine::new(cfg);
    let bundles = SMALL.bundles(w);
    let (report, fold) = match w {
        Workload::YsbSort | Workload::YsbHash => {
            let pipeline = if w == Workload::YsbSort {
                benchmarks::ysb(YSB_CAMPAIGNS)
            } else {
                benchmarks::ysb_grouped(YSB_CAMPAIGNS, GroupingSpec::Hash)
            };
            let mut hooks = FoldHooks::default();
            let src = workload::ysb_source(SMALL, seed);
            let report = engine
                .run_with_hooks(src, pipeline, bundles, None, &mut hooks)
                .expect("canned ysb run");
            (report, hooks.0)
        }
        Workload::SumCkpt => {
            let mut coord = CheckpointCoordinator::new().with_metrics(&registry);
            let src = workload::sum_source(SMALL, seed);
            let report = engine
                .run_with_hooks(
                    src,
                    benchmarks::sum_per_key(),
                    bundles,
                    Some(BARRIER_EVERY),
                    &mut coord,
                )
                .expect("canned sum run");
            coord.commit_pending();
            let mut fold = Fold::default();
            for row in coord.committed() {
                fold.add_row(row);
            }
            (report, fold)
        }
        Workload::Join => {
            let (l, r) = workload::join_sources(SMALL, seed);
            let report = engine
                .run_pair(l, r, benchmarks::temporal_join(), bundles)
                .expect("canned join run");
            let mut fold = Fold::default();
            for b in &report.outputs {
                for r in 0..b.rows() {
                    fold.add_row(b.row(r));
                }
            }
            (report, fold)
        }
    };
    (report, fold, registry.snapshot())
}

/// Modelled results that must match exactly. The HBM peak is left out: it
/// can differ between same-seed runs (see the benchmark's README).
fn sim(r: &RunReport) -> Vec<u64> {
    vec![
        r.sim_secs.to_bits(),
        r.throughput_rps.to_bits(),
        r.p50_output_delay_secs.to_bits(),
        r.max_output_delay_secs.to_bits(),
        r.records_in,
        r.windows_closed,
        r.output_records,
    ]
}

fn op_counters(d: &MetricsDump) -> Vec<(String, u64)> {
    d.counters
        .iter()
        .filter(|(n, _)| n.starts_with("op."))
        .cloned()
        .collect()
}

#[test]
fn wrapped_pipelines_match_the_canned_ones() {
    for w in Workload::ALL {
        let seed = 17;
        let (report, fold, dump) = canned(w, seed);
        assert!(fold.rows > 0, "{}: canned run emitted nothing", w.name());

        let traced = workload::run(w, SMALL, seed, true).expect("traced run");
        assert_eq!(traced.probe.sink().fold, fold, "{}: outputs", w.name());
        assert_eq!(sim(&traced.report), sim(&report), "{}: modelled", w.name());
        let traced_dump = traced.dump.as_ref().expect("traced runs dump metrics");
        assert_eq!(
            op_counters(traced_dump),
            op_counters(&dump),
            "{}: per-operator counters",
            w.name()
        );

        let plain = workload::run(w, SMALL, seed, false).expect("untraced run");
        assert_eq!(plain.probe.sink().fold, fold, "{}: outputs", w.name());
        assert_eq!(sim(&plain.report), sim(&report), "{}: modelled", w.name());
    }
}
