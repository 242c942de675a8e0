//! Repeated runs of one workload, their checks, and the metrics derived
//! from them.

use std::collections::BTreeMap;

use crate::clock::{now_ns, peak_rss_mib};
use crate::oracle::{self, Fold};
use crate::workload::{self, Run, Scale, Workload};

/// End-to-end metrics, `(name, unit)`, reported by untraced invocations.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_mrps", "Mrec/s"),
    ("cpu_ns_per_rec", "ns"),
    ("result_ms_p50", "ms"),
    ("result_ms_p90", "ms"),
    ("sim_mrps", "Mrec/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, reported by traced invocations.
/// Every workload reports every name; a layer the workload does not run
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingress.gen_ns_per_rec", "ns"),
    ("op.Filter.ns_per_rec", "ns"),
    ("op.WindowInto.ns_per_rec", "ns"),
    ("op.KeyedAggregate.data_ns_per_rec", "ns"),
    ("op.KeyedAggregate.close_ms_p50", "ms"),
    ("op.KeyedAggregate.barrier_ms", "ms"),
    ("op.KeyedAggregate.snapshot_ms", "ms"),
    ("op.TemporalJoin.data_ns_per_rec", "ns"),
    ("op.TemporalJoin.close_ms_p50", "ms"),
    ("op.Filter.records_in", "count"),
    ("op.Filter.records_out", "count"),
    ("op.WindowInto.records_in", "count"),
    ("op.WindowInto.records_out", "count"),
    ("op.KeyedAggregate.records_in", "count"),
    ("op.KeyedAggregate.records_out", "count"),
    ("op.TemporalJoin.records_in", "count"),
    ("op.TemporalJoin.records_out", "count"),
    ("engine.self_ms", "ms"),
    ("engine.prefix_parallelism", "ratio"),
    ("engine.cpu_over_wall", "ratio"),
    ("checkpoint.persist_ms", "ms"),
    ("checkpoint.output_ms", "ms"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.store_kib", "KiB"),
    ("kpa.extract_mb", "MB"),
    ("kpa.sort_mb", "MB"),
    ("kpa.merge_mb", "MB"),
    ("kpa.materialize_mb", "MB"),
    ("groupby.sort_windows", "count"),
    ("groupby.hash_windows", "count"),
    ("simmem.hbm_mb", "MB"),
    ("simmem.dram_mb", "MB"),
    ("simmem.hbm_peak_mib", "MiB"),
    ("simmem.hbm_spills", "count"),
    ("simmem.failed_allocs", "count"),
    ("balancer.knob_moves", "count"),
    ("balancer.hbm_place_share", "ratio"),
    ("sim.delay_us_p50", "us"),
    ("sim.delay_us_max", "us"),
    ("obs.trace_overhead_pct", "%"),
];

/// The simulated-clock results of a run, which must repeat exactly for a
/// seed: modelled time, throughput and delay, counts, and the output fold.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimPrint {
    sim_bits: [u64; 4],
    counts: [u64; 3],
    fold: Fold,
}

impl SimPrint {
    fn of(run: &Run) -> SimPrint {
        let r = &run.report;
        SimPrint {
            sim_bits: [
                r.sim_secs.to_bits(),
                r.throughput_rps.to_bits(),
                r.p50_output_delay_secs.to_bits(),
                r.max_output_delay_secs.to_bits(),
            ],
            counts: [r.records_in, r.windows_closed, r.output_records],
            fold: run.probe.sink().fold,
        }
    }
}

/// Modelled byte counters of a traced run that must repeat exactly:
/// KPA primitive bytes by group, then HBM and DRAM traffic. The HBM peak
/// is left out on purpose; see the benchmark's README.
fn exact_bytes(run: &Run) -> Vec<u64> {
    let Some(dump) = &run.dump else {
        return Vec::new();
    };
    let mut v: Vec<u64> = ["extract", "sort", "merge", "materialize"]
        .iter()
        .map(|g| prim_bytes(dump, g))
        .collect();
    v.push(dump.counter("bw.hbm.total_bytes").unwrap_or(0));
    v.push(dump.counter("bw.dram.total_bytes").unwrap_or(0));
    v
}

fn prim_bytes(dump: &sbx_obs::MetricsDump, group: &str) -> u64 {
    let suffix = format!(".{group}_bytes");
    dump.counters
        .iter()
        .filter(|(n, _)| n.starts_with("op.") && n.ends_with(&suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Lower quartile of `v` (0 when empty): the statistic of repeated host
/// timings. Interference from other tenants of a shared host only ever
/// slows a repetition down, so the lower quartile tracks the program's own
/// cost where the median moves with the neighbours' load.
pub fn low_quartile(v: &[f64]) -> f64 {
    quantile(v, 0.25)
}

/// The `q` quantile of `v` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced run (all but the trace overhead).
fn layers(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        if let Some(slot) = m.get_mut(name) {
            *slot = v;
        }
    };
    let p = &run.probe;
    let (gen_ns, gen_rows) = p.gen();
    set(
        "ingress.gen_ns_per_rec",
        ratio(gen_ns as f64, gen_rows as f64),
    );
    for op in p.ops() {
        let n = op.label;
        let recs = op.records_in as f64;
        set(
            &format!("op.{n}.ns_per_rec"),
            ratio(op.total_ns as f64, recs),
        );
        set(
            &format!("op.{n}.data_ns_per_rec"),
            ratio(op.data_ns as f64, recs),
        );
        let close: Vec<f64> = op.close_ns.iter().map(|&d| d as f64 / 1e6).collect();
        set(&format!("op.{n}.close_ms_p50"), median(&close));
        let barrier: Vec<f64> = op.barrier_ns.iter().map(|&d| d as f64 / 1e6).collect();
        set(&format!("op.{n}.barrier_ms"), barrier.iter().sum());
        set(&format!("op.{n}.snapshot_ms"), median(&barrier));
        set(&format!("op.{n}.records_in"), recs);
        set(&format!("op.{n}.records_out"), op.records_out as f64);
    }
    let end = run.start_ns + run.wall_ns;
    let clip = |(s, e): (u64, u64)| (s.clamp(run.start_ns, end), e.clamp(run.start_ns, end));
    let iv = p.intervals();
    let all: Vec<(u64, u64)> = iv.iter().map(|&(s, e, _)| clip((s, e))).collect();
    let prefix: Vec<(u64, u64)> = iv
        .iter()
        .filter(|i| i.2)
        .map(|&(s, e, _)| clip((s, e)))
        .collect();
    let prefix_busy: u64 = prefix.iter().map(|(s, e)| e - s).sum();
    set(
        "engine.self_ms",
        run.wall_ns.saturating_sub(union_ns(all)) as f64 / 1e6,
    );
    set(
        "engine.prefix_parallelism",
        ratio(prefix_busy as f64, union_ns(prefix) as f64),
    );
    set(
        "engine.cpu_over_wall",
        ratio(run.engine_cpu_ns() as f64, run.engine_wall_ns() as f64),
    );
    let ck = p.ckpt();
    set("checkpoint.persist_ms", ck.persist_ns as f64 / 1e6);
    set("checkpoint.output_ms", ck.output_ns as f64 / 1e6);
    set("checkpoint.snapshots", ck.snapshots as f64);
    if let Some((_, store)) = run.committed {
        set("checkpoint.store_kib", store as f64 / 1024.0);
    }
    set("sim.delay_us_p50", run.report.p50_output_delay_secs * 1e6);
    set("sim.delay_us_max", run.report.max_output_delay_secs * 1e6);
    set(
        "simmem.hbm_peak_mib",
        run.report.hbm_peak_used_bytes as f64 / (1u64 << 20) as f64,
    );
    if let Some(d) = &run.dump {
        let c = |name: &str| d.counter(name).unwrap_or(0) as f64;
        for g in ["extract", "sort", "merge", "materialize"] {
            set(&format!("kpa.{g}_mb"), prim_bytes(d, g) as f64 / 1e6);
        }
        set("groupby.sort_windows", c("engine.groupby.backend.sort"));
        set("groupby.hash_windows", c("engine.groupby.backend.hash"));
        set("simmem.hbm_mb", c("bw.hbm.total_bytes") / 1e6);
        set("simmem.dram_mb", c("bw.dram.total_bytes") / 1e6);
        set("simmem.hbm_spills", c("pool.hbm.spills"));
        set(
            "simmem.failed_allocs",
            c("pool.hbm.failed_allocs") + c("pool.dram.failed_allocs"),
        );
        let moves: u64 = d
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("balancer.move."))
            .map(|(_, v)| v)
            .sum();
        set("balancer.knob_moves", moves as f64);
        let (hbm, dram) = (c("balancer.placed.hbm"), c("balancer.placed.dram"));
        set("balancer.hbm_place_share", ratio(hbm, hbm + dram));
    }
    m
}

/// The result of benchmarking one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Runs attempted (warm-up, timed and traced).
    pub attempted: u64,
    /// Runs that errored or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// `(name, value, unit)` of the reported metrics.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Notes printed with the table (sample counts, run counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Set-ups measured per invocation; `setup_s` is their lower quartile.
pub const SETUPS: usize = 201;

/// Lower-quartile host seconds of [`SETUPS`] untraced set-ups of `w` (each built
/// and dropped without running).
fn setup_secs(w: Workload, scale: Scale, seed: u64) -> f64 {
    let mut v = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = now_ns();
        let job = workload::prepare(w, scale, seed, false);
        v.push((now_ns() - t0) as f64 / 1e9);
        drop(job);
    }
    low_quartile(&v)
}

/// Checks `run`'s outputs against the reference fold and its counts
/// against the scale.
pub fn check(w: Workload, scale: Scale, run: &Run, expected: Fold) -> Result<(), String> {
    let fold = run.probe.sink().fold;
    if fold != expected {
        return Err(format!(
            "output fold mismatch: {} rows vs {} expected",
            fold.rows, expected.rows
        ));
    }
    let r = &run.report;
    if r.records_in != scale.records(w) {
        return Err(format!(
            "ingested {} records, expected {}",
            r.records_in,
            scale.records(w)
        ));
    }
    if r.windows_closed != scale.windows(w) as u64 {
        return Err(format!(
            "closed {} windows, expected {}",
            r.windows_closed,
            scale.windows(w)
        ));
    }
    if r.output_records != fold.rows {
        return Err(format!(
            "engine counted {} output records, sink saw {}",
            r.output_records, fold.rows
        ));
    }
    if let Some((committed, _)) = run.committed {
        if committed != fold {
            return Err("checkpoint-committed outputs differ from the sink's".to_string());
        }
    }
    Ok(())
}

/// Benchmarks `w` at `scale` for `seed`: a warm-up run, then runs until
/// `seconds` of measuring have passed. Untraced invocations report the
/// end-to-end metrics; traced ones alternate untraced and traced runs and
/// report the per-layer metrics.
pub fn bench(w: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let expected = oracle::reference(w, scale, seed);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let mut plain: Vec<Run> = Vec::new();
    let mut traced: Vec<Run> = Vec::new();
    let mut sim_print: Option<SimPrint> = None;
    let mut bytes_print: Option<Vec<u64>> = None;
    let mut attempt = |out: &mut Outcome, is_traced: bool| -> Option<Run> {
        out.attempted += 1;
        let verdict = workload::run(w, scale, seed, is_traced)
            .map_err(|e| format!("engine error: {e}"))
            .and_then(|run| {
                check(w, scale, &run, expected)?;
                let sp = SimPrint::of(&run);
                if *sim_print.get_or_insert_with(|| sp.clone()) != sp {
                    return Err("simulated results differ between repetitions".to_string());
                }
                if is_traced {
                    let bp = exact_bytes(&run);
                    if *bytes_print.get_or_insert_with(|| bp.clone()) != bp {
                        return Err("modelled byte counters differ between repetitions".into());
                    }
                }
                Ok(run)
            });
        match verdict {
            Ok(run) => Some(run),
            Err(e) => {
                out.failed += 1;
                let kind = if is_traced { "traced" } else { "untraced" };
                out.failures
                    .push(format!("{} {kind} run {}: {e}", w.name(), out.attempted));
                None
            }
        }
    };

    // Warm-up: checked, not timed.
    attempt(&mut out, false);
    let setup_s = setup_secs(w, scale, seed);
    let deadline = now_ns() + (seconds * 1e9) as u64;
    let (min_plain, min_traced) = if trace { (2, 2) } else { (3, 0) };
    loop {
        if let Some(run) = attempt(&mut out, false) {
            plain.push(run);
        }
        if trace {
            if let Some(run) = attempt(&mut out, true) {
                traced.push(run);
            }
        }
        let enough = plain.len() >= min_plain && traced.len() >= min_traced;
        if (now_ns() >= deadline && enough) || out.attempted >= 1000 || out.failed >= 3 {
            break;
        }
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.engine_wall_ns() as f64).collect();
    if trace {
        let per_run: Vec<BTreeMap<&str, f64>> = traced.iter().map(layers).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.engine_wall_ns() as f64).collect();
        for &(name, unit) in PER_LAYER {
            let value = if name == "obs.trace_overhead_pct" {
                (ratio(low_quartile(&traced_walls), low_quartile(&walls)) - 1.0) * 100.0
            } else {
                let v: Vec<f64> = per_run.iter().map(|m| m[name]).collect();
                median(&v)
            };
            out.metrics.push((name, value, unit));
        }
        out.notes.push(format!(
            "{} untraced and {} traced runs measured",
            plain.len(),
            traced.len()
        ));
        // The modelled HBM peak is not held to exact repetition (it can
        // differ between same-seed runs); show its range so a flap is seen.
        let peaks: Vec<f64> = per_run.iter().map(|m| m["simmem.hbm_peak_mib"]).collect();
        let lo = peaks.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = peaks.iter().copied().fold(0.0, f64::max);
        out.notes.push(format!(
            "simmem.hbm_peak_mib over traced runs: {lo} .. {hi}"
        ));
        return out;
    }

    let recs = scale.records(w) as f64;
    let cpu: Vec<f64> = plain
        .iter()
        .map(|r| r.engine_cpu_ns() as f64 / recs)
        .collect();
    // The sink's output fold is subtracted from wall and CPU time above;
    // show how much that was.
    let fold_share = |f: fn(&Run) -> (u64, u64)| {
        let v: Vec<f64> = plain
            .iter()
            .map(|r| {
                let (cost, total) = f(r);
                ratio(cost as f64, total as f64) * 100.0
            })
            .collect();
        median(&v)
    };
    let fold_wall_pct = fold_share(|r| (r.probe.fold_cost().0, r.wall_ns));
    let fold_cpu_pct = fold_share(|r| (r.probe.fold_cost().1, r.cpu_ns));
    // Result latency per window position (the same input in every run):
    // its lower quartile over the runs, then quantiles across windows.
    let per_run: Vec<Vec<u64>> = plain.iter().map(|r| r.probe.sink().result_ns).collect();
    let windows = per_run.first().map_or(0, Vec::len);
    let lat: Vec<f64> = (0..windows)
        .map(|i| {
            let v: Vec<f64> = per_run
                .iter()
                .filter_map(|l| l.get(i))
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            low_quartile(&v)
        })
        .collect();
    let sim_mrps = plain.first().map_or(0.0, |r| r.report.throughput_mrps());
    let values = [
        recs * 1e3 / low_quartile(&walls),
        low_quartile(&cpu),
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        sim_mrps,
        setup_s,
        peak_rss_mib().unwrap_or(0.0),
    ];
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        out.metrics.push((name, value, unit));
    }
    out.notes.push(format!(
        "{} timed runs of {} records; result_ms over {} windows x {} runs; \
         {} set-ups; {} engine threads on {} host CPUs",
        plain.len(),
        scale.records(w),
        windows,
        per_run.len(),
        SETUPS,
        workload::THREADS,
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    out.notes.push(format!(
        "output fold (subtracted from host_mrps and cpu_ns_per_rec): \
         {fold_wall_pct:.2}% of wall, {fold_cpu_pct:.2}% of CPU (median)"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(5, 10), (0, 3), (8, 12), (12, 13)]), 3 + 8);
        assert_eq!(union_ns(vec![(0, 10), (2, 3)]), 10);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(low_quartile(&[9.0, 1.0, 5.0, 3.0, 7.0]), 3.0);
    }
}
