//! Measurement from outside the engine: wrappers around the public
//! `Source`, `Operator`, `StatelessOperator` and `CheckpointHooks` traits.
//!
//! Every wrapper forwards to the wrapped value unchanged (same name, same
//! messages, same snapshots), so the engine runs the same program; the
//! `transparency` test checks outputs, modelled results and per-operator
//! counters against the canned pipelines. A [`Probe`] collects what one run
//! recorded.
//!
//! Untraced runs wrap only the source (fill timestamp) and the last
//! operator (result timestamp and output fold). Traced runs wrap every
//! operator and the checkpoint hooks and also keep each wrapped call's
//! host-time interval, from which engine self time is derived.
//!
//! The output fold is the benchmark's own work on the engine's caller
//! thread, so the sink times it (wall and thread CPU, one pair of reads
//! per result batch) and the end-to-end host figures subtract it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sbx_engine::{
    CheckpointHooks, CrashSite, EngineError, Message, OpCtx, OpState, Operator, PipelineSnapshot,
    StatelessOperator, StreamData,
};
use sbx_ingress::Source;
use sbx_records::{EventTime, Schema};
use sbx_simmem::{AccessProfile, MemEnv};

use crate::clock::{now_ns, thread_cpu_ns};
use crate::oracle::Fold;

/// Locks `m`, recovering the data if a panicking thread poisoned it: every
/// update below leaves the counters valid at each step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Host time and counts of one wrapped operator over one run.
#[derive(Debug, Clone, Default)]
pub struct OpStat {
    /// The operator's type name (`Filter`, `WindowInto`, ...): the layer
    /// label of its metrics. (Engine names can carry a backend suffix.)
    pub label: &'static str,
    /// Nanoseconds in data messages.
    pub data_ns: u64,
    /// Nanoseconds in all messages.
    pub total_ns: u64,
    /// Records carried in by data messages.
    pub records_in: u64,
    /// Records carried out by data messages.
    pub records_out: u64,
    /// Duration of each watermark call that emitted data (a window close).
    pub close_ns: Vec<u64>,
    /// Duration of each checkpoint-barrier call (the operator's snapshot).
    pub barrier_ns: Vec<u64>,
}

/// The sink's view of one run: output fold and result latencies.
#[derive(Debug, Clone, Default)]
pub struct SinkStat {
    /// Order-insensitive fold of every output row.
    pub fold: Fold,
    /// Per result batch: nanoseconds since the newest bundle was filled.
    pub result_ns: Vec<u64>,
    /// The first output row, kept so tests can forge a corrupted fold.
    pub first_row: Option<Vec<u64>>,
    /// Host wall nanoseconds spent folding output rows.
    pub fold_ns: u64,
    /// Caller-thread CPU nanoseconds spent folding output rows.
    pub fold_cpu_ns: u64,
}

/// Checkpoint-hook host time over one run.
#[derive(Debug, Clone, Default)]
pub struct CkptStat {
    /// Nanoseconds in `on_checkpoint` (encode + persist + commit).
    pub persist_ns: u64,
    /// Snapshots persisted.
    pub snapshots: u64,
    /// Nanoseconds in `on_output` (two-phase output buffering).
    pub output_ns: u64,
}

/// Everything the wrappers of one run record.
#[derive(Debug)]
pub struct Probe {
    traced: bool,
    last_fill_ns: AtomicU64,
    gen_ns: AtomicU64,
    gen_rows: AtomicU64,
    ops: Mutex<Vec<Arc<Mutex<OpStat>>>>,
    sink: Mutex<SinkStat>,
    ckpt: Mutex<CkptStat>,
    /// `(start, end, prefix)` of every wrapped call; `prefix` marks the
    /// stateless operators the engine may run in parallel.
    intervals: Mutex<Vec<(u64, u64, bool)>>,
}

impl Probe {
    /// A probe for one run; `traced` turns on per-layer timing.
    pub fn new(traced: bool) -> Arc<Probe> {
        Arc::new(Probe {
            traced,
            last_fill_ns: AtomicU64::new(0),
            gen_ns: AtomicU64::new(0),
            gen_rows: AtomicU64::new(0),
            ops: Mutex::new(Vec::new()),
            sink: Mutex::new(SinkStat::default()),
            ckpt: Mutex::new(CkptStat::default()),
            intervals: Mutex::new(Vec::new()),
        })
    }

    /// Whether per-layer timing is on.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn interval(&self, t0: u64, t1: u64, prefix: bool) {
        if self.traced {
            lock(&self.intervals).push((t0, t1, prefix));
        }
    }

    fn op_cell<T>(&self) -> Arc<Mutex<OpStat>> {
        let path = std::any::type_name::<T>();
        let label = path.rsplit("::").next().unwrap_or(path);
        let cell = Arc::new(Mutex::new(OpStat {
            label,
            ..OpStat::default()
        }));
        lock(&self.ops).push(Arc::clone(&cell));
        cell
    }

    fn note_fill(&self, t0: u64, t1: u64, rows: usize) {
        // Relaxed: plain statistics; the sink reads the last fill time on
        // the engine's caller thread, the same thread that filled.
        self.last_fill_ns.fetch_max(t1, Ordering::Relaxed);
        if self.traced {
            self.gen_ns.fetch_add(t1 - t0, Ordering::Relaxed);
            self.gen_rows.fetch_add(rows as u64, Ordering::Relaxed);
            self.interval(t0, t1, false);
        }
    }

    /// Records a result batch emitted at host time `t_out` and folds its
    /// rows; returns the host time after the fold (`t_out` when `out`
    /// carries no data).
    fn note_sink(&self, out: &[Message], t_out: u64) -> u64 {
        if !out.iter().any(|m| matches!(m, Message::Data { .. })) {
            return t_out;
        }
        let c0 = thread_cpu_ns();
        let mut sink = lock(&self.sink);
        let fill = self.last_fill_ns.load(Ordering::Relaxed);
        sink.result_ns.push(t_out.saturating_sub(fill));
        for m in out {
            if let Message::Data { data, .. } = m {
                fold_data(&mut sink, data);
            }
        }
        let t_end = now_ns();
        sink.fold_ns += t_end.saturating_sub(t_out);
        sink.fold_cpu_ns += thread_cpu_ns().saturating_sub(c0);
        t_end
    }

    /// Source fill: host nanoseconds and rows generated.
    pub fn gen(&self) -> (u64, u64) {
        (
            self.gen_ns.load(Ordering::Relaxed),
            self.gen_rows.load(Ordering::Relaxed),
        )
    }

    /// Per-operator statistics, in wrapping order.
    pub fn ops(&self) -> Vec<OpStat> {
        lock(&self.ops).iter().map(|c| lock(c).clone()).collect()
    }

    /// The sink's fold and latencies.
    pub fn sink(&self) -> SinkStat {
        lock(&self.sink).clone()
    }

    /// Host wall and caller-thread CPU nanoseconds spent folding outputs.
    pub fn fold_cost(&self) -> (u64, u64) {
        let sink = lock(&self.sink);
        (sink.fold_ns, sink.fold_cpu_ns)
    }

    /// Checkpoint-hook statistics.
    pub fn ckpt(&self) -> CkptStat {
        lock(&self.ckpt).clone()
    }

    /// Every wrapped call's `(start, end, prefix)` host interval.
    pub fn intervals(&self) -> Vec<(u64, u64, bool)> {
        lock(&self.intervals).clone()
    }
}

fn fold_data(sink: &mut SinkStat, data: &StreamData) {
    let mut add = |row: &[u64]| {
        if sink.first_row.is_none() {
            sink.first_row = Some(row.to_vec());
        }
        sink.fold.add_row(row);
    };
    match data {
        StreamData::Bundle(b) => {
            for r in 0..b.rows() {
                add(b.row(r));
            }
        }
        StreamData::Kpa(k) | StreamData::Windowed(_, k) => {
            for i in 0..k.len() {
                let (b, r) = k.deref(i);
                add(b.row(r));
            }
        }
    }
}

/// A `Source` that stamps each fill (the result-latency origin) and, when
/// traced, times it.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, probe: &Arc<Probe>) -> Self {
        TimedSource {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl<S: Source> Source for TimedSource<S> {
    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn fill(&mut self, rows: usize, out: &mut Vec<u64>) {
        let t0 = if self.probe.traced { now_ns() } else { 0 };
        self.inner.fill(rows, out);
        self.probe.note_fill(t0, now_ns(), rows);
    }

    fn low_watermark(&self) -> EventTime {
        self.inner.low_watermark()
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Data,
    Watermark,
    Barrier,
}

fn kind_of(msg: &Message) -> Kind {
    match msg {
        Message::Data { .. } => Kind::Data,
        Message::Watermark(_) => Kind::Watermark,
        Message::Barrier(_) => Kind::Barrier,
    }
}

fn note_op(cell: &Mutex<OpStat>, kind: Kind, recs: usize, out: &[Message], dur: u64) {
    let mut st = lock(cell);
    st.total_ns += dur;
    let mut out_recs = 0u64;
    for m in out {
        if let Message::Data { data, .. } = m {
            out_recs += data.len() as u64;
        }
    }
    st.records_out += out_recs;
    match kind {
        Kind::Data => {
            st.data_ns += dur;
            st.records_in += recs as u64;
        }
        Kind::Watermark if out_recs > 0 => st.close_ns.push(dur),
        Kind::Watermark => {}
        Kind::Barrier => st.barrier_ns.push(dur),
    }
}

/// A timed stateless operator (traced runs only).
pub struct TimedStateless<T> {
    inner: T,
    probe: Arc<Probe>,
    cell: Arc<Mutex<OpStat>>,
}

impl<T: StatelessOperator> TimedStateless<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, probe: &Arc<Probe>) -> Self {
        let cell = probe.op_cell::<T>();
        TimedStateless {
            inner,
            probe: Arc::clone(probe),
            cell,
        }
    }
}

impl<T: StatelessOperator> StatelessOperator for TimedStateless<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn apply(&self, ctx: &mut OpCtx<'_>, msg: Message) -> Result<Vec<Message>, EngineError> {
        let (kind, recs) = (kind_of(&msg), msg.data_len());
        let t0 = now_ns();
        let out = self.inner.apply(ctx, msg)?;
        let t1 = now_ns();
        note_op(&self.cell, kind, recs, &out, t1 - t0);
        self.probe.interval(t0, t1, true);
        Ok(out)
    }
}

/// The pipeline's last operator, wrapped: its sink (output fold and result
/// timestamps) always, and timed when the probe is traced.
pub struct TimedOp<T> {
    inner: T,
    probe: Arc<Probe>,
    cell: Option<Arc<Mutex<OpStat>>>,
}

impl<T: Operator> TimedOp<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, probe: &Arc<Probe>) -> Self {
        let cell = probe.traced.then(|| probe.op_cell::<T>());
        TimedOp {
            inner,
            probe: Arc::clone(probe),
            cell,
        }
    }
}

impl<T: Operator> Operator for TimedOp<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_message(
        &mut self,
        ctx: &mut OpCtx<'_>,
        msg: Message,
    ) -> Result<Vec<Message>, EngineError> {
        let Some(cell) = &self.cell else {
            let out = self.inner.on_message(ctx, msg)?;
            self.probe.note_sink(&out, now_ns());
            return Ok(out);
        };
        let (kind, recs) = (kind_of(&msg), msg.data_len());
        let t0 = now_ns();
        let out = self.inner.on_message(ctx, msg)?;
        let t1 = now_ns();
        note_op(cell, kind, recs, &out, t1 - t0);
        let t_end = self.probe.note_sink(&out, t1);
        self.probe.interval(t0, t_end, false);
        Ok(out)
    }

    fn snapshot(&self, ctx: &mut OpCtx<'_>) -> Result<OpState, EngineError> {
        self.inner.snapshot(ctx)
    }

    fn restore(&mut self, ctx: &mut OpCtx<'_>, state: &OpState) -> Result<(), EngineError> {
        self.inner.restore(ctx, state)
    }
}

/// Checkpoint hooks timed around an inner implementation (the
/// `sbx-checkpoint` coordinator). Traced runs only: untraced runs hand the
/// coordinator to the engine unwrapped.
pub struct TimedHooks<H> {
    /// The wrapped hooks.
    pub inner: H,
    probe: Arc<Probe>,
}

impl<H: CheckpointHooks> TimedHooks<H> {
    /// Wraps `inner`.
    pub fn new(inner: H, probe: &Arc<Probe>) -> Self {
        TimedHooks {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl<H: CheckpointHooks> CheckpointHooks for TimedHooks<H> {
    fn on_checkpoint(
        &mut self,
        env: &MemEnv,
        snap: PipelineSnapshot,
    ) -> Result<AccessProfile, EngineError> {
        let t0 = now_ns();
        let r = self.inner.on_checkpoint(env, snap);
        let t1 = now_ns();
        let mut st = lock(&self.probe.ckpt);
        st.persist_ns += t1 - t0;
        st.snapshots += 1;
        drop(st);
        self.probe.interval(t0, t1, false);
        r
    }

    fn on_output(&mut self, data: &StreamData) {
        let t0 = now_ns();
        self.inner.on_output(data);
        let t1 = now_ns();
        lock(&self.probe.ckpt).output_ns += t1 - t0;
        self.probe.interval(t0, t1, false);
    }

    fn should_crash(&mut self, site: CrashSite) -> bool {
        self.inner.should_crash(site)
    }
}
