//! Instrumented calls into the program's layers, shared by the
//! workloads: how a call is observed (plain, audited, traced), and how
//! each layer's outputs and public instruments become per-layer
//! metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rips_apps::GrainTable;
use rips_audit::Auditor;
use rips_desim::LatencyModel;
use rips_live::{GrainResult, GrainRunner, WallClock};
use rips_runtime::{Costs, RunOutcome, RunSpec, SchedulerRegistry, TaskInstance};
use rips_sched::{mwa, tiled_mwa, TileGrid};
use rips_taskgraph::Workload;
use rips_topology::Mesh2D;
use rips_trace::metrics_rt::{Counter, CycleClock, Histo, MetricsRegistry, MetricsSnapshot};
use rips_trace::{
    with_metrics, with_metrics_clocked, with_sink, with_sink_clocked, Clock, Tee, TraceSink,
};

use crate::capture::Capture;
use crate::oracle::{check_audit, check_makespan, AuditVerdict};
use crate::spans::Spans;
use crate::{guarded, Out};

/// System-phase stages as they appear in metric names.
pub const STAGE_NAMES: [&str; 4] = ["idle_detect", "load_collect", "plan", "migrate"];

/// Every span name the benchmark records, i.e. every layer call it
/// times from outside.
pub const SPAN_NAMES: [&str; 9] = [
    "app.build",
    "registry.run",
    "live.run",
    "grain.run",
    "serve.run",
    "backend.service",
    "sched.mwa",
    "sched.tiled_mwa",
    "auditor.finish",
];

/// How a pass observes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Like `Plain`, but not measured.
    Warmup,
    /// No sink, no registry: the measured passes.
    Plain,
    /// The invariant auditor alone, to time what auditing costs.
    Audited,
    /// Auditor, event capture, metric registry and spans.
    Traced,
}

/// What observing one call produced besides its result.
pub struct Observed<A> {
    /// The auditor sink, when one was installed.
    pub auditor: Option<A>,
    /// The event capture (traced mode).
    pub capture: Option<Capture>,
    /// The metric registry's snapshot (traced mode).
    pub metrics: Option<MetricsSnapshot>,
}

/// Runs `f` under the sinks `mode` asks for. `clock` is the live
/// backend's wall clock (stamps trace events and times histograms);
/// `None` for the simulator, whose events carry virtual time.
pub fn observe<A, R>(
    mode: Mode,
    nodes: usize,
    auditor: impl FnOnce() -> A,
    clock: Option<Arc<WallClock>>,
    f: impl FnOnce() -> R,
) -> (R, Observed<A>)
where
    A: TraceSink + Send + 'static,
{
    let mut seen = Observed {
        auditor: None,
        capture: None,
        metrics: None,
    };
    let r = match mode {
        Mode::Warmup | Mode::Plain => f(),
        Mode::Audited => {
            let (a, r) = install(auditor(), &clock, f);
            seen.auditor = Some(a);
            r
        }
        Mode::Traced => {
            // Shard ids wrap, and no pass has more than two writer
            // threads; one shard per simulated node would cost ~4 KB
            // each (440 MB at 100k nodes).
            let reg = MetricsRegistry::new(nodes.min(2));
            let traced = || install(Tee(auditor(), Capture::new(nodes)), &clock, f);
            let (Tee(a, cap), r) = match &clock {
                Some(c) => with_metrics_clocked(&reg, Arc::clone(c) as Arc<dyn CycleClock>, traced),
                None => with_metrics(&reg, traced),
            };
            seen.auditor = Some(a);
            seen.capture = Some(cap);
            seen.metrics = Some(reg.snapshot());
            r
        }
    };
    (r, seen)
}

fn install<S: TraceSink + Send + 'static, R>(
    sink: S,
    clock: &Option<Arc<WallClock>>,
    f: impl FnOnce() -> R,
) -> (S, R) {
    match clock {
        Some(c) => with_sink_clocked(sink, Arc::clone(c) as Arc<dyn Clock>, f),
        None => with_sink(sink, f),
    }
}

/// One simulated cell: a scheduler on a workload and machine size.
pub struct Cell<'a> {
    /// Roster name.
    pub scheduler: &'a str,
    /// Row label for failure messages.
    pub label: &'a str,
    /// The task forest.
    pub workload: &'a Arc<Workload>,
    /// Simulated processors (near-square mesh).
    pub nodes: usize,
    /// RID's load-update factor.
    pub rid_u: f64,
    /// Engine seed.
    pub seed: u64,
}

/// The invariant auditor for a cell: per tile for RIPS-H, whose
/// hierarchical planner balances within tiles.
fn auditor_for(scheduler: &str, nodes: usize) -> Auditor {
    if scheduler == "RIPS-H" {
        let mesh = Mesh2D::near_square(nodes);
        Auditor::with_tiles(nodes, TileGrid::new(&mesh).assignment())
    } else {
        Auditor::new(nodes)
    }
}

/// Runs one cell through `SchedulerRegistry::run` under the paper's
/// machine model (Paragon latency, default costs), observed as `mode`
/// asks, and counts it as one operation: every task executed exactly
/// once, the makespan no shorter than the work bound, and (audited and
/// traced passes) the auditor's verdict. A traced cell's layers are
/// folded into `out`. Returns the cell's wall time and outcome, or
/// `None` when it did not run to its end.
pub fn sim_cell(
    out: &mut Out,
    mode: Mode,
    spans: &Spans,
    reg: &SchedulerRegistry,
    c: &Cell,
) -> Option<(f64, RunOutcome)> {
    let what = format!("{} on {} at {} nodes", c.scheduler, c.label, c.nodes);
    let spec = RunSpec {
        workload: Arc::clone(c.workload),
        nodes: c.nodes,
        latency: LatencyModel::paragon(),
        costs: Costs::default(),
        seed: c.seed,
        rid_u: c.rid_u,
    };
    let t0 = Instant::now();
    let res = guarded(|| {
        observe(
            mode,
            c.nodes,
            || auditor_for(c.scheduler, c.nodes),
            None,
            || spans.span("registry.run", || reg.run(c.scheduler, &spec)),
        )
    });
    let dt = t0.elapsed().as_secs_f64();
    let (run, seen) = match res {
        Ok(r) => r,
        Err(e) => {
            out.op(Err(format!("{what}: {e}")));
            return None;
        }
    };
    let o = run.outcome;
    let mut check = o
        .verify_complete(c.workload)
        .map_err(|e| format!("{what}: {e}"))
        .and_then(|()| {
            check_makespan(
                &what,
                o.stats.end_time,
                c.workload.stats().total_work_us,
                c.nodes,
            )
        });
    if let Some(a) = seen.auditor {
        let rep = spans.span("auditor.finish", || a.finish());
        let phases = o.system_phases as usize;
        check = check.and(check_audit(&what, &AuditVerdict::of(&rep), phases));
        if mode == Mode::Traced {
            record_audit(out, rep.phases_checked, rep.max_spread);
        }
    }
    out.op(check);
    if mode == Mode::Traced {
        let fires = seen.metrics.map_or(0, |m| m.counter(Counter::TimerFires));
        record_sim(out, c.scheduler, &o, fires);
        if let Some(cap) = seen.capture {
            record_capture(out, &cap, false);
            replay_planners(out, spans, c.nodes, &cap.complete_load_vectors());
        }
    }
    Some((dt, o))
}

/// Folds one simulated outcome into the `desim`, `runtime` and `core`
/// per-layer metrics.
fn record_sim(out: &mut Out, scheduler: &str, o: &RunOutcome, timer_fires: u64) {
    let s = &o.stats;
    out.add("desim.events", s.events as f64);
    out.add(format!("desim.events.{scheduler}"), s.events as f64);
    out.add("desim.msgs", s.net.msgs as f64);
    out.add("desim.bytes", s.net.bytes as f64);
    out.add("desim.hops", s.net.hops as f64);
    out.add("desim.timer_fires", timer_fires as f64);
    out.max("desim.peak_queue_depth", s.peak_queue_depth as f64);
    out.max("desim.modelled_bytes", s.mem.total_bytes() as f64);
    out.add("runtime.executed", o.total_executed() as f64);
    out.add("runtime.nonlocal", o.nonlocal as f64);
    out.add("runtime.overhead_s", o.overhead_s());
    out.add("runtime.idle_s", o.idle_s());
    out.add("core.system_phases", f64::from(o.system_phases));
}

/// Folds a capture into `trace.events` and the per-stage times;
/// `wall` says whether its timestamps are wall-clock (live) or
/// virtual (desim).
pub fn record_capture(out: &mut Out, cap: &Capture, wall: bool) {
    out.add("trace.events", cap.events as f64);
    let kind = if wall { "wall" } else { "virtual" };
    for (name, us) in STAGE_NAMES.iter().zip(cap.stage_us) {
        out.add(format!("core.stage_{kind}_us.{name}"), us as f64);
    }
}

/// Folds an audit verdict into the `audit` metrics.
pub fn record_audit(out: &mut Out, phases_checked: usize, max_spread: i64) {
    out.add("audit.phases_checked", phases_checked as f64);
    out.max("audit.max_spread", max_spread as f64);
}

/// Replays the flat and the tiled Mesh Walking Algorithm on every load
/// vector a traced run collected, timing each call; the flat plan's
/// edge cost is the communication it prescribes.
fn replay_planners(out: &mut Out, spans: &Spans, nodes: usize, vectors: &[Vec<i64>]) {
    let mesh = Mesh2D::near_square(nodes);
    for loads in vectors {
        let t0 = Instant::now();
        let (plan, _) = spans.span("sched.mwa", || mwa(&mesh, loads));
        let t1 = Instant::now();
        spans.span("sched.tiled_mwa", || tiled_mwa(&mesh, loads));
        let t2 = Instant::now();
        out.add("sched.plan_calls", 1.0);
        out.add("sched.edge_cost", plan.edge_cost() as f64);
        out.add("sched.mwa_ns_total", (t1 - t0).as_nanos() as f64);
        out.add("sched.tiled_mwa_ns_total", (t2 - t1).as_nanos() as f64);
    }
}

/// Turns the replay totals into per-call means.
pub fn finish_planners(out: &mut Out) {
    let calls = out.layer.get("sched.plan_calls").copied().unwrap_or(0.0);
    for (total, mean) in [
        ("sched.mwa_ns_total", "sched.mwa_ns"),
        ("sched.tiled_mwa_ns_total", "sched.tiled_mwa_ns"),
    ] {
        let t = out.layer.remove(total).unwrap_or(0.0);
        if calls > 0.0 {
            out.set(mean, t / calls);
        }
    }
}

/// Folds the live backend's `metrics_rt` catalog into `live.*`.
pub fn record_live_metrics(out: &mut Out, m: &MetricsSnapshot) {
    out.add(
        "live.dispatch_rounds",
        m.counter(Counter::DispatchRounds) as f64,
    );
    out.add("live.msgs", m.counter(Counter::MsgsSent) as f64);
    out.add("live.packets", m.counter(Counter::PacketsSent) as f64);
    out.add("live.timer_fires", m.counter(Counter::TimerFires) as f64);
    out.add("live.park_count", m.histo(Histo::ParkNs).count as f64);
    for (h, name) in [
        (Histo::DispatchRoundNs, "dispatch_round_ns"),
        (Histo::GrainSetupNs, "grain_setup_ns"),
        (Histo::GrainExecNs, "grain_exec_ns"),
        (Histo::TransportSendNs, "transport_send_ns"),
        (Histo::TransportRecvNs, "transport_recv_ns"),
        (Histo::TimerWheelNs, "timer_wheel_ns"),
        (Histo::TraceEmitNs, "trace_emit_ns"),
        (Histo::ParkNs, "park_ns"),
    ] {
        let s = m.histo(h);
        out.add(format!("live.{name}_sum"), s.sum as f64);
        out.add(format!("live.{name}_count"), s.count as f64);
    }
}

/// Turns the histogram sums into per-sample means.
pub fn finish_live_metrics(out: &mut Out) {
    for name in [
        "dispatch_round_ns",
        "grain_setup_ns",
        "grain_exec_ns",
        "transport_send_ns",
        "transport_recv_ns",
        "timer_wheel_ns",
        "trace_emit_ns",
        "park_ns",
    ] {
        let sum = out.layer.remove(&format!("live.{name}_sum")).unwrap_or(0.0);
        let count = out
            .layer
            .remove(&format!("live.{name}_count"))
            .unwrap_or(0.0);
        if count > 0.0 {
            out.set(format!("live.{name}"), sum / count);
        }
    }
}

/// Folds the benchmark's spans into per-layer self times.
pub fn record_spans(out: &mut Out, spans: &[crate::spans::Span]) {
    for (name, s) in crate::spans::self_times(spans) {
        out.add(format!("spans.self_s.{name}"), s);
    }
}

/// A [`GrainRunner`] over a [`GrainTable`] that counts and times every
/// grain call (traced passes only; the measured passes run the table
/// directly).
pub struct TimedRunner {
    table: Arc<GrainTable>,
    spans: Spans,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl TimedRunner {
    /// Wraps `table`; each call is also recorded as a `grain.run` span.
    pub fn new(table: Arc<GrainTable>, spans: Spans) -> Self {
        TimedRunner {
            table,
            spans,
            calls: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// (calls, total ns) so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

impl GrainRunner for TimedRunner {
    fn run(&self, inst: &TaskInstance) -> GrainResult {
        let t0 = Instant::now();
        let out = self.table.run(inst.round, inst.task);
        let t1 = Instant::now();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        self.spans.leaf("grain.run", t0, t1);
        GrainResult {
            checksum: out.checksum,
            solutions: out.solutions,
        }
    }
}
