//! `live-batch`: RIPS and RID on the live backend — real OS threads,
//! real grains, compute mode — at two threads, on paper-size GROMOS
//! 8 Å (14,958 tasks) and 13-Queens, each run once per pass. Real
//! grains dominate, so this shows whether two cores beat one. The
//! seed reaches the policies only: the inputs are the paper's.

use std::sync::Arc;
use std::time::Instant;

use rips_apps::{gromos_with_grains, nqueens_with_grains, GrainTable, GromosConfig, NQueensConfig};
use rips_audit::Auditor;
use rips_bench::live::{live_run, TableRunner};
use rips_live::{GrainMode, GrainRunner, LiveOpts, WallClock};
use rips_taskgraph::Workload;
use rips_trace::Clock;

use super::{drive, setup, Pass};
use crate::layers::{
    finish_live_metrics, observe, record_audit, record_capture, record_live_metrics, Mode,
    TimedRunner,
};
use crate::oracle::{
    check_audit, check_queens, check_totals, sequential_totals, AuditVerdict, Totals,
};
use crate::spans::Spans;
use crate::{guarded, stats, Ctx, Out};

const THREADS: usize = 2;
const SCHEDULERS: [&str; 2] = ["RIPS", "RID"];
/// RID's load-update factor (the paper's 0.4).
const RID_U: f64 = 0.4;

struct App {
    label: &'static str,
    workload: Arc<Workload>,
    table: Arc<GrainTable>,
    /// Board size for the published solution count.
    queens: Option<u32>,
}

fn build(out: &mut Out, spans: &Spans) -> Vec<App> {
    let mut apps = Vec::new();
    let t0 = Instant::now();
    let (w, t) = spans.span("app.build", || {
        gromos_with_grains(GromosConfig {
            atoms: 6968,
            groups: 4986,
            cutoff: 8.0,
            steps: 3,
            ns_per_pair: 32_000,
            seed: 2206,
        })
    });
    out.add("apps.build_s.gromos", t0.elapsed().as_secs_f64());
    apps.push(App {
        label: "GROMOS 8 A",
        workload: Arc::new(w),
        table: Arc::new(t),
        queens: None,
    });
    let t0 = Instant::now();
    let (w, t) = spans.span("app.build", || {
        nqueens_with_grains(NQueensConfig {
            n: 13,
            split_depth: 4,
            root_depth: 2,
            ns_per_node: 1800,
        })
    });
    out.add("apps.build_s.queens", t0.elapsed().as_secs_f64());
    apps.push(App {
        label: "13-Queens",
        workload: Arc::new(w),
        table: Arc::new(t),
        queens: Some(13),
    });
    apps
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Out) {
    const SETUPS: usize = 5;
    let spans = if ctx.trace { Spans::on() } else { Spans::off() };
    let apps = setup(out, SETUPS, |out| build(out, &spans));
    for family in ["gromos", "queens"] {
        let key = format!("apps.build_s.{family}");
        let total = out.layer.get(&key).copied().unwrap_or(0.0);
        out.set(key, total / SETUPS as f64);
    }
    for a in &apps {
        out.add("taskgraph.tasks", a.workload.stats().tasks as f64);
        out.add("taskgraph.rounds", a.workload.rounds.len() as f64);
        println!("input: {} {} tasks", a.label, a.workload.stats().tasks);
    }

    // The benchmark's own sequential loop: the reference totals, and
    // the one-core baseline of the speedup (median of three).
    let mut truth: Vec<Totals> = Vec::new();
    let mut seq_s = Vec::new();
    for rep in 0..3 {
        let t0 = Instant::now();
        let totals: Vec<Totals> = apps.iter().map(|a| sequential_totals(&a.table)).collect();
        seq_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            truth = totals;
        }
    }
    let seq_s = stats::median(&seq_s).unwrap_or(0.0);
    out.set("apps.seq_s", seq_s);
    for (a, t) in apps.iter().zip(&truth) {
        if let Some(n) = a.queens {
            out.op(check_queens(n, t.solutions));
        }
    }

    let mut grain = (0u64, 0u64);
    drive(ctx, "live-batch", out, &spans, 1, 1, |mode, spans, out| {
        let mut wall = 0.0;
        for (a, want) in apps.iter().zip(&truth) {
            for sched in SCHEDULERS {
                let what = format!("live {sched} on {} at {THREADS} threads", a.label);
                let clock = matches!(mode, Mode::Audited | Mode::Traced)
                    .then(|| Arc::new(WallClock::new()));
                let timed = (mode == Mode::Traced)
                    .then(|| Arc::new(TimedRunner::new(Arc::clone(&a.table), spans.clone())));
                let runner: Arc<dyn GrainRunner> = match &timed {
                    Some(t) => t.clone(),
                    None => Arc::new(TableRunner(Arc::clone(&a.table))),
                };
                let opts = LiveOpts {
                    mode: GrainMode::Compute,
                    runner,
                    clock: clock.clone().map(|c| c as Arc<dyn Clock>),
                    ..LiveOpts::default()
                };
                let t0 = Instant::now();
                let res = guarded(|| {
                    observe(
                        mode,
                        THREADS,
                        || Auditor::new(THREADS),
                        clock,
                        || {
                            spans.request("live.run", || {
                                live_run(sched, &a.workload, THREADS, RID_U, ctx.seed, opts)
                            })
                        },
                    )
                });
                let dt = t0.elapsed().as_secs_f64();
                let (o, seen) = match res {
                    Ok(r) => r,
                    Err(e) => {
                        out.op(Err(format!("{what}: {e}")));
                        continue;
                    }
                };
                wall += dt;
                let got = Totals {
                    checksum: o.checksum,
                    solutions: o.solutions,
                };
                let mut check = o
                    .verify_complete(&a.workload)
                    .map_err(|e| format!("{what}: {e}"))
                    .and(check_totals(&what, *want, got));
                if let Some(n) = a.queens {
                    check = check.and(check_queens(n, o.solutions));
                }
                if let Some(aud) = seen.auditor {
                    let rep = spans.span("auditor.finish", || aud.finish());
                    let phases = o.system_phases as usize;
                    check = check.and(check_audit(&what, &AuditVerdict::of(&rep), phases));
                    if mode == Mode::Traced {
                        record_audit(out, rep.phases_checked, rep.max_spread);
                    }
                }
                out.op(check);
                if mode == Mode::Traced {
                    out.add("runtime.executed", o.total_executed() as f64);
                    out.add("runtime.nonlocal", o.nonlocal as f64);
                    out.add("core.system_phases", f64::from(o.system_phases));
                    if let Some(m) = &seen.metrics {
                        record_live_metrics(out, m);
                    }
                    if let Some(cap) = &seen.capture {
                        record_capture(out, cap, true);
                    }
                    if let Some(t) = &timed {
                        let (calls, ns) = t.totals();
                        grain = (grain.0 + calls, grain.1 + ns);
                    }
                }
            }
        }
        Pass {
            wall_s: wall,
            sim_makespan_s: None,
            input: 0,
        }
    });
    if ctx.trace {
        finish_live_metrics(out);
        out.set("apps.grain_calls", grain.0 as f64);
        out.set("apps.grain_ns_mean", grain.1 as f64 / grain.0.max(1) as f64);
        // Each pass runs every app once per scheduler.
        let seq_pass = seq_s * SCHEDULERS.len() as f64;
        let wall = stats::median(&out.wall_s).unwrap_or(f64::NAN);
        out.set("live.speedup_2t", seq_pass / wall);
    }
}
