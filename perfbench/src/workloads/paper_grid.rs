//! `paper-grid`: the paper's Table I — nine applications under every
//! roster scheduler on a simulated 32-node Paragon — plus Table III's
//! three largest instances at 128 nodes.
//!
//! Every application instance is pinned here as an explicit config
//! (the values the `::paper()` presets hold today), so a later change
//! to a preset cannot silently change this workload's inputs. The
//! inputs do not depend on the seed; the schedulers' random choices do.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rips_apps::{
    gromos, nqueens_with_grains, puzzle, GrainTable, GromosConfig, NQueensConfig, PuzzleConfig,
};
use rips_bench::registry;
use rips_taskgraph::Workload;

use super::{drive, setup, Pass};
use crate::layers::{finish_planners, sim_cell, Cell, Mode};
use crate::oracle::{check_queens, sequential_totals};
use crate::spans::Spans;
use crate::{guarded, stats, Ctx, Out, ROSTER};

/// Table I's machine size.
const NODES: usize = 32;
/// Table III's largest machine.
const BIG_NODES: usize = 128;

struct App {
    label: &'static str,
    family: &'static str,
    workload: Arc<Workload>,
    /// RID's load-update factor on ≥ 64 nodes (the paper raises it to
    /// 0.7 for IDA*; 0.4 everywhere else).
    rid_u_big: f64,
    /// N-Queens board size and grain table (solution-count oracle).
    queens: Option<(u32, GrainTable)>,
    /// Also runs at 128 nodes (Table III).
    big: bool,
}

fn queens(n: u32) -> NQueensConfig {
    NQueensConfig {
        n,
        split_depth: 4,
        root_depth: 2,
        ns_per_node: 1800,
    }
}

fn ida(seed: u64, min_tasks: usize) -> PuzzleConfig {
    PuzzleConfig {
        scramble_len: 100,
        seed,
        min_tasks,
        ns_per_node: 1500,
        split_divisor: 1024,
        split_floor_nodes: 20_000,
    }
}

fn md(cutoff: f64) -> GromosConfig {
    GromosConfig {
        atoms: 6968,
        groups: 4986,
        cutoff,
        steps: 3,
        ns_per_pair: 32_000,
        seed: 2206,
    }
}

fn build(out: &mut Out, spans: &Spans) -> Vec<App> {
    let mut apps = Vec::new();
    let mut family_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut timed = |family: &'static str,
                     f: &mut dyn FnMut() -> (Workload, Option<GrainTable>)| {
        let t0 = Instant::now();
        let built = spans.span("app.build", f);
        *family_s.entry(family).or_default() += t0.elapsed().as_secs_f64();
        built
    };
    for n in [13, 14, 15] {
        let (w, t) = timed("queens", &mut || {
            let (w, t) = nqueens_with_grains(queens(n));
            (w, Some(t))
        });
        apps.push(App {
            label: ["13-Queens", "14-Queens", "15-Queens"][n as usize - 13],
            family: "queens",
            workload: Arc::new(w),
            rid_u_big: 0.4,
            queens: t.map(|t| (n, t)),
            big: n == 15,
        });
    }
    for (i, (seed, min_tasks)) in [(5, 256), (10, 256), (9, 2048)].into_iter().enumerate() {
        let (w, _) = timed("ida", &mut || (puzzle(ida(seed, min_tasks)), None));
        apps.push(App {
            label: ["IDA* #1", "IDA* #2", "IDA* #3"][i],
            family: "ida",
            workload: Arc::new(w),
            rid_u_big: 0.7,
            queens: None,
            big: i == 2,
        });
    }
    for (i, cutoff) in [8.0, 12.0, 16.0].into_iter().enumerate() {
        let (w, _) = timed("gromos", &mut || (gromos(md(cutoff)), None));
        apps.push(App {
            label: ["GROMOS 8 A", "GROMOS 12 A", "GROMOS 16 A"][i],
            family: "gromos",
            workload: Arc::new(w),
            rid_u_big: 0.4,
            queens: None,
            big: i == 2,
        });
    }
    for (family, s) in family_s {
        out.set(format!("apps.build_s.{family}"), s);
    }
    apps
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Out) {
    let spans = if ctx.trace { Spans::on() } else { Spans::off() };
    // One set-up per run: building IDA* #2 alone takes ~25 s, so
    // repeating the set-up would not fit a run's time budget.
    let apps = setup(out, 1, |out| build(out, &spans));
    for a in &apps {
        let s = a.workload.stats();
        out.add("taskgraph.tasks", s.tasks as f64);
        out.add("taskgraph.rounds", a.workload.rounds.len() as f64);
        println!("input: {} ({}) {} tasks", a.label, a.family, s.tasks);
    }
    // Solution counts: the benchmark's own loop over each N-Queens
    // grain table against the published counts.
    let t0 = Instant::now();
    for a in &apps {
        if let Some((n, table)) = &a.queens {
            out.op(guarded(|| sequential_totals(table))
                .and_then(|t| check_queens(*n, t.solutions)));
        }
    }
    out.set("apps.seq_s", t0.elapsed().as_secs_f64());

    let mut cells: Vec<(usize, usize, &str)> = Vec::new();
    for i in 0..apps.len() {
        cells.extend(ROSTER.iter().map(|&s| (i, NODES, s)));
    }
    for (i, _) in apps.iter().enumerate().filter(|(_, a)| a.big) {
        cells.extend(ROSTER.iter().map(|&s| (i, BIG_NODES, s)));
    }
    let reg = registry();
    // Per-scheduler wall time of each plain pass, for ns/event.
    let mut sched_wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sched_events: BTreeMap<&str, u64> = BTreeMap::new();
    let mut pass_events = 0u64;
    drive(ctx, "paper-grid", out, &spans, 1, 4, |mode, spans, out| {
        let mut wall = 0.0;
        let mut makespan_us = 0u64;
        let mut by_sched: BTreeMap<&str, f64> = BTreeMap::new();
        let mut events = 0u64;
        for &(i, nodes, sched) in &cells {
            let app = &apps[i];
            let cell = Cell {
                scheduler: sched,
                label: app.label,
                workload: &app.workload,
                nodes,
                rid_u: if nodes >= 64 { app.rid_u_big } else { 0.4 },
                seed: ctx.seed,
            };
            let Some((dt, o)) = sim_cell(out, mode, spans, &reg, &cell) else {
                continue;
            };
            wall += dt;
            *by_sched.entry(sched).or_default() += dt;
            events += o.stats.events;
            makespan_us += o.stats.end_time;
            if mode == Mode::Plain {
                *sched_events.entry(sched).or_default() += o.stats.events;
            }
        }
        if mode == Mode::Plain {
            for (s, w) in by_sched {
                sched_wall.entry(s).or_default().push(w);
            }
            pass_events = events;
        }
        Pass {
            wall_s: wall,
            sim_makespan_s: Some(makespan_us as f64 / 1e6),
            input: 0,
        }
    });
    if ctx.trace {
        finish_planners(out);
        let passes = out.wall_s.len() as f64;
        let wall = stats::median(&out.wall_s).unwrap_or(0.0);
        out.set("desim.ns_per_event", wall * 1e9 / pass_events.max(1) as f64);
        for (s, walls) in &sched_wall {
            let ev = sched_events.get(s).copied().unwrap_or(0) as f64 / passes;
            let w = stats::median(walls).unwrap_or(0.0);
            out.set(format!("desim.ns_per_event.{s}"), w * 1e9 / ev.max(1.0));
        }
    }
}
