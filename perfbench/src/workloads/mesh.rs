//! `mesh-100k`: RIPS and RIPS-H on a simulated 100,000-node mesh. The
//! input is the `scale_curve` workload — a skewed flat forest of four
//! tasks per node — with eureka (hardware or-barrier) idle signalling.
//! At this size the engine's event queue, routing and per-node state
//! and the planners dominate; application forests and the policies'
//! message mix barely matter.
//!
//! The simulator's cost per event at this size moves by up to ±15 %
//! between inputs drawn from different seeds at equal event counts, so
//! each run draws three inputs from its seed and its passes cycle
//! through them: the run's median then describes the input family,
//! not one draw.

use std::sync::Arc;

use rips_bench::{registry_with, RegistryTuning};
use rips_core::RipsConfig;
use rips_taskgraph::{skewed_flat, Workload};

use super::{drive, setup, Pass};
use crate::layers::{finish_planners, sim_cell, Cell, Mode};
use crate::spans::Spans;
use crate::{stats, Ctx, Out};

const NODES: usize = 100_000;
const TASKS_PER_NODE: usize = 4;
const SCHEDULERS: [&str; 2] = ["RIPS", "RIPS-H"];
/// Inputs drawn per run.
const INPUTS: u64 = 3;

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Out) {
    let spans = if ctx.trace { Spans::on() } else { Spans::off() };
    let inputs: Vec<Arc<Workload>> = setup(out, 9, |_| {
        (0..INPUTS)
            .map(|k| {
                let seed = ctx.seed.wrapping_mul(INPUTS).wrapping_add(k);
                spans.span("app.build", || {
                    Arc::new(skewed_flat(NODES * TASKS_PER_NODE, 2_000, 64, 20, seed))
                })
            })
            .collect()
    });
    out.set(
        "apps.build_s.synthetic",
        stats::median(&out.setup_s).unwrap_or(0.0),
    );
    for w in &inputs {
        out.add("taskgraph.tasks", w.stats().tasks as f64);
        out.add("taskgraph.rounds", w.rounds.len() as f64);
        println!(
            "input: skewed-flat {} tasks on {NODES} nodes",
            w.stats().tasks
        );
    }

    let reg = registry_with(RegistryTuning {
        rips: RipsConfig {
            eureka: true,
            ..RipsConfig::default()
        },
        ..RegistryTuning::default()
    });
    let mut pass_events = Vec::new();
    let mut next = 0;
    drive(ctx, "mesh-100k", out, &spans, 1, 6, |mode, spans, out| {
        let input = next % inputs.len();
        let workload = &inputs[input];
        next += 1;
        let mut wall = 0.0;
        let mut makespan_us = 0u64;
        let mut events = 0u64;
        for sched in SCHEDULERS {
            let cell = Cell {
                scheduler: sched,
                label: "skewed-flat",
                workload,
                nodes: NODES,
                rid_u: 0.4,
                seed: ctx.seed,
            };
            if let Some((dt, o)) = sim_cell(out, mode, spans, &reg, &cell) {
                wall += dt;
                events += o.stats.events;
                makespan_us += o.stats.end_time;
            }
        }
        if mode == Mode::Plain {
            pass_events.push(events as f64);
        }
        Pass {
            wall_s: wall,
            sim_makespan_s: Some(makespan_us as f64 / 1e6),
            input,
        }
    });
    if ctx.trace {
        finish_planners(out);
        let per_event: Vec<f64> = out
            .wall_s
            .iter()
            .zip(&pass_events)
            .map(|(w, e)| w * 1e9 / e)
            .collect();
        out.set(
            "desim.ns_per_event",
            stats::median(&per_event).unwrap_or(0.0),
        );
    }
}
