//! The four workloads and the pass loop they share.

mod live_batch;
mod mesh;
mod paper_grid;
mod serve_live;

use std::path::PathBuf;
use std::time::Instant;

use crate::layers::{record_spans, Mode};
use crate::spans::{write_jsonl, Spans};
use crate::{stats, Ctx, Out};

/// Workload names, as `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-grid", "mesh-100k", "live-batch", "serve-live"];

/// A workload's entry point.
pub type Run = fn(&Ctx, &mut Out);

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Run> {
    match name {
        "paper-grid" => Some(paper_grid::run),
        "mesh-100k" => Some(mesh::run),
        "live-batch" => Some(live_batch::run),
        "serve-live" => Some(serve_live::run),
        _ => None,
    }
}

/// What one pass measured.
pub struct Pass {
    /// Host wall time of the pass's measured calls (s).
    pub wall_s: f64,
    /// Summed simulated makespans of the pass's cells (virtual s), or
    /// `None` when the workload does not simulate.
    pub sim_makespan_s: Option<f64>,
    /// Which of the workload's inputs the pass ran on.
    pub input: usize,
}

/// Sets the workload's inputs up `reps` times, recording each set-up
/// time, and keeps the last set of inputs.
pub fn setup<T>(out: &mut Out, reps: usize, mut build: impl FnMut(&mut Out) -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let inputs = build(out);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(inputs);
    }
    last.expect("at least one set-up")
}

/// Makes `warmup` unmeasured plain passes (first-touch page faults
/// and allocator growth land there), then repeats whole measured plain
/// passes until `ctx.seconds` is spent and at least `min_passes` ran:
/// on this shared host single passes of the simulator swing by ±15 %,
/// so the median needs several. A traced
/// run then makes one audited and one traced pass; their wall times
/// minus the median of the plain passes on the same input are the
/// audit and tracing overheads.
/// The traced pass records spans into `spans`, which are written out
/// and folded into per-span self times when it ends.
pub fn drive(
    ctx: &Ctx,
    workload: &str,
    out: &mut Out,
    spans: &Spans,
    warmup: usize,
    min_passes: usize,
    mut pass: impl FnMut(Mode, &Spans, &mut Out) -> Pass,
) {
    let off = Spans::off();
    for _ in 0..warmup {
        let p = pass(Mode::Warmup, &off, out);
        eprintln!("warm-up pass: wall_s={}", p.wall_s);
    }
    let t0 = Instant::now();
    let mut inputs = Vec::new();
    loop {
        let p = pass(Mode::Plain, &off, out);
        eprintln!("pass {}: wall_s={}", out.wall_s.len(), p.wall_s);
        out.wall_s.push(p.wall_s);
        inputs.push(p.input);
        out.sim_makespan_s.extend(p.sim_makespan_s);
        if out.wall_s.len() >= min_passes && t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    if !ctx.trace {
        return;
    }
    let audited = pass(Mode::Audited, &off, out);
    let base = plain_median(&out.wall_s, &inputs, audited.input);
    out.set("audit.audit_s", audited.wall_s - base);
    let traced = pass(Mode::Traced, spans, out);
    let base = plain_median(&out.wall_s, &inputs, traced.input);
    out.set("trace.overhead_s", traced.wall_s - base);
    let all = spans.take();
    record_spans(out, &all);
    let path = PathBuf::from(format!(
        "perfbench/out/spans-{workload}-seed{}.jsonl",
        ctx.seed
    ));
    match write_jsonl(&path, &all) {
        Ok(()) => println!("spans: {} written to {}", all.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Median wall time of the plain passes that ran on `input` (of all
/// plain passes when none did): the simulator's cost per event differs
/// between inputs, so an overhead is measured against its own input.
fn plain_median(wall_s: &[f64], inputs: &[usize], input: usize) -> f64 {
    let same: Vec<f64> = wall_s
        .iter()
        .zip(inputs)
        .filter(|&(_, &i)| i == input)
        .map(|(&w, _)| w)
        .collect();
    stats::median(&same)
        .or_else(|| stats::median(wall_s))
        .expect("at least one pass")
}
