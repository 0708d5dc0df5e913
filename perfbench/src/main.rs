//! The RIPS benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! rips-perfbench --workload <paper-grid|mesh-100k|live-batch|serve-live>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones (see `README.md` for both lists and
//! which end-to-end metric each per-layer metric should move).

mod capture;
mod layers;
mod oracle;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;

use oracle::Check;

/// End-to-end metrics, printed by every workload with tracing off:
/// name, unit and the share of the parent's median by which each may
/// worsen before a change counts as a regression (all are lower-is-
/// better). `BENCHMARK.json` must carry the same bounds.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
];

/// Schedulers broken out per name on `paper-grid` (the roster).
pub const ROSTER: [&str; 6] = ["Random", "Gradient", "RID", "RIPS", "RIPS-H", "SID"];

/// Per-layer metrics, printed by every workload with tracing on (0
/// where the workload does not exercise the layer).
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for family in ["queens", "ida", "gromos", "synthetic", "catalog"] {
        add(&format!("apps.build_s.{family}"), "s");
    }
    add("apps.grain_calls", "count");
    add("apps.grain_ns_mean", "ns");
    add("apps.seq_s", "s");
    add("taskgraph.tasks", "count");
    add("taskgraph.rounds", "count");
    for (m, unit) in [
        ("events", "count"),
        ("ns_per_event", "ns"),
        ("msgs", "count"),
        ("bytes", "B"),
        ("hops", "count"),
        ("timer_fires", "count"),
        ("peak_queue_depth", "count"),
        ("modelled_bytes", "B"),
        ("sim_makespan_s", "virtual_s"),
    ] {
        add(&format!("desim.{m}"), unit);
    }
    for s in ROSTER {
        add(&format!("desim.events.{s}"), "count");
        add(&format!("desim.ns_per_event.{s}"), "ns");
    }
    add("runtime.executed", "count");
    add("runtime.nonlocal", "count");
    add("runtime.overhead_s", "virtual_s");
    add("runtime.idle_s", "virtual_s");
    add("core.system_phases", "count");
    for stage in layers::STAGE_NAMES {
        add(&format!("core.stage_virtual_us.{stage}"), "virtual_us");
        add(&format!("core.stage_wall_us.{stage}"), "us");
    }
    add("sched.plan_calls", "count");
    add("sched.edge_cost", "tasks");
    add("sched.mwa_ns", "ns");
    add("sched.tiled_mwa_ns", "ns");
    add("live.dispatch_rounds", "count");
    for h in [
        "dispatch_round_ns",
        "grain_setup_ns",
        "grain_exec_ns",
        "transport_send_ns",
        "transport_recv_ns",
        "timer_wheel_ns",
        "trace_emit_ns",
        "park_ns",
    ] {
        add(&format!("live.{h}"), "ns");
    }
    add("live.park_count", "count");
    add("live.msgs", "count");
    add("live.packets", "count");
    add("live.timer_fires", "count");
    add("live.speedup_2t", "x");
    add("serve.latency_p50_ms", "ms");
    add("serve.latency_p99_ms", "ms");
    add("serve.capacity_jobs_per_s", "jobs/s");
    add("serve.admission_wait_ms", "ms");
    add("serve.queue_wait_ms", "ms");
    add("serve.service_ms_p50", "ms");
    add("serve.service_ms_p99", "ms");
    add("serve.offered", "count");
    add("serve.shed", "count");
    add("serve.peak_pending", "count");
    add("audit.phases_checked", "count");
    add("audit.max_spread", "tasks");
    add("audit.audit_s", "s");
    add("trace.events", "count");
    add("trace.overhead_s", "s");
    for span in layers::SPAN_NAMES {
        add(&format!("spans.self_s.{span}"), "s");
    }
    v
}

/// What one invocation was asked to do.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Minimum measuring time; whole passes are repeated until it is
    /// spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a measured run.
    pub trace: bool,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Out {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check (or panicked).
    pub failed: u64,
    /// Why each failed operation failed.
    pub errors: Vec<String>,
    /// One sample per input set-up.
    pub setup_s: Vec<f64>,
    /// One sample per measured pass.
    pub wall_s: Vec<f64>,
    /// Summed simulated makespans, one sample per simulated pass
    /// (virtual seconds).
    pub sim_makespan_s: Vec<f64>,
    /// Per-layer values (traced runs).
    pub layer: BTreeMap<String, f64>,
}

impl Out {
    /// Counts one operation whose checks gave `result`.
    pub fn op(&mut self, result: Check) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Sets a per-layer value.
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.layer.insert(name.into(), v);
    }

    /// Adds to a per-layer value.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.layer.entry(name.into()).or_insert(0.0) += v;
    }

    /// Raises a per-layer value to at least `v`.
    pub fn max(&mut self, name: impl Into<String>, v: f64) {
        let e = self.layer.entry(name.into()).or_insert(v);
        *e = e.max(v);
    }
}

/// Runs `f`, turning a panic into an error (a failed operation).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((
        workload,
        Ctx {
            seed,
            seconds: seconds as f64,
            trace,
        },
    ))
}

/// Peak resident set of this process (MB), from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Host descriptor: core count, compiler and source revision.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git when this directory is itself a checkout; a parent
    // directory's repository would name the wrong revision.
    let git = std::path::Path::new(".git")
        .exists()
        .then(|| run("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!("host: nproc={nproc} rustc=\"{rustc}\" git={git}")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: rips-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let Some(run) = workloads::by_name(&workload) else {
        eprintln!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    println!("{}", host_line());
    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let mut out = Out::default();
    run(&ctx, &mut out);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if let Some(m) = stats::median(&out.sim_makespan_s) {
        out.set("desim.sim_makespan_s", m);
    }
    if ctx.trace {
        for (name, unit) in per_layer_catalog() {
            let v = out.layer.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
    } else {
        let rss = peak_rss_mb().unwrap_or(f64::NAN);
        for &(name, unit, _) in END_TO_END {
            let samples: &[f64] = match name {
                "setup_s" => &out.setup_s,
                "wall_s" => &out.wall_s,
                _ => &[rss],
            };
            let med = stats::median(samples).unwrap_or(f64::NAN);
            let (q1, q3) = stats::quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "repeats: {name} n={} median={med} q1={q1} q3={q3} {unit}",
                samples.len()
            );
            metrics.push((name.to_string(), med, unit));
        }
    }
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = out.failed == 0 && out.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must list exactly the
    /// metrics this program prints, with the same units, and the
    /// end-to-end metrics with the bounds `END_TO_END` fixes.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut want: Vec<String> = END_TO_END
            .iter()
            .map(|(n, u, b)| {
                format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"lower\", \"bound\": {b}}}")
            })
            .collect();
        want.extend(
            per_layer_catalog()
                .iter()
                .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\""))
                .collect::<Vec<_>>(),
        );
        for w in &want {
            assert!(text.contains(w.as_str()), "BENCHMARK.json lacks {w}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            want.len() + workloads::NAMES.len(),
            "BENCHMARK.json lists metrics or workloads the program does not know"
        );
        for w in workloads::NAMES {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\"")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let cat = per_layer_catalog();
        let mut names: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(cat.len() <= 128);
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
