//! `serve-live`: open-loop Poisson traffic from four tenants drawing
//! jobs from `Catalog::standard()`, served by RIPS on the live backend
//! at two threads. The offered rate is fixed (not calibrated per run)
//! and light enough that nothing is shed. Jobs take a few ms each, so
//! per-job start-up, system-phase timers and parking dominate — the
//! same live layer `live-batch` uses, used the opposite way.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rips_audit::ServeAuditor;
use rips_live::WallClock;
use rips_serve::{
    generate, run_serve, AdmissionConfig, Arrival, ArrivalProcess, Catalog, JobApp, JobBackend,
    LiveBackend, ServeConfig, ServiceOutcome, TrafficConfig,
};

use super::{drive, setup, Pass};
use crate::capture::JobTimes;
use crate::layers::{
    finish_live_metrics, observe, record_audit, record_capture, record_live_metrics, Mode,
};
use crate::oracle::{
    check_audit, check_conservation, check_latency, check_queens, check_totals, sequential_totals,
    AuditVerdict, Check, Totals,
};
use crate::spans::Spans;
use crate::{guarded, stats, Ctx, Out};

const THREADS: usize = 2;
const TENANTS: u32 = 4;
/// 1,000 jobs: a round outlasts an 8 s run today, and its p99 has ten
/// samples beyond it.
const JOBS_PER_TENANT: u32 = 250;
/// Per-tenant mean gap: four tenants offer 20 jobs/s together.
const MEAN_INTERARRIVAL_US: u64 = 200_000;
const SCHEDULER: &str = "RIPS";

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        scheduler: SCHEDULER.into(),
        traffic: TrafficConfig {
            tenants: TENANTS,
            jobs_per_tenant: JOBS_PER_TENANT,
            mean_interarrival_us: MEAN_INTERARRIVAL_US,
            process: ArrivalProcess::Poisson,
            seed,
        },
        admission: AdmissionConfig {
            max_pending: 64,
            tenant_quota: 16,
        },
        quantum: 64,
        service_seed: seed,
    }
}

/// Board size of a catalog N-Queens entry (`queens8` → 8).
fn queens_n(app: &str) -> Option<u32> {
    app.strip_prefix("queens")?.parse().ok()
}

/// The live fleet behind a checking, timing shim: every served job is
/// compared with the sequential loop's totals for its app, and its
/// service call is timed from outside.
struct Checked<'a> {
    inner: LiveBackend,
    truth: &'a BTreeMap<&'static str, Totals>,
    spans: Spans,
    /// Per job, in dispatch order: the check and the service time the
    /// serve timeline used (µs).
    jobs: Vec<(Check, u64)>,
    /// Outer wall time of each `JobBackend::service` call (ms).
    outer_ms: Vec<f64>,
}

impl JobBackend for Checked<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn service(&mut self, scheduler: &str, app: &JobApp, seed: u64) -> ServiceOutcome {
        let t0 = Instant::now();
        let out = self.spans.request("backend.service", || {
            self.inner.service(scheduler, app, seed)
        });
        self.outer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let got = Totals {
            checksum: out.checksum,
            solutions: out.solutions,
        };
        let what = format!("job {} ({})", self.jobs.len(), app.name);
        let mut check = match self.truth.get(app.name) {
            Some(want) => check_totals(&what, *want, got),
            None => Err(format!("{what}: no sequential totals for this app")),
        };
        if out.executed != app.tasks {
            check = check.and(Err(format!(
                "{what}: executed {} of {} tasks",
                out.executed, app.tasks
            )));
        }
        if let Some(n) = queens_n(app.name) {
            check = check.and(check_queens(n, out.solutions));
        }
        self.jobs.push((check, out.service_us));
        out
    }
}

/// Checks every job the trace shows served against sources apart from
/// the trace: its submission against the arrival schedule `generate`
/// draws, its service (completion − dispatch) against the service the
/// backend returned for it (`service_us`, in dispatch order), and its
/// latency (completion − scheduled arrival) against that service.
/// Returns the mean admission wait (until the job in service at
/// submission completes) and the mean queue wait (submission to
/// dispatch), both in ms.
fn check_jobs(
    jobs: &BTreeMap<u64, JobTimes>,
    arrivals: &[Arrival],
    service_us: &[u64],
    out: &mut Out,
) -> (f64, f64) {
    let mut served: Vec<(u64, u64, u64, u64)> = jobs
        .iter()
        .filter_map(|(&id, j)| Some((id, j.submit?, j.dispatch?, j.complete?)))
        .collect();
    served.sort_by_key(|&(_, _, d, _)| d);
    if served.len() != service_us.len() {
        out.op(Err(format!(
            "serve: the trace shows {} jobs served, the backend served {}",
            served.len(),
            service_us.len()
        )));
    }
    let arrival: BTreeMap<u64, u64> = arrivals.iter().map(|a| (a.job, a.time)).collect();
    let busy: Vec<(u64, u64)> = served.iter().map(|&(_, _, d, c)| (d, c)).collect();
    let (mut admission, mut queue) = (0.0, 0.0);
    for (&(job, s, d, c), &svc) in served.iter().zip(service_us) {
        let check = match arrival.get(&job) {
            None => Err(format!("job {job}: not in the arrival schedule")),
            Some(&a) if s != a => Err(format!(
                "job {job}: submitted at {s} us, scheduled to arrive at {a} us"
            )),
            Some(_) if c.saturating_sub(d) != svc => Err(format!(
                "job {job}: served for {} us on the timeline, the backend took {svc} us",
                c.saturating_sub(d)
            )),
            Some(&a) => check_latency(job, c.saturating_sub(a), svc),
        };
        out.op(check);
        // The service in progress when the job arrived, if any.
        let i = busy.partition_point(|&(bd, _)| bd < s);
        if let Some(&(_, bc)) = i.checked_sub(1).map(|i| &busy[i]) {
            admission += bc.saturating_sub(s) as f64;
        }
        queue += d.saturating_sub(s) as f64;
    }
    let n = served.len().max(1) as f64;
    (admission / n / 1e3, queue / n / 1e3)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Out) {
    let spans = if ctx.trace { Spans::on() } else { Spans::off() };
    let catalog = setup(out, 25, |_| spans.span("app.build", Catalog::standard));
    out.set(
        "apps.build_s.catalog",
        stats::median(&out.setup_s).unwrap_or(0.0),
    );
    let mut truth = BTreeMap::new();
    for app in catalog.apps() {
        out.add("taskgraph.tasks", app.tasks as f64);
        out.add("taskgraph.rounds", app.workload.rounds.len() as f64);
        let t = sequential_totals(&app.table);
        if let Some(n) = queens_n(app.name) {
            out.op(check_queens(n, t.solutions));
        }
        truth.insert(app.name, t);
    }
    let cfg = config(ctx.seed);
    let offered = u64::from(TENANTS * JOBS_PER_TENANT);
    println!(
        "input: {offered} jobs from {TENANTS} tenants at {} jobs/s offered",
        f64::from(TENANTS) * 1e6 / MEAN_INTERARRIVAL_US as f64
    );

    let arrivals = generate(&cfg.traffic, &catalog);

    let mut latency_ms: Vec<(f64, f64)> = Vec::new();
    let mut capacity = Vec::new();
    let mut outer_ms: Vec<f64> = Vec::new();
    drive(ctx, "serve-live", out, &spans, 0, 1, |mode, spans, out| {
        let mut backend = Checked {
            inner: LiveBackend::new(THREADS),
            truth: &truth,
            spans: spans.clone(),
            jobs: Vec::new(),
            outer_ms: Vec::new(),
        };
        let clock =
            matches!(mode, Mode::Audited | Mode::Traced).then(|| Arc::new(WallClock::new()));
        let t0 = Instant::now();
        let res = guarded(|| {
            observe(
                mode,
                THREADS,
                || ServeAuditor::new(THREADS),
                clock,
                || spans.span("serve.run", || run_serve(&cfg, &catalog, &mut backend)),
            )
        });
        let wall = t0.elapsed().as_secs_f64();
        let (report, seen) = match res {
            Ok(r) => r,
            Err(e) => {
                // The round's jobs and its own check count as failed,
                // served or not.
                for _ in 0..=offered {
                    out.op(Err(format!("serve round: {e}")));
                }
                return Pass {
                    wall_s: wall,
                    sim_makespan_s: None,
                    input: 0,
                };
            }
        };
        for (check, _) in &backend.jobs {
            out.op(check.clone());
        }
        for job in 0..report.shed {
            out.op(Err(format!("serve: shed job {job} of {offered}")));
        }
        // Each latency is at least its own service, so the latency
        // percentiles, the mean latency and the round's last completion
        // are bounded by the services the backend returned.
        let service_us: Vec<f64> = backend.jobs.iter().map(|j| j.1 as f64).collect();
        let busy_us: f64 = service_us.iter().sum();
        let mut round = check_conservation(offered, report.completed, report.shed);
        for (pct, lat) in [(50.0, report.latency.p50_us), (99.0, report.latency.p99_us)] {
            let svc = stats::nearest_rank(&service_us, pct).unwrap_or(0.0);
            if (lat as f64) < svc {
                round = round.and(Err(format!(
                    "serve: p{pct} latency {lat} us below p{pct} service {svc} us"
                )));
            }
        }
        // The mean is a float quotient: allow its rounding.
        if report.latency.mean_us * (report.completed as f64) < busy_us * (1.0 - 1e-9) {
            round = round.and(Err(format!(
                "serve: mean latency {} us over {} jobs is below the {busy_us} us of service",
                report.latency.mean_us, report.completed
            )));
        }
        if (report.makespan_us as f64) < busy_us {
            round = round.and(Err(format!(
                "serve: the last job completed at {} us, before the {busy_us} us of service one server needs",
                report.makespan_us
            )));
        }
        if let Some(a) = seen.auditor {
            let rep = spans.span("auditor.finish", || a.finish());
            round = round.and(check_audit("serve", &AuditVerdict::of_serve(&rep), 1));
            if rep.jobs_with_inner_trace != report.completed {
                round = round.and(Err(format!(
                    "serve: {} of {} completed jobs carried an inner trace to audit",
                    rep.jobs_with_inner_trace, report.completed
                )));
            }
            if mode == Mode::Traced {
                record_audit(out, rep.phases_checked, rep.max_spread);
            }
        }
        out.op(round);
        match mode {
            Mode::Plain => {
                latency_ms.push((
                    report.latency.p50_us as f64 / 1e3,
                    report.latency.p99_us as f64 / 1e3,
                ));
                capacity.push(report.completed as f64 / (busy_us / 1e6));
                outer_ms.extend(&backend.outer_ms);
                out.set("serve.offered", offered as f64);
                out.set("serve.shed", report.shed as f64);
                out.max("serve.peak_pending", report.peak_pending as f64);
            }
            Mode::Traced => {
                if let Some(m) = &seen.metrics {
                    record_live_metrics(out, m);
                }
                if let Some(cap) = &seen.capture {
                    record_capture(out, cap, true);
                    let service: Vec<u64> = backend.jobs.iter().map(|j| j.1).collect();
                    let (admission, queue) = check_jobs(&cap.jobs, &arrivals, &service, out);
                    out.set("serve.admission_wait_ms", admission);
                    out.set("serve.queue_wait_ms", queue);
                }
            }
            Mode::Warmup | Mode::Audited => {}
        }
        Pass {
            wall_s: wall,
            sim_makespan_s: None,
            input: 0,
        }
    });
    if ctx.trace {
        finish_live_metrics(out);
        let p50: Vec<f64> = latency_ms.iter().map(|l| l.0).collect();
        let p99: Vec<f64> = latency_ms.iter().map(|l| l.1).collect();
        out.set("serve.latency_p50_ms", stats::median(&p50).unwrap_or(0.0));
        out.set("serve.latency_p99_ms", stats::median(&p99).unwrap_or(0.0));
        out.set(
            "serve.capacity_jobs_per_s",
            stats::median(&capacity).unwrap_or(0.0),
        );
        out.set(
            "serve.service_ms_p50",
            stats::tail_percentile(&outer_ms, 50.0).unwrap_or(0.0),
        );
        out.set(
            "serve.service_ms_p99",
            stats::tail_percentile(&outer_ms, 99.0).unwrap_or(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two jobs served back to back, as the trace shows them, and the
    /// services the backend returned.
    fn served() -> (Vec<Arrival>, BTreeMap<u64, JobTimes>, Vec<u64>) {
        let traffic = TrafficConfig {
            tenants: 1,
            jobs_per_tenant: 2,
            mean_interarrival_us: 1_000,
            process: ArrivalProcess::Poisson,
            seed: 7,
        };
        let arrivals = generate(&traffic, &Catalog::tiny());
        let service = vec![5_000, 3_000];
        let mut jobs = BTreeMap::new();
        let mut free = 0;
        for (a, &svc) in arrivals.iter().zip(&service) {
            let start = a.time.max(free);
            free = start + svc;
            jobs.insert(
                a.job,
                JobTimes {
                    submit: Some(a.time),
                    dispatch: Some(start),
                    complete: Some(free),
                },
            );
        }
        (arrivals, jobs, service)
    }

    #[test]
    fn job_oracle_accepts_a_consistent_round() {
        let (arrivals, jobs, service) = served();
        let mut out = Out::default();
        check_jobs(&jobs, &arrivals, &service, &mut out);
        assert_eq!((out.attempted, out.failed), (2, 0), "{:?}", out.errors);
    }

    #[test]
    fn job_oracle_rejects_a_service_the_backend_did_not_take() {
        let (arrivals, jobs, mut service) = served();
        service[1] += 1;
        let mut out = Out::default();
        check_jobs(&jobs, &arrivals, &service, &mut out);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn job_oracle_rejects_a_submission_off_the_schedule() {
        let (arrivals, mut jobs, service) = served();
        let first = jobs.get_mut(&arrivals[0].job).unwrap();
        first.submit = first.submit.map(|s| s + 1);
        let mut out = Out::default();
        check_jobs(&jobs, &arrivals, &service, &mut out);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn job_oracle_rejects_a_latency_below_the_service() {
        let (arrivals, mut jobs, service) = served();
        // Dispatched before it arrived: the timeline's service still
        // matches, but the job completes sooner than arrival + service.
        let j = jobs.get_mut(&arrivals[0].job).unwrap();
        j.dispatch = j.dispatch.map(|d| d.saturating_sub(1));
        j.complete = j.complete.map(|c| c - 1);
        let mut out = Out::default();
        check_jobs(&jobs, &arrivals, &service, &mut out);
        assert_eq!(out.failed, 1);
    }
}
