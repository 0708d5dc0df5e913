//! A trace sink that folds the program's `TraceEvent` stream into the
//! per-layer figures the benchmark reports: event count, system-phase
//! stage times, the load vectors each phase collected (replayed
//! through the planners afterwards), and serve job lifecycles.

use std::collections::BTreeMap;

use rips_trace::{NodeId, PhaseKind, SysStage, Time, TraceEvent, TraceSink};

fn stage_idx(s: SysStage) -> usize {
    match s {
        SysStage::IdleDetect => 0,
        SysStage::LoadCollect => 1,
        SysStage::Plan => 2,
        SysStage::Migrate => 3,
    }
}

/// Timestamps of one served job (µs on the serve timeline).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTimes {
    /// `JobSubmit`.
    pub submit: Option<Time>,
    /// `JobDispatch`.
    pub dispatch: Option<Time>,
    /// `JobComplete`.
    pub complete: Option<Time>,
}

/// What one traced run emitted.
#[derive(Debug)]
pub struct Capture {
    nodes: usize,
    /// Trace records seen.
    pub events: u64,
    /// Summed stage span lengths (trace time units), in protocol order:
    /// idle-detect, load-collect, plan, migrate.
    pub stage_us: [u64; 4],
    open_stage: BTreeMap<(NodeId, usize), Time>,
    /// Per node: the system phase it is in, keyed with the serve
    /// window so phase numbers restarting per job stay apart.
    phase_of: Vec<Option<u32>>,
    window: u64,
    loads: BTreeMap<(u64, u32), Vec<Option<i64>>>,
    /// Serve job lifecycles by job id.
    pub jobs: BTreeMap<u64, JobTimes>,
}

impl Capture {
    /// A capture for a machine of `nodes` processors.
    pub fn new(nodes: usize) -> Self {
        Capture {
            nodes,
            events: 0,
            stage_us: [0; 4],
            open_stage: BTreeMap::new(),
            phase_of: vec![None; nodes],
            window: 0,
            loads: BTreeMap::new(),
            jobs: BTreeMap::new(),
        }
    }

    /// Load vectors of the phases in which every node reported.
    pub fn complete_load_vectors(&self) -> Vec<Vec<i64>> {
        self.loads
            .values()
            .filter_map(|v| v.iter().copied().collect::<Option<Vec<i64>>>())
            .collect()
    }
}

impl TraceSink for Capture {
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::StageBegin { stage, .. } => {
                self.open_stage.insert((node, stage_idx(stage)), time_us);
            }
            TraceEvent::StageEnd { stage, .. } => {
                let i = stage_idx(stage);
                if let Some(t0) = self.open_stage.remove(&(node, i)) {
                    self.stage_us[i] += time_us.saturating_sub(t0);
                }
            }
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index,
            } => {
                if let Some(p) = self.phase_of.get_mut(node) {
                    *p = Some(index);
                }
            }
            TraceEvent::LoadSample { load } => {
                if let Some(Some(phase)) = self.phase_of.get(node).copied() {
                    let n = self.nodes;
                    let v = self
                        .loads
                        .entry((self.window, phase))
                        .or_insert_with(|| vec![None; n]);
                    v[node] = Some(load);
                }
            }
            TraceEvent::JobSubmit { job, .. } => {
                self.jobs.entry(job).or_default().submit = Some(time_us);
            }
            TraceEvent::JobDispatch { job, .. } => {
                self.window += 1;
                self.phase_of.iter_mut().for_each(|p| *p = None);
                self.jobs.entry(job).or_default().dispatch = Some(time_us);
            }
            TraceEvent::JobComplete { job, .. } => {
                self.jobs.entry(job).or_default().complete = Some(time_us);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_stages_loads_and_jobs() {
        let mut c = Capture::new(2);
        let sys = |index| TraceEvent::PhaseBegin {
            kind: PhaseKind::System,
            index,
        };
        c.record(0, 0, sys(1));
        c.record(0, 1, sys(1));
        c.record(1, 0, TraceEvent::LoadSample { load: 3 });
        c.record(2, 1, TraceEvent::LoadSample { load: 5 });
        c.record(
            4,
            0,
            TraceEvent::StageBegin {
                stage: SysStage::Plan,
                phase: 1,
            },
        );
        c.record(
            9,
            0,
            TraceEvent::StageEnd {
                stage: SysStage::Plan,
                phase: 1,
            },
        );
        c.record(10, 0, sys(2));
        c.record(11, 0, TraceEvent::LoadSample { load: 1 });
        assert_eq!(c.complete_load_vectors(), vec![vec![3, 5]]);
        assert_eq!(c.stage_us, [0, 0, 5, 0]);
        assert_eq!(c.events, 8);
    }
}
