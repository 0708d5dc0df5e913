//! Spans around the benchmark's calls into each layer.
//!
//! A span records name, start, end, parent and run id. Spans are kept
//! in memory while the traced pass runs and written out when the run
//! ends; a layer's self time is its spans' duration minus the part of
//! each interval its child spans cover. The recorder is off in the
//! measured passes, where [`Spans::span`] just calls through.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: u32,
    /// The span open on the driving thread when this one began.
    pub parent: Option<u32>,
    /// Id shared by every span of one request (a cell, a live run, a
    /// served job).
    pub run: u32,
    /// Layer call, e.g. `registry.run`.
    pub name: &'static str,
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns).
    pub end_ns: u64,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans on the driving thread: (id, run).
    stack: Vec<(u32, u32)>,
    next_id: u32,
    next_run: u32,
}

/// A span recorder, or nothing (the measured passes).
#[derive(Clone)]
pub struct Spans(Option<Arc<Inner>>);

impl Spans {
    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Spans(None)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans(Some(Arc::new(Inner {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })))
    }

    /// Runs `f` inside a span that belongs to the enclosing request
    /// (or opens a new one at top level).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, false, f)
    }

    /// Runs `f` inside a span that starts a new request.
    pub fn request<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, true, f)
    }

    fn open<R>(&self, name: &'static str, new_run: bool, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.0 else { return f() };
        let (id, parent, run) = {
            let mut st = inner.lock();
            let parent = st.stack.last().copied();
            let run = match parent {
                Some((_, run)) if !new_run => run,
                _ => {
                    st.next_run += 1;
                    st.next_run
                }
            };
            let id = st.next_id;
            st.next_id += 1;
            st.stack.push((id, run));
            (id, parent.map(|p| p.0), run)
        };
        let start_ns = inner.now_ns();
        let out = f();
        let end_ns = inner.now_ns();
        let mut st = inner.lock();
        st.stack.pop();
        st.spans.push(Span {
            id,
            parent,
            run,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span measured on another thread (a grain on a live
    /// node thread) as a child of the span open on the driving thread.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let Some(inner) = &self.0 else { return };
        let start_ns = start.saturating_duration_since(inner.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(inner.epoch).as_nanos() as u64;
        let mut st = inner.lock();
        let parent = st.stack.last().copied();
        let id = st.next_id;
        st.next_id += 1;
        st.spans.push(Span {
            id,
            parent: parent.map(|p| p.0),
            run: parent.map_or(0, |p| p.1),
            name,
            start_ns,
            end_ns,
        });
    }

    /// Every closed span so far, in closing order.
    pub fn take(&self) -> Vec<Span> {
        match &self.0 {
            Some(inner) => std::mem::take(&mut inner.lock().spans),
            None => Vec::new(),
        }
    }
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panicking layer call")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.name).or_insert(0.0) += dur.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.run, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100) with overlapping children [10, 40) and
        // [30, 60) (two node threads) and one poking past its end.
        let spans = vec![
            span(0, None, "outer", 0, 100),
            span(1, Some(0), "grain", 10, 40),
            span(2, Some(0), "grain", 30, 60),
            span(3, Some(0), "grain", 90, 120),
        ];
        let t = self_times(&spans);
        assert!((t["outer"] - 40e-9).abs() < 1e-15); // 100 - (50 + 10)
        assert!((t["grain"] - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_shares_run_ids() {
        let s = Spans::on();
        s.request("job", || s.span("inner", || ()));
        s.request("job", || ());
        let spans = s.take();
        let inner = spans.iter().find(|x| x.name == "inner").expect("inner");
        let jobs: Vec<_> = spans.iter().filter(|x| x.name == "job").collect();
        assert_eq!(inner.parent, Some(jobs[0].id));
        assert_eq!(inner.run, jobs[0].run);
        assert_ne!(jobs[0].run, jobs[1].run);
        assert!(Spans::off().take().is_empty());
    }
}
