//! In-memory spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the layers' public functions: nothing inside the program is
//! instrumented. Each thread records into its own [`Lane`]; a span's
//! parent is the span open on the same lane when it started, so a
//! span's self time is its duration minus its children's. Lanes are
//! merged into a [`Trace`] when their thread ends and written out once,
//! when the benchmark exits.

use std::io::Write;
use std::time::Instant;

/// Parent marker of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same lane, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span served: a query's position in the plan, a
    /// bucket or decision index for control-path spans.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. Span ids index [`Lane::spans`].
pub struct Lane {
    epoch: Instant,
    born_ns: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Time this lane spent waiting for other lanes (a control thread
    /// joining its workers); excluded from the coverage denominator.
    waiting_ns: u64,
}

impl Lane {
    pub fn new(epoch: Instant) -> Lane {
        let born_ns = epoch.elapsed().as_nanos() as u64;
        Lane {
            epoch,
            born_ns,
            spans: Vec::new(),
            open: Vec::new(),
            waiting_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Lane::exit`].
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Times `f` as time this lane spends waiting on other lanes.
    pub fn wait<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.waiting_ns += self.now() - start;
        out
    }
}

/// Merged lanes of one traced run.
#[derive(Default)]
pub struct Trace {
    lanes: Vec<LaneRecord>,
}

struct LaneRecord {
    spans: Vec<Span>,
    /// Lifetime minus waiting: the lane's share of the coverage
    /// denominator.
    active_ns: u64,
}

impl Trace {
    /// Adds a finished lane.
    pub fn absorb(&mut self, lane: Lane) {
        assert!(lane.open.is_empty(), "lane closed with open spans");
        let lifetime = lane.now() - lane.born_ns;
        self.lanes.push(LaneRecord {
            active_ns: lifetime.saturating_sub(lane.waiting_ns),
            spans: lane.spans,
        });
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        self.lanes.iter().flat_map(|l| l.spans.iter())
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Requests of every span named `name`, in the order of
    /// [`Trace::durations_us`].
    pub fn requests(&self, name: &str) -> Vec<u64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.request)
            .collect()
    }

    /// Summed duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Self time (duration minus child spans) summed per span name, in
    /// milliseconds, sorted by name.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for lane in &self.lanes {
            let mut child_ns = vec![0u64; lane.spans.len()];
            for s in &lane.spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.duration_ns();
                }
            }
            for (s, child) in lane.spans.iter().zip(child_ns) {
                *by_name.entry(s.name).or_default() +=
                    s.duration_ns().saturating_sub(child) as f64 / 1e6;
            }
        }
        by_name.into_iter().collect()
    }

    /// Share of the lanes' active time spent inside root spans.
    pub fn coverage(&self) -> f64 {
        let active: u64 = self.lanes.iter().map(|l| l.active_ns).sum();
        let covered: u64 = self
            .spans()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum();
        if active == 0 {
            0.0
        } else {
            covered as f64 / active as f64
        }
    }

    /// Writes every span as one tab-separated line: lane, id, name,
    /// start and end (ns since the epoch), parent id (-1 for roots) and
    /// request.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "lane\tid\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            for (id, s) in lane.spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                writeln!(
                    out,
                    "{lane_idx}\t{id}\t{}\t{}\t{}\t{parent}\t{}",
                    s.name, s.start_ns, s.end_ns, s.request
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut lane = Lane::new(epoch);
        let outer = lane.enter("outer", 0);
        lane.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        lane.exit(outer);
        let mut trace = Trace::default();
        trace.absorb(lane);
        let selfs = trace.self_ms_by_name();
        let inner = selfs.iter().find(|(n, _)| *n == "inner").unwrap().1;
        let outer_self = selfs.iter().find(|(n, _)| *n == "outer").unwrap().1;
        assert!(inner >= 2.0);
        assert!(outer_self < inner);
        assert_eq!(trace.durations_us("inner").len(), 1);
    }
}
