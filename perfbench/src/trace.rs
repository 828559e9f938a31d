//! The traced mode's span recorder.
//!
//! Spans are recorded by the benchmark's own loop loops around each
//! call into a layer's public API: name, start, end, parent, and a trace
//! id shared by every span of one simulated cycle (or one Monte-Carlo
//! trial). They are held in memory and written out as CSV when the run
//! ends. A span's self time is its duration minus the part of it covered
//! by its children, so the self times of one pass partition the pass's
//! root span and add up to its wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called (see [`layer_of`]).
    pub name: &'static str,
    /// Scheme or phase tag (`""` when the span has none).
    pub tag: &'static str,
    /// Shared by the spans of one simulated cycle or trial.
    pub trace: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    parent: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The layer (workspace crate) a span name belongs to. Layers nested
/// inside a call — `mms-sched`, `mms-disk`, `mms-buffer` and
/// `mms-parity` inside `Simulator::step` — are covered by their caller's
/// span until the program grows spans of its own.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "session" | "sim" | "ff" | "engine" => "mms-sim",
        "server" => "mms-server",
        "fleet" => "mms-fleet",
        "mc" => "mms-reliability",
        "exec" => "mms-exec",
        "telemetry" => "mms-telemetry",
        _ => "bench",
    }
}

/// Every layer a self time is reported for, with its metric name.
pub const LAYERS: [(&str, &str); 7] = [
    ("bench", "self_ms.bench"),
    ("mms-server", "self_ms.mms-server"),
    ("mms-sim", "self_ms.mms-sim"),
    ("mms-fleet", "self_ms.mms-fleet"),
    ("mms-reliability", "self_ms.mms-reliability"),
    ("mms-exec", "self_ms.mms-exec"),
    ("mms-telemetry", "self_ms.mms-telemetry"),
];

/// In-memory span store for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_trace: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_trace: 0,
        }
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh trace id (one per simulated cycle or trial).
    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// Open a span under `parent` (`None` for a root).
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        trace: u64,
        parent: Option<Open>,
    ) -> Open {
        let ix = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start = self.now();
        self.spans.push(Span {
            name,
            tag,
            trace,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            start,
            end: start,
        });
        Open(ix)
    }

    /// Close a span, returning its duration in nanoseconds.
    pub fn close(&mut self, span: Open) -> u64 {
        let end = self.now();
        let s = &mut self.spans[span.0 as usize];
        s.end = end;
        s.ns()
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        trace: u64,
        parent: Option<Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, tag, trace, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Every span recorded, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time of the first root span, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .find(|s| s.parent == NO_PARENT)
            .map_or(0, Span::ns)
    }

    /// Self time per layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(layer_of(s.name)).or_insert(0) += s.ns().saturating_sub(children);
        }
        out
    }

    /// Durations of the spans named `name` whose tag passes `tag`.
    pub fn durations(&self, name: &str, tag: impl Fn(&str) -> bool) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag(s.tag))
            .map(Span::ns)
            .collect()
    }

    /// Write every span as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span,parent,trace,name,tag,layer,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{},{}",
                s.trace,
                s.name,
                s.tag,
                layer_of(s.name),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// The `q`-quantile (nearest rank) of `samples`, or 0 for none.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.open("bench.pass", "", 1, None);
        t.time("sim.step", "SR", 1, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let by_layer = t.self_ns_by_layer();
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.wall_ns(), "self times partition the root");
        assert!(by_layer["mms-sim"] >= 2_000_000);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
