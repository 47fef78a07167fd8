//! In-memory span and counter recorder for the traced run, with the
//! writer and the per-layer summary.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! A span's layer is its name up to the first `.` (`store.flush` belongs
//! to `store`). Self time is a span's duration minus its direct
//! children's durations.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The pipeline layers a span can belong to; any other span name is
/// benchmark structure (a call, group, session or query).
pub const LAYERS: [&str; 9] = [
    "build", "prepare", "certify", "canon", "search", "reduce", "store", "conform", "sched",
];

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn is_layer(name: &str) -> bool {
    LAYERS.contains(&layer_of(name))
}

#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Workload and group (or query) the span served; spans of one
    /// group share it.
    pub group: String,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            group: group.to_string(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// [`Tracer::span`] around a call that records nothing itself.
    pub fn time<T>(&mut self, name: &'static str, group: &str, f: impl FnOnce() -> T) -> T {
        self.span(name, group, |_| f())
    }

    /// Adds `v` to a counter.
    pub fn add(&mut self, counter: &str, v: f64) {
        *self.counters.entry(counter.to_string()).or_default() += v;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Self seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_default() += s.seconds() - c;
        }
        out
    }

    /// Self seconds summed per layer.
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (name, secs) in self.self_seconds() {
            if let Some(total) = out.get_mut(layer_of(name)) {
                *total += secs;
            }
        }
        out
    }

    /// Seconds spent inside layer spans (outermost ones only, so nested
    /// layer spans are not counted twice).
    pub fn layer_covered_seconds(&self) -> f64 {
        let mut inside = vec![false; self.spans.len()];
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            let parent_inside = s.parent.is_some_and(|p| inside[p]);
            inside[i] = parent_inside || is_layer(s.name);
            if inside[i] && !parent_inside {
                total += s.seconds();
            }
        }
        total
    }

    /// Writes every span and counter as JSON lines after a `header`
    /// object line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"group\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.name,
                json_escape(&s.group),
                s.start,
                s.end
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                json_escape(name)
            )?;
        }
        out.flush()
    }
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
