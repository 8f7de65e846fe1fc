//! Spans and metrics recorded by the benchmark around its calls into
//! each layer. Spans stay in memory and are written once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one workload query share this id.
    pub query: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span that started at `start` and ends now; returns its id
    /// and duration in seconds (the duration is measured either way).
    pub fn span(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> (u64, f64) {
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        let id = self.spans.len() as u64;
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                query,
                layer,
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        (id, secs)
    }

    /// Records a span whose duration was accumulated elsewhere (the
    /// replay's per-phase totals), laid out from `start`.
    pub fn span_of(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: u64,
        parent: Option<u64>,
        start: Instant,
        secs: f64,
    ) {
        if self.on {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: self.spans.len() as u64,
                parent,
                query,
                layer,
                name,
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every layer that has at least one span.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut layers: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        layers
    }

    /// Writes the spans as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"query\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                parent,
                s.query,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.items.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.items.push((name, value, unit)),
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The smallest of `values` (0 when there are none).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The process's peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
