//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. The spans are leaves (no layer call
//! contains another), so a span's self time is its duration.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `engine.grow` or `prepare.multilevel`.
    pub name: &'static str,
    /// Jobs of one reference pass share the job's index; probes have none.
    pub job: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder; when disabled, `span` costs one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn span<R>(&mut self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns,
        });
        out
    }

    /// Total seconds of spans whose name satisfies `pick`.
    pub fn total(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        self.spans.iter().filter(|s| pick(s)).map(Span::secs).sum()
    }

    /// Seconds of the spans named exactly `name`.
    pub fn named(&self, name: &str) -> f64 {
        self.total(|s| s.name == name)
    }

    /// Writes the spans as JSON lines, for reading after the run.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let job = s.job.map_or("null".to_string(), |j| j.to_string());
            text.push_str(&format!(
                "{{\"name\": \"{}\", \"layer\": \"{}\", \"job\": {job}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
