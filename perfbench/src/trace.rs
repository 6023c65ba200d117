//! Benchmark-side tracing: spans recorded around the calls the
//! benchmark makes into each layer's public functions.
//!
//! A span has a name (the public call it times), the layer (crate) the
//! call enters, its wall-clock start and end, the span that caused it
//! and the id of the application request it belongs to. Spans stay in
//! memory and are written out once, as Chrome trace-event JSON, when
//! the run ends. With tracing off the recorder keeps nothing and adds
//! only a branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// Spans kept in memory; later ones are counted, not stored.
const SPAN_CAPACITY: usize = 200_000;

struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A span opened by [`Tracer::begin`].
pub struct Open {
    name: &'static str,
    start_ns: u64,
    /// Its place in the store, when it was kept.
    index: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    open: Vec<usize>,
    request: u64,
    /// Durations per span name, in nanoseconds.
    samples: BTreeMap<&'static str, Samples>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            request: 0,
            samples: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new application request: spans opened until the next
    /// call share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle for [`Tracer::end`] (`None`
    /// when tracing is off). Once the store is full the span is timed
    /// but not kept.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Option<Open> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let index = if self.spans.len() < SPAN_CAPACITY {
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                request: self.request,
            });
            self.open.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        Some(Open {
            name,
            start_ns,
            index,
        })
    }

    pub fn end(&mut self, span: Option<Open>) {
        let Some(open) = span else {
            return;
        };
        let end_ns = self.now_ns();
        if let Some(id) = open.index {
            if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
                self.open.truncate(pos);
            }
            self.spans[id].end_ns = end_ns;
        }
        self.samples
            .entry(open.name)
            .or_default()
            .push(end_ns - open.start_ns);
    }

    /// Runs `f` inside a span named after the public call it makes.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, layer);
        let out = f();
        self.end(span);
        out
    }

    /// Records a duration measured elsewhere (a call the benchmark
    /// timed itself) under `name`, as a span ending now.
    pub fn record(&mut self, name: &'static str, layer: &'static str, ns: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() >= SPAN_CAPACITY {
            self.dropped += 1;
        } else {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                layer,
                start_ns: end_ns.saturating_sub(ns),
                end_ns,
                parent: self.open.last().copied(),
                request: self.request,
            });
        }
        self.samples.entry(name).or_default().push(ns);
    }

    /// Durations recorded under `name` (empty when never recorded).
    pub fn samples(&self, name: &str) -> Samples {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    /// Median duration of `name`, in microseconds (0 when never run).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.samples(name).quantile_us(0.5)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as Chrome trace-event JSON ("X" complete
    /// events, microsecond timestamps), which Perfetto and
    /// `chrome://tracing` open directly.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                concat!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},",
                    "\"dur\":{:.3},\"pid\":1,\"tid\":1,",
                    "\"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}"
                ),
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.request
            )?;
        }
        write!(
            out,
            "],\"otherData\":{{\"spans_dropped\":{}}}}}",
            self.dropped
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new(true);
        t.next_request();
        let root = t.begin("app.exchange", "groupware");
        t.span("odp.import", "odp", || std::hint::black_box(1 + 1));
        t.end(root);
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.samples("app.exchange").len(), 1);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, t.spans[0].request);
        assert_eq!(t.samples("odp.import").len(), 1);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("test-trace-{}.json", std::process::id()));
        t.write_chrome(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("odp.import", "odp", || 7), 7);
        t.record("env.store_object", "mocca", 10);
        assert_eq!(t.span_count(), 0);
        assert!(t.samples("odp.import").is_empty());
    }
}
