//! What every workload shares: the run settings, the result it
//! reports, telemetry warm-up, and the per-layer probes.
//!
//! A probe makes the same request shape the environment makes
//! internally, through the environment's public platform ports, and
//! times it from outside. Probes run only in the traced phase.

use std::time::Instant;

use cscw_directory::{Attribute, DirOp, Dn, Entry, Rdn};
use cscw_kernel::{Layer, Telemetry};
use cscw_messaging::OrAddress;
use mocca::env::environment::APP_SERVICE_TYPE;
use mocca::env::AppId;
use mocca::org::ENV_PRINCIPAL;
use mocca::CscwEnvironment;
use odp::ImportRequest;

use crate::stats::Samples;
use crate::trace::Tracer;

/// One run's settings.
pub struct RunCfg {
    pub seed: u64,
    /// Wall seconds of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer probes and spans (second half of the
    /// timed phase) instead of end-to-end metrics.
    pub trace: bool,
    /// Reduced sizes for the self-test.
    pub small: bool,
}

/// One named value with its unit and, for percentiles, the number of
/// samples it was read from.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

pub fn pct(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Some(samples),
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Mismatches against the benchmark's own reference.
    pub problems: Vec<String>,
    /// Application operations attempted and failed (or refused).
    pub attempted: u64,
    pub failed: u64,
    /// The contract's end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures, under the names the
    /// workload description uses (with sample counts).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Determinism digest over the run's fixed prefix.
    pub digest: String,
    /// The traced run's recorder, for export.
    pub tracer: Option<Tracer>,
    /// Failed operations by kind, and the first few messages.
    pub refusals: std::collections::BTreeMap<String, u64>,
    pub refusal_examples: Vec<String>,
}

impl Outcome {
    /// Records a mismatch against the reference when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    /// Counts an operation the program failed or refused. Refusals are
    /// measured (`failed`, `error_rate`), not treated as mismatches.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        let kind = why.split(':').next().unwrap_or_default().to_owned();
        *self.refusals.entry(kind).or_insert(0) += 1;
        if self.refusal_examples.len() < 5 {
            self.refusal_examples.push(why);
        }
    }
}

/// Builds a workload's world repeatedly and returns the last one with
/// every set-up time: at least `min` times, and until 1 s of set-up
/// has been measured (at most 200), so a quick set-up still yields a
/// steady median. In a traced run the tracer records the first set-up's
/// calls.
pub fn repeated_setup<W>(
    min: usize,
    cfg: &RunCfg,
    tr: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> W,
) -> (W, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut world = None;
    while times.len() < min || (times.iter().sum::<f64>() < 1.0 && times.len() < 200) {
        drop(world.take());
        tr.set_on(cfg.trace && times.is_empty());
        let started = Instant::now();
        world = Some(build(tr));
        times.push(started.elapsed().as_secs_f64());
    }
    tr.set_on(false);
    (world.expect("at least one set-up"), times)
}

/// Fills a telemetry stream's bounded span and event stores through
/// its public API until both report a dropped record: the state every
/// long-running environment reaches, reached without hours of traffic.
pub fn fill_telemetry(t: &Telemetry) {
    for _ in 0..(1 << 18) {
        if t.dropped_spans() > 0 && t.dropped_events() > 0 {
            return;
        }
        let span = t.span_begin(Layer::App, "perfbench.fill", 0);
        t.emit(0, Layer::App, "perfbench.fill", String::new());
        t.span_end(span, 0);
    }
}

/// A point-in-time count of a telemetry stream's stored and dropped
/// span and event records.
#[derive(Clone, Copy, Default)]
pub struct TelemetryMark {
    spans: u64,
    events: u64,
    spans_dropped: u64,
    events_dropped: u64,
}

impl TelemetryMark {
    pub fn of(t: &Telemetry) -> Self {
        TelemetryMark {
            spans: t.spans().len() as u64,
            events: t.events().len() as u64,
            spans_dropped: t.dropped_spans(),
            events_dropped: t.dropped_events(),
        }
    }

    pub fn add(&mut self, other: TelemetryMark) {
        self.spans += other.spans;
        self.events += other.events;
        self.spans_dropped += other.spans_dropped;
        self.events_dropped += other.events_dropped;
    }

    /// Dropped over attempted records between `start` and `self`, for
    /// spans and for events.
    pub fn dropped_since(&self, start: &TelemetryMark) -> (f64, f64) {
        let ds = self.spans_dropped.saturating_sub(start.spans_dropped) as f64;
        let de = self.events_dropped.saturating_sub(start.events_dropped) as f64;
        let ks = self.spans.saturating_sub(start.spans) as f64;
        let ke = self.events.saturating_sub(start.events) as f64;
        (
            crate::stats::ratio(ds, ds + ks),
            crate::stats::ratio(de, de + ke),
        )
    }
}

/// An application's notification mailbox, as the environment addresses
/// it.
pub fn app_address(app: &AppId) -> OrAddress {
    OrAddress::new("ZZ", "mocca", ["apps"], app.as_str()).expect("app ids are address-safe")
}

/// A person's mailbox (`cn=user3` folds to `cn-user3`).
pub fn user_address(user: &str) -> OrAddress {
    OrAddress::new("ZZ", "mocca", ["users"], user.replace('=', "-"))
        .expect("user names are address-safe")
}

/// The per-layer probes every workload runs on its environment:
/// a kernel span pair, the trader import `exchange` makes, the
/// `cscwresource` directory add it mirrors, and the notification it
/// sends. Returns the number of offers the import returned.
pub fn probe_env(
    env: &mut CscwEnvironment,
    tr: &mut Tracer,
    n: u64,
    sharer: &str,
    to: &AppId,
) -> Result<usize, String> {
    let t = env.telemetry().clone();
    let now = env.platform().clock().now_micros();
    let started = Instant::now();
    let span = t.span_begin(Layer::App, "perfbench.probe", now);
    t.span_end(span, now);
    tr.record(
        "Telemetry::span_begin+span_end",
        "cscw-kernel",
        started.elapsed().as_nanos() as u64,
    );

    let request = ImportRequest::any(APP_SERVICE_TYPE).with_importer(ENV_PRINCIPAL);
    let offers = tr
        .span("TraderPort::import", "odp", || {
            env.trader_mut().import(&request)
        })
        .map_err(|e| format!("probe import: {e}"))?;

    let id = format!("perfbench-probe-{n}");
    let rdn = Rdn::new("cn", id.as_str()).map_err(|e| format!("probe rdn: {e}"))?;
    let entry = Entry::new(Dn::root().child(rdn))
        .with_class("cscwresource")
        .with_attr(Attribute::single("cn", id.as_str()))
        .with_attr(Attribute::single("resourcetype", "exchanged-artifact"))
        .with_attr(Attribute::single("owner", sharer));
    tr.span("DirectoryPort::apply(Add)", "cscw-directory", || {
        env.directory_mut().apply(DirOp::Add(entry))
    })
    .map_err(|e| format!("probe directory add: {e}"))?;

    let (from, dest) = (user_address(sharer), app_address(to));
    tr.span("TransportPort::notify", "cscw-messaging", || {
        env.transport_mut()
            .notify(&from, &dest, "artifact-exchanged", &id)
    })
    .map_err(|e| format!("probe notify: {e}"))?;
    Ok(offers.len())
}

/// Per-layer metrics that come from [`probe_env`] samples.
pub fn probe_metrics(tr: &Tracer, offers: &crate::stats::Samples) -> Vec<Metric> {
    let span_pair = tr.samples("Telemetry::span_begin+span_end");
    vec![
        pct(
            "kernel.span_pair_ns",
            span_pair.quantile(0.5) as f64,
            "ns",
            span_pair.len(),
        ),
        metric("odp.import_us_p50", tr.p50_us("TraderPort::import"), "us"),
        metric(
            "odp.offers_per_import",
            crate::stats::ratio(offers.sum() as f64, offers.len() as f64),
            "count",
        ),
        metric(
            "directory.add_us_p50",
            tr.p50_us("DirectoryPort::apply(Add)"),
            "us",
        ),
        metric(
            "messaging.notify_us_p50",
            tr.p50_us("TransportPort::notify"),
            "us",
        ),
    ]
}

/// The timed phase's work: `seconds` × the workload's nominal rate, a
/// fixed amount so that every run, on any commit, measures the system
/// in the same states; on a 2-vCPU container at this commit it takes
/// about `seconds`. Never less than `min` (the digest prefix).
pub fn work_units(nominal_per_s: f64, seconds: f64, min: u64) -> u64 {
    ((nominal_per_s * seconds) as u64).max(min)
}

/// The end-to-end metrics every workload reports: set-up time, the
/// timed phase's throughput (operations per wall second spent inside
/// the system's calls), the headline operation's latency percentiles
/// (nanosecond samples), and peak memory.
pub fn phase_metrics(
    setup_s: &[f64],
    ops: u64,
    busy_ns: u64,
    latency: &Samples,
    rss_mib: f64,
) -> Vec<Metric> {
    vec![
        pct("setup_s", crate::stats::median(setup_s), "s", setup_s.len()),
        metric(
            "ops_per_s",
            crate::stats::ratio(ops as f64, busy_ns as f64 / 1e9),
            "1/s",
        ),
        pct("op_p50_us", latency.quantile_us(0.5), "us", latency.len()),
        pct("op_p99_us", latency.quantile_us(0.99), "us", latency.len()),
        metric("peak_rss_mb", rss_mib, "MiB"),
    ]
}

/// Times one call in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}
