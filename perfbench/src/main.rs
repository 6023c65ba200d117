//! Steady-state benchmark of the open CSCW stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload (`local_exchange`, `federated_gossip`,
//! `standing_queries`) on inputs made from the seed, checks every reply
//! against the benchmark's own reference, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones, taken from a separate run
//! that records spans around each layer call and writes them to
//! `<out>/trace-<workload>-<seed>.json` (Chrome trace-event format).
//! The line before it carries the workload's own figures with their
//! sample counts and the determinism digest. `--seconds` sets the timed
//! phase's fixed amount of work (see `common::work_units`).

mod common;
mod federated_gossip;
mod local_exchange;
mod standing_queries;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Metric, Outcome, RunCfg};

pub const WORKLOADS: [&str; 3] = ["local_exchange", "federated_gossip", "standing_queries"];

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports its metrics as 0 (`n/a` in the table).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("kernel.span_pair_ns", "ns"),
    ("kernel.spans_dropped_ratio", "ratio"),
    ("kernel.events_dropped_ratio", "ratio"),
    ("kernel.pulses_per_sim_s", "1/sim_s"),
    ("odp.import_us_p50", "us"),
    ("odp.offers_per_import", "count"),
    ("env.register_app_us_p50", "us"),
    ("env.store_object_us_p50", "us"),
    ("env.read_object_us_p50", "us"),
    ("env.unattributed_us", "us"),
    ("directory.add_us_p50", "us"),
    ("directory.modify_us_p50", "us"),
    ("directory.search_us_p50", "us"),
    ("query.pump_us_p50", "us"),
    ("query.ingest_us_p50", "us"),
    ("query.subscribe_us_p50", "us"),
    ("query.evals_per_change", "count"),
    ("query.deltas_per_change", "count"),
    ("query.rescans", "count"),
    ("messaging.notify_us_p50", "us"),
    ("messaging.frame_codec_us_p50", "us"),
    ("messaging.bytes_per_update", "B"),
    ("federation.run_for_us_per_sim_s", "us/sim_s"),
    ("federation.digest_us_p50", "us"),
    ("federation.delta_us_p50", "us"),
    ("federation.ingest_us_p50", "us"),
    ("federation.links_walked_per_pulse", "count"),
    ("federation.updates_per_pulse", "count"),
    ("federation.degraded_link_ratio", "ratio"),
    ("federation.pending_inbound_max", "count"),
    ("federation.replication_lag_p50_sim_ms", "sim_ms"),
    ("federation.replication_lag_p99_sim_ms", "sim_ms"),
    ("federation.sim_s_per_wall_s", "sim_s/s"),
    ("simnet.msgs_per_op", "count"),
    ("simnet.dropped_per_op", "count"),
    ("platform.retries_per_op", "count"),
    ("platform.breaker_opens", "count"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    cfg: RunCfg,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            small: false,
        },
        out,
    })
}

pub fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "local_exchange" => local_exchange::run(cfg),
        "federated_gossip" => federated_gossip::run(cfg),
        "standing_queries" => standing_queries::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The per-layer metrics in [`PER_LAYER`] order, 0 where the workload
/// does not reach the layer.
fn per_layer_complete(measured: &[Metric]) -> (Vec<Metric>, Vec<&'static str>) {
    let mut missing = Vec::new();
    let all = PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) => Metric {
                    name,
                    value: m.value,
                    unit,
                    samples: m.samples,
                },
                None => {
                    missing.push(name);
                    common::metric(name, 0.0, unit)
                }
            },
        )
        .collect();
    (all, missing)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run_workload(&args.workload, &args.cfg);
    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("perfbench: MISMATCH: {p}");
    }
    for why in &outcome.refusal_examples {
        eprintln!("perfbench: refused: {why}");
    }

    let (metrics, not_applicable) = if args.cfg.trace {
        per_layer_complete(&outcome.per_layer)
    } else {
        (std::mem::take(&mut outcome.end_to_end), Vec::new())
    };
    let mut table = String::new();
    for m in metrics.iter().chain(outcome.detail.iter()) {
        let samples = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        let value = if not_applicable.contains(&m.name) {
            "n/a".to_owned()
        } else {
            format!("{:.4}", m.value)
        };
        let _ = writeln!(
            table,
            "  {:<40} {:>14} {}{}",
            m.name, value, m.unit, samples
        );
    }
    eprint!(
        "perfbench {} seed {}:\n{table}",
        args.workload, args.cfg.seed
    );

    let mut trace_file = String::new();
    if let Some(tracer) = outcome.tracer.take() {
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.cfg.seed));
        match tracer.write_chrome(&path) {
            Ok(()) => trace_file = path.display().to_string(),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    let samples: Vec<String> = metrics
        .iter()
        .chain(outcome.detail.iter())
        .filter_map(|m| m.samples.map(|n| format!("\"{}\":{n}", m.name)))
        .collect();
    let refusals: Vec<String> = outcome
        .refusals
        .iter()
        .map(|(kind, n)| format!("\"{kind}\":{n}"))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"digest\":\"{}\",\"error_rate\":{},\"refusals\":{{{}}},\"detail\":{},\"samples\":{{{}}},\"not_applicable\":[{}],\"trace_file\":\"{}\"}}",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.trace),
        outcome.digest,
        json_number(stats::ratio(outcome.failed as f64, outcome.attempted as f64)),
        refusals.join(","),
        metrics_json(&outcome.detail),
        samples.join(","),
        not_applicable
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(","),
        trace_file,
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> RunCfg {
        RunCfg {
            seed,
            seconds: 0.2,
            trace: false,
            small: true,
        }
    }

    /// Same seed, same digest: every simulated-time and count output of
    /// the fixed prefix repeats bit-for-bit; another seed differs.
    #[test]
    fn digest_repeats_per_seed() {
        for name in WORKLOADS {
            let a = run_workload(name, &small(7));
            let b = run_workload(name, &small(7));
            assert!(a.problems.is_empty(), "{name}: {:?}", a.problems);
            assert!(b.problems.is_empty(), "{name}: {:?}", b.problems);
            assert_eq!(a.failed, 0, "{name}");
            assert_eq!(a.digest, b.digest, "{name}: digest must repeat");
            let c = run_workload(name, &small(8));
            assert_ne!(a.digest, c.digest, "{name}: digest must follow the seed");
        }
    }

    #[test]
    fn benchmark_json_names_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let e2e = [
            "setup_s",
            "ops_per_s",
            "op_p50_us",
            "op_p99_us",
            "peak_rss_mb",
        ];
        for name in PER_LAYER.iter().map(|(n, _)| *n).chain(e2e) {
            assert!(spec.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert_eq!(
            spec.matches("\"better\"").count(),
            PER_LAYER.len() + e2e.len()
        );
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        for name in WORKLOADS {
            let mut cfg = small(3);
            cfg.trace = true;
            let outcome = run_workload(name, &cfg);
            assert!(
                outcome.problems.is_empty(),
                "{name}: {:?}",
                outcome.problems
            );
            let (all, _) = per_layer_complete(&outcome.per_layer);
            assert_eq!(all.len(), PER_LAYER.len());
            assert!(outcome
                .per_layer
                .iter()
                .any(|m| m.name == "trace.overhead_ratio"));
            for m in &outcome.per_layer {
                if (m.unit == "us" || m.unit == "ns") && m.name != "env.unattributed_us" {
                    assert!(m.value > 0.0, "{name}: {} was never timed", m.name);
                }
            }
            assert!(outcome.tracer.is_some_and(|t| t.span_count() > 0), "{name}");
        }
    }
}
