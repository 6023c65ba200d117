//! `local_exchange`: one `LocalPlatform` environment with 1 000
//! registered applications, driven by a closed loop of about 90 %
//! `exchange`, 5 % `store_object` and 5 % `read_object`.
//!
//! Every exchange imports all 1 000 trader offers and every operation
//! records spans into a telemetry store that is already full, so `odp`
//! and the kernel telemetry carry the load; query, federation and
//! simnet do no work here.

use std::collections::BTreeMap;
use std::time::Instant;

use cscw_directory::Dn;
use cscw_kernel::Timestamp;
use mocca::env::{AppDescriptor, AppId, FormatMapping, NativeArtifact, Quadrant};
use mocca::info::{InfoContent, InfoObject, InfoObjectId};
use mocca::CscwEnvironment;

use crate::common::{
    fill_telemetry, metric, pct, phase_metrics, probe_env, probe_metrics, repeated_setup, timed,
    work_units, Outcome, RunCfg, TelemetryMark,
};
use crate::stats::{ratio, Digest, Rng, Samples};
use crate::trace::Tracer;

/// The common-model fields every synthetic vocabulary maps onto.
const COMMON: [&str; 3] = ["title", "body", "author"];

/// Traced phase: probe the layers on every this-many operations.
/// Operations per second this workload sustains on a 2-vCPU container at this commit;
/// `--seconds` × this is the timed phase's fixed work.
const NOMINAL_OPS_PER_S: f64 = 2_200.0;
const PROBE_EVERY: u64 = 4;

struct Sizes {
    apps: usize,
    setups: usize,
    /// Operations run after set-up and before the timed phase.
    warm_ops: u64,
    /// Operations (warm-up included) the determinism digest covers;
    /// the timed phase runs at least until this many have completed.
    digest_ops: u64,
    sharers: u64,
}

const FULL: Sizes = Sizes {
    apps: 1_000,
    setups: 3,
    warm_ops: 300,
    digest_ops: 2_000,
    sharers: 50,
};

const SMALL: Sizes = Sizes {
    apps: 12,
    setups: 1,
    warm_ops: 20,
    digest_ops: 200,
    sharers: 5,
};

fn app_id(i: usize) -> AppId {
    AppId::new(format!("app{i:04}"))
}

/// Each application's own three native field names, drawn from the
/// seed.
fn vocabularies(rng: &mut Rng, apps: usize) -> Vec<[String; 3]> {
    (0..apps)
        .map(|i| {
            let word = |rng: &mut Rng, k: usize| format!("w{i}x{k}{:06x}", rng.next() & 0xff_ffff);
            [word(rng, 0), word(rng, 1), word(rng, 2)]
        })
        .collect()
}

fn build(vocab: &[[String; 3]], tr: &mut Tracer) -> CscwEnvironment {
    let mut env = CscwEnvironment::new();
    for (i, fields) in vocab.iter().enumerate() {
        let id = app_id(i);
        let descriptor = AppDescriptor {
            id: id.clone(),
            name: format!("synthetic app {i}"),
            quadrant: Quadrant::all()[i % 4],
            native_format: format!("{id}-native"),
            kinds: vec!["artifact".to_owned()],
        };
        let mapping = FormatMapping::new(fields.iter().cloned().zip(COMMON));
        tr.span("CscwEnvironment::register_app", "mocca", || {
            env.register_app(descriptor, mapping)
        });
    }
    env
}

/// The closed-loop client and the reference it checks replies against.
struct Client {
    rng: Rng,
    vocab: Vec<[String; 3]>,
    sharers: u64,
    /// Objects stored so far: id, owner and content.
    stored: Vec<(InfoObjectId, Dn, InfoContent)>,
    ops: u64,
    exchanges: u64,
    stores: u64,
    exchange_ns: Samples,
    busy_ns: u64,
    offers: Samples,
    digest: Digest,
    digest_ops: u64,
    /// Peak resident memory once the digest prefix has run: a fixed
    /// amount of work, whatever the speed of the run.
    rss_mib: f64,
}

impl Client {
    /// One application operation; probes the layers afterwards when
    /// `probe` is set.
    fn step(&mut self, env: &mut CscwEnvironment, tr: &mut Tracer, out: &mut Outcome, probe: bool) {
        self.ops += 1;
        out.attempted += 1;
        tr.next_request();
        let n = self.ops;
        let hashing = n <= self.digest_ops;
        let sharer = format!("cn=user{}", self.rng.below(self.sharers));
        let sharer_dn: Dn = sharer.parse().expect("fixed sharer DN");
        let roll = self.rng.below(100);
        let root = tr.begin("app.request", "groupware");
        let mut probe_to = app_id(0);
        if roll < 90 || (roll >= 95 && self.stored.is_empty()) {
            let apps = self.vocab.len();
            let from = self.rng.pick(apps);
            let to = (from + 1 + self.rng.pick(apps - 1)) % apps;
            let values = [format!("t{n}"), format!("b{n}"), sharer.clone()];
            let artifact = NativeArtifact {
                app: app_id(from),
                format: format!("{}-native", app_id(from)),
                fields: self.vocab[from]
                    .iter()
                    .cloned()
                    .zip(values.iter().cloned())
                    .collect(),
            };
            let dest = app_id(to);
            let (result, ns) = timed(|| {
                let span = tr.begin("CscwEnvironment::exchange", "mocca");
                let r = env.exchange(&sharer_dn, &artifact, &dest, Timestamp::from_micros(n));
                tr.end(span);
                r
            });
            self.busy_ns += ns;
            self.exchange_ns.push(ns);
            match result {
                Ok(got) => {
                    self.exchanges += 1;
                    let want: BTreeMap<String, String> =
                        self.vocab[to].iter().cloned().zip(values).collect();
                    out.check(got.app == dest && got.fields == want, || {
                        format!("exchange {n}: {:?} != renamed {want:?}", got.fields)
                    });
                    if hashing {
                        self.digest.str(&format!("{:?}", got.fields));
                    }
                }
                Err(e) => out.fail(format!("exchange: {n}: {e}")),
            }
            probe_to = dest;
        } else if roll < 95 {
            let id = InfoObjectId::new(format!("doc-{n}"));
            let content = if n.is_multiple_of(2) {
                InfoContent::Text(format!("note {n} {:x}", self.rng.next()))
            } else {
                InfoContent::fields([
                    ("title", format!("t{n}")),
                    ("body", format!("{:x}", self.rng.next())),
                ])
            };
            let object = InfoObject::new(id.clone(), "note", sharer_dn.clone(), content.clone());
            let (result, ns) = timed(|| {
                let span = tr.begin("CscwEnvironment::store_object", "mocca");
                let r = env.store_object(object, None, Timestamp::from_micros(n));
                tr.end(span);
                r
            });
            self.busy_ns += ns;
            self.stores += 1;
            match result {
                Ok(()) => self.stored.push((id, sharer_dn, content)),
                Err(e) => out.fail(format!("store_object: {n}: {e}")),
            }
        } else {
            let (id, owner, content) = self.stored[self.rng.pick(self.stored.len())].clone();
            let (result, ns) = timed(|| {
                let span = tr.begin("CscwEnvironment::read_object", "mocca");
                let r = env.read_object(&owner, &id);
                tr.end(span);
                r
            });
            self.busy_ns += ns;
            match result {
                Ok(got) => {
                    out.check(got == content, || {
                        format!("read {id}: {got:?} != {content:?}")
                    });
                    if hashing {
                        self.digest.str(&format!("{got:?}"));
                    }
                }
                Err(e) => out.fail(format!("read_object: {id}: {e}")),
            }
        }
        if probe {
            match probe_env(env, tr, n, &sharer, &probe_to) {
                Ok(offers) => self.offers.push(offers as u64),
                Err(e) => out.check(false, || e),
            }
        }
        tr.end(root);
        if n == self.digest_ops {
            self.rss_mib = crate::stats::peak_rss_mib();
            self.digest.u64(env.operations());
            self.digest.u64(env.repository().len() as u64);
            self.digest.u64(self.exchanges);
            self.digest.u64(self.stores);
        }
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let sizes = if cfg.small { SMALL } else { FULL };
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);
    let vocab = vocabularies(&mut rng, sizes.apps);
    let mut tr = Tracer::new(false);

    let (mut env, setup_s) = repeated_setup(sizes.setups, cfg, &mut tr, |tr| build(&vocab, tr));

    // Steady state: the telemetry stores are full before timing starts.
    fill_telemetry(env.telemetry());
    let mut client = Client {
        rng,
        vocab,
        sharers: sizes.sharers,
        stored: Vec::new(),
        ops: 0,
        exchanges: 0,
        stores: 0,
        exchange_ns: Samples::default(),
        busy_ns: 0,
        offers: Samples::default(),
        digest: Digest::default(),
        digest_ops: sizes.digest_ops,
        rss_mib: 0.0,
    };
    for _ in 0..sizes.warm_ops {
        client.step(&mut env, &mut tr, &mut out, false);
    }
    client.exchange_ns = Samples::default();

    // Timed phase. A traced run spends its first half untraced (the
    // baseline for the tracing overhead and the source of the counter
    // ratios) and its second half traced.
    let mark = TelemetryMark::of(env.telemetry());
    let work = work_units(NOMINAL_OPS_PER_S, cfg.seconds, sizes.digest_ops);
    let phase = if cfg.trace { work / 2 } else { work };
    let started = Instant::now();
    let ops_before = client.ops;
    let busy_before = client.busy_ns;
    while client.ops < ops_before + phase || client.ops < sizes.digest_ops {
        client.step(&mut env, &mut tr, &mut out, false);
    }
    let untraced_wall = started.elapsed().as_secs_f64();
    let untraced_ops = client.ops - ops_before;
    let (spans_dropped, events_dropped) = TelemetryMark::of(env.telemetry()).dropped_since(&mark);
    let exchange = std::mem::take(&mut client.exchange_ns);
    out.end_to_end = phase_metrics(
        &setup_s,
        untraced_ops,
        client.busy_ns - busy_before,
        &exchange,
        client.rss_mib,
    );
    out.detail = vec![
        pct(
            "exchange_p50_us",
            out.end_to_end[2].value,
            "us",
            out.end_to_end[2].samples.unwrap_or(0),
        ),
        pct(
            "exchange_p99_us",
            out.end_to_end[3].value,
            "us",
            out.end_to_end[3].samples.unwrap_or(0),
        ),
    ];

    if cfg.trace {
        tr.set_on(true);
        let started = Instant::now();
        let ops_before = client.ops;
        let end = client.ops + phase;
        while client.ops < end {
            let probe = client.ops.is_multiple_of(PROBE_EVERY);
            client.step(&mut env, &mut tr, &mut out, probe);
        }
        let traced_per_op =
            started.elapsed().as_secs_f64() / (client.ops - ops_before).max(1) as f64;
        let untraced_per_op = untraced_wall / untraced_ops.max(1) as f64;
        tr.set_on(false);
        let exchange_p50 = tr.p50_us("CscwEnvironment::exchange");
        let mut layers = probe_metrics(&tr, &client.offers);
        let unattributed = exchange_p50
            - tr.p50_us("TraderPort::import")
            - tr.p50_us("DirectoryPort::apply(Add)")
            - tr.p50_us("TransportPort::notify");
        layers.extend([
            metric("kernel.spans_dropped_ratio", spans_dropped, "ratio"),
            metric("kernel.events_dropped_ratio", events_dropped, "ratio"),
            metric(
                "env.register_app_us_p50",
                tr.p50_us("CscwEnvironment::register_app"),
                "us",
            ),
            metric(
                "env.store_object_us_p50",
                tr.p50_us("CscwEnvironment::store_object"),
                "us",
            ),
            metric(
                "env.read_object_us_p50",
                tr.p50_us("CscwEnvironment::read_object"),
                "us",
            ),
            metric("env.unattributed_us", unattributed, "us"),
            metric(
                "trace.overhead_ratio",
                ratio(traced_per_op, untraced_per_op),
                "ratio",
            ),
        ]);
        out.per_layer = layers;
        out.tracer = Some(tr);
    }

    // The repository holds one object per write and per exchange.
    let objects = env.repository().len() as u64;
    let want = client.exchanges + client.stored.len() as u64;
    out.check(objects == want, || {
        format!("repository holds {objects} objects, expected {want}")
    });
    out.digest = client.digest.hex();
    out
}
