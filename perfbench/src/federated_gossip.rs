//! `federated_gossip`: 32 sites on a seeded random graph, each a
//! `ResilientPlatform(SimPlatform)` environment hosting 2 apps.
//!
//! Each fixed simulated slice issues one `store_object` at a seeded
//! site and one remote `exchange` to an app at a directly linked site,
//! then advances the federation with `run_for`: open in simulated time
//! (a fixed write rate), closed in wall time (one client). Gossip
//! frames, remote deliveries and directory mirrors cross messaging,
//! the MTA/DSA, simnet and the resilience wrapper; each trader import
//! scans only 2 offers.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cscw_directory::Dn;
use cscw_federation::{FederationFabric, RuntimeConfig};
use cscw_kernel::Timestamp;
use cscw_messaging::GossipFrame;
use mocca::env::{AppDescriptor, AppId, FormatMapping, NativeArtifact, Quadrant};
use mocca::info::{InfoContent, InfoObject, InfoObjectId};
use mocca::{CscwEnvironment, FederatedEnvironments, RunReport, SimPlatform};
use simnet::shapes;

use crate::common::{
    fill_telemetry, metric, pct, phase_metrics, probe_env, probe_metrics, repeated_setup, timed,
    work_units, Outcome, RunCfg, TelemetryMark,
};
use crate::stats::{ratio, Digest, Rng, Samples};
use crate::trace::Tracer;

const COMMON: [&str; 3] = ["title", "body", "author"];
const APPS_PER_SITE: usize = 2;
/// Simulated time per slice: one write and one remote exchange each.
const SLICE_MICROS: u64 = 50_000;
/// Replicas are checked after every sub-slice of `run_for`.
const CHECK_MICROS: u64 = 10_000;
/// Drain budget after the timed phase (simulated).
const DRAIN_MAX_MICROS: u64 = 120_000_000;
/// Slices per second this workload sustains on a 2-vCPU container at this commit;
/// `--seconds` × this is the timed phase's fixed work.
const NOMINAL_SLICES_PER_S: f64 = 100.0;
const PROBE_EVERY: u64 = 2;
const MIRROR: &str = "perfbench-mirror";
/// The link graph is one fixed deployment; the run seed drives the
/// traffic (origins, exchange pairs, payloads) and the runtime's
/// gossip phases. A graph drawn per seed would make the cross-seed
/// spread measure topology rather than the code.
const TOPOLOGY_SEED: u64 = 1;

struct Sizes {
    sites: usize,
    setups: usize,
    warm_slices: u64,
    /// Writes of the first `digest_slices` slices enter the digest...
    digest_slices: u64,
    /// ...which is taken this many slices later, when they have
    /// replicated; the timed phase runs at least this far.
    settle_slices: u64,
}

const FULL: Sizes = Sizes {
    sites: 32,
    setups: 3,
    warm_slices: 20,
    digest_slices: 150,
    settle_slices: 100,
};

const SMALL: Sizes = Sizes {
    sites: 6,
    setups: 1,
    warm_slices: 5,
    digest_slices: 30,
    settle_slices: 60,
};

fn domain(i: usize) -> String {
    format!("site-{i:02}")
}

fn app_id(site: usize, k: usize) -> AppId {
    AppId::new(format!("s{site:02}app{k}"))
}

struct World {
    fed: FederatedEnvironments,
    neighbours: Vec<Vec<usize>>,
}

fn build(seed: u64, vocab: &[[String; 3]], sites: usize, tr: &mut Tracer) -> World {
    let mut fed = FederatedEnvironments::new();
    for i in 0..sites {
        let site_seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
        let mut env = CscwEnvironment::with_resilient_platform(
            Box::new(SimPlatform::new(site_seed)),
            site_seed,
        );
        for k in 0..APPS_PER_SITE {
            let id = app_id(i, k);
            let descriptor = AppDescriptor {
                id: id.clone(),
                name: format!("site {i} app {k}"),
                quadrant: Quadrant::all()[k % 4],
                native_format: format!("{id}-native"),
                kinds: vec!["artifact".to_owned()],
            };
            let fields = &vocab[i * APPS_PER_SITE + k];
            let mapping = FormatMapping::new(fields.iter().cloned().zip(COMMON));
            tr.span("CscwEnvironment::register_app", "mocca", || {
                env.register_app(descriptor, mapping)
            });
        }
        fed.federate(domain(i), env);
    }
    let mut neighbours = vec![Vec::new(); sites];
    for (a, b) in shapes::random(sites, sites / 4, TOPOLOGY_SEED) {
        fed.link_bidi(&domain(a), &domain(b));
        neighbours[a].push(b);
        neighbours[b].push(a);
    }
    fed.start_runtime(RuntimeConfig::seeded(seed));
    World { fed, neighbours }
}

struct PendingWrite {
    slice: u64,
    key: String,
    value: String,
    issued: u64,
    remaining: BTreeSet<usize>,
}

#[derive(Default)]
struct Counters {
    net_sent: u64,
    net_dropped: u64,
    retries: u64,
    breaker_opens: u64,
    telemetry: TelemetryMark,
}

fn counters(fed: &FederatedEnvironments, sites: usize) -> Counters {
    let mut c = Counters::default();
    for i in 0..sites {
        let Some(env) = fed.env(&domain(i)) else {
            continue;
        };
        let t = env.telemetry();
        c.net_sent += t.counter_across_layers("net.sent");
        c.net_dropped += t.counter_across_layers("net.dropped");
        for port in ["trader", "directory", "transport"] {
            c.retries += t.counter_across_layers(&format!("resilience.{port}.retries"));
            c.breaker_opens += t.counter_across_layers(&format!("resilience.{port}.breaker_open"));
        }
        c.telemetry.add(TelemetryMark::of(t));
    }
    c
}

struct Client {
    rng: Rng,
    seed: u64,
    sites: usize,
    vocab: Vec<[String; 3]>,
    slices: u64,
    pending: Vec<PendingWrite>,
    /// Every write: key, value.
    written: Vec<(String, String)>,
    /// Replication lag per write slice, simulated micros.
    lags: BTreeMap<u64, u64>,
    lag_us: Samples,
    /// Remote exchanges sent, by destination site: serials.
    sent: Vec<Vec<u64>>,
    exchange_ns: Samples,
    busy_ns: u64,
    run_ns: u64,
    /// Everything `run_for` reported since set-up.
    total: RunReport,
    pending_inbound_max: usize,
    offers: Samples,
    mirror: FederationFabric,
    digest: Digest,
    digest_slices: u64,
    /// Slice count at which the digest is sealed.
    seal_at: u64,
    /// Peak resident memory when the digest is sealed: a fixed amount
    /// of work, whatever the speed of the run.
    rss_mib: f64,
}

impl Client {
    fn now(fed: &FederatedEnvironments) -> u64 {
        fed.runtime().map_or(0, |rt| rt.now().as_micros())
    }

    /// Marks replicas that now hold each pending write; a write whose
    /// every replica holds it records its lag.
    fn check_replicas(&mut self, fed: &FederatedEnvironments) {
        let now = Self::now(fed);
        let fabric = fed.fabric();
        let lags = &mut self.lags;
        let lag_us = &mut self.lag_us;
        self.pending.retain_mut(|w| {
            w.remaining.retain(|&site| {
                fabric.replica_get(&domain(site), &w.key).as_deref() != Some(&w.value)
            });
            if w.remaining.is_empty() {
                lags.insert(w.slice, now - w.issued);
                lag_us.push(now - w.issued);
                false
            } else {
                true
            }
        });
    }

    fn advance(&mut self, fed: &mut FederatedEnvironments, micros: u64, out: &mut Outcome) {
        let mut left = micros;
        while left > 0 {
            let step = left.min(CHECK_MICROS);
            let (report, ns) = timed(|| fed.run_for(step, self.seed));
            self.busy_ns += ns;
            self.run_ns += ns;
            match report {
                Ok(r) => self.total.absorb(&r),
                Err(e) => out.check(false, || format!("run_for failed: {e}")),
            }
            self.check_replicas(fed);
            left -= step;
        }
    }

    fn slice(&mut self, world: &mut World, tr: &mut Tracer, out: &mut Outcome, probe: bool) {
        let n = self.slices;
        self.slices += 1;
        let fed = &mut world.fed;
        let now = Self::now(fed);
        let sharer = format!("cn=user{}", self.rng.below(20));
        let sharer_dn: Dn = sharer.parse().expect("fixed sharer DN");

        // One write at a seeded origin.
        tr.next_request();
        let root = tr.begin("app.request", "groupware");
        let origin = self.rng.pick(self.sites);
        let text = format!("v{n}-{:x}", self.rng.next());
        let object = InfoObject::new(
            InfoObjectId::new(format!("w{n}")),
            "note",
            sharer_dn.clone(),
            InfoContent::Text(text.clone()),
        );
        let env = fed.env_mut(&domain(origin)).expect("site exists");
        let (stored, ns) = timed(|| {
            let span = tr.begin("CscwEnvironment::store_object", "mocca");
            let r = env.store_object(object, None, Timestamp::from_micros(now));
            tr.end(span);
            r
        });
        self.busy_ns += ns;
        out.attempted += 1;
        match stored {
            Ok(()) => {
                let (key, value) = (format!("info:w{n}"), format!("note:text:{text}"));
                self.written.push((key.clone(), value.clone()));
                self.pending.push(PendingWrite {
                    slice: n,
                    key,
                    value,
                    issued: now,
                    remaining: (0..self.sites).collect(),
                });
            }
            Err(e) => out.fail(format!("store_object: site {origin}: {e}")),
        }
        tr.end(root);

        // One remote exchange to an app at a directly linked site.
        tr.next_request();
        let root = tr.begin("app.request", "groupware");
        let src = self.rng.pick(self.sites);
        let dst = world.neighbours[src][self.rng.pick(world.neighbours[src].len())];
        let from_k = self.rng.pick(APPS_PER_SITE);
        let to = app_id(dst, self.rng.pick(APPS_PER_SITE));
        let values = [format!("t{n}"), format!("b{n}"), sharer.clone()];
        let from = app_id(src, from_k);
        let artifact = NativeArtifact {
            format: format!("{from}-native"),
            fields: self.vocab[src * APPS_PER_SITE + from_k]
                .iter()
                .cloned()
                .zip(values.iter().cloned())
                .collect(),
            app: from,
        };
        let env = world.fed.env_mut(&domain(src)).expect("site exists");
        let (result, ns) = timed(|| {
            let span = tr.begin("CscwEnvironment::exchange", "mocca");
            let r = env.exchange(&sharer_dn, &artifact, &to, Timestamp::from_micros(now));
            tr.end(span);
            r
        });
        self.busy_ns += ns;
        self.exchange_ns.push(ns);
        out.attempted += 1;
        match result {
            Ok(got) => {
                let want: BTreeMap<String, String> =
                    COMMON.iter().map(|c| c.to_string()).zip(values).collect();
                out.check(got.app == to && got.fields == want, || {
                    format!(
                        "remote exchange {n}: {:?} != common form {want:?}",
                        got.fields
                    )
                });
                self.sent[dst].push(n);
                if n < self.digest_slices {
                    self.digest.str(&format!("{dst}:{:?}", got.fields));
                }
            }
            Err(e) => {
                if n < self.digest_slices {
                    self.digest.str(&format!("{dst}: refused {e}"));
                }
                out.fail(format!("exchange: {n} to {to}: {e}"));
            }
        }
        self.pending_inbound_max = self
            .pending_inbound_max
            .max(world.fed.fabric().pending_inbound());
        if probe {
            let env = world.fed.env_mut(&domain(src)).expect("site exists");
            match probe_env(env, tr, n, &sharer, &app_id(src, from_k)) {
                Ok(offers) => self.offers.push(offers as u64),
                Err(e) => out.check(false, || e),
            }
            self.probe_fabric(&world.fed, src, tr, out);
        }
        tr.end(root);

        self.advance(&mut world.fed, SLICE_MICROS, out);
        if self.slices == self.seal_at {
            self.seal_digest(&world.fed);
        }
    }

    /// Digest of the run's deterministic prefix: the replication lag
    /// of every write of the first `digest_slices` slices, the
    /// exchanges they returned, and the federation's state and traffic
    /// at this instant.
    fn seal_digest(&mut self, fed: &FederatedEnvironments) {
        let d = &mut self.digest;
        for slice in 0..self.digest_slices {
            d.str(&format!("lag{slice}={:?}", self.lags.get(&slice)));
        }
        for (site, print) in fed.fingerprints() {
            d.str(&site);
            d.str(&print);
        }
        d.u64(fed.fabric().pending_inbound() as u64);
        d.str(&format!("{:?}", self.total));
        self.rss_mib = crate::stats::peak_rss_mib();
    }

    /// The anti-entropy calls of one link, from site `src` to the
    /// benchmark's mirror replica: the mirror's digest frame, the
    /// site's delta frame for it, the frame's wire codec, and the
    /// mirror's ingest. The real replicas are only read.
    fn probe_fabric(
        &mut self,
        fed: &FederatedEnvironments,
        src: usize,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) {
        let mirror = self.mirror.clone();
        let result = (|| {
            let digest = tr.span("FederationFabric::digest_frame", "cscw-federation", || {
                mirror.digest_frame(MIRROR)
            })?;
            let delta = tr.span("FederationFabric::delta_frame", "cscw-federation", || {
                fed.fabric().delta_frame(&domain(src), &digest)
            })?;
            let decoded = tr.span("GossipFrame::encode+decode", "cscw-messaging", || {
                GossipFrame::decode(&delta.encode())
            });
            if decoded.as_ref() != Ok(&delta) {
                return Ok(Some(
                    "gossip frame did not survive encode+decode".to_owned(),
                ));
            }
            tr.span("FederationFabric::ingest_delta", "cscw-federation", || {
                mirror.ingest_delta(MIRROR, &delta)
            })?;
            Ok::<_, cscw_federation::FederationError>(None)
        })();
        match result {
            Ok(None) => {}
            Ok(Some(problem)) => out.check(false, || problem),
            Err(e) => out.check(false, || format!("fabric probe: {e}")),
        }
    }
}

/// `later - earlier`, field by field.
fn since(later: &RunReport, earlier: &RunReport) -> RunReport {
    RunReport {
        micros: later.micros - earlier.micros,
        gossip_pulses: later.gossip_pulses - earlier.gossip_pulses,
        pump_pulses: later.pump_pulses - earlier.pump_pulses,
        links_walked: later.links_walked - earlier.links_walked,
        links_degraded: later.links_degraded - earlier.links_degraded,
        updates_applied: later.updates_applied - earlier.updates_applied,
        deliveries: later.deliveries - earlier.deliveries,
        bytes_on_wire: later.bytes_on_wire - earlier.bytes_on_wire,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let sizes = if cfg.small { SMALL } else { FULL };
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);
    let vocab: Vec<[String; 3]> = (0..sizes.sites * APPS_PER_SITE)
        .map(|a| {
            let mut word = |k: usize| format!("w{a}x{k}{:06x}", rng.next() & 0xff_ffff);
            [word(0), word(1), word(2)]
        })
        .collect();
    let mut tr = Tracer::new(false);

    let (mut world, setup_s) = repeated_setup(sizes.setups, cfg, &mut tr, |tr| {
        build(cfg.seed, &vocab, sizes.sites, tr)
    });
    // Steady state: every site's telemetry stream and the fabric's own
    // are full before timing starts.
    fill_telemetry(&world.fed.fabric().telemetry());
    for i in 0..sizes.sites {
        if let Some(env) = world.fed.env(&domain(i)) {
            fill_telemetry(env.telemetry());
        }
    }
    let mirror = FederationFabric::new();
    mirror.join(MIRROR);
    let mut client = Client {
        rng,
        seed: cfg.seed,
        sites: sizes.sites,
        vocab,
        slices: 0,
        pending: Vec::new(),
        written: Vec::new(),
        lags: BTreeMap::new(),
        lag_us: Samples::default(),
        sent: vec![Vec::new(); sizes.sites],
        exchange_ns: Samples::default(),
        busy_ns: 0,
        run_ns: 0,
        total: RunReport::default(),
        pending_inbound_max: 0,
        offers: Samples::default(),
        mirror,
        digest: Digest::default(),
        digest_slices: sizes.digest_slices,
        seal_at: sizes.digest_slices + sizes.settle_slices,
        rss_mib: 0.0,
    };
    for _ in 0..sizes.warm_slices {
        client.slice(&mut world, &mut tr, &mut out, false);
    }
    client.exchange_ns = Samples::default();

    // Timed phase; a traced run's first half is its untraced baseline.
    let work = work_units(NOMINAL_SLICES_PER_S, cfg.seconds, client.seal_at);
    let phase = if cfg.trace { work / 2 } else { work };
    let before = counters(&world.fed, sizes.sites);
    let (report_before, busy_before, run_before) = (client.total, client.busy_ns, client.run_ns);
    let started = Instant::now();
    let slices_before = client.slices;
    while client.slices < slices_before + phase || client.slices < client.seal_at {
        client.slice(&mut world, &mut tr, &mut out, false);
    }
    let untraced_wall = started.elapsed().as_secs_f64();
    let untraced_slices = client.slices - slices_before;
    let after = counters(&world.fed, sizes.sites);
    let phase_report = since(&client.total, &report_before);
    let busy_ns = client.busy_ns - busy_before;
    let run_ns = client.run_ns - run_before;
    let ops = 2 * untraced_slices;
    let sim_s = phase_report.micros as f64 / 1e6;
    let exchange = std::mem::take(&mut client.exchange_ns);
    out.end_to_end = phase_metrics(&setup_s, ops, busy_ns, &exchange, client.rss_mib);

    let mut layers = Vec::new();
    if cfg.trace {
        tr.set_on(true);
        let started = Instant::now();
        let slices_before = client.slices;
        let end = client.slices + phase;
        while client.slices < end {
            let probe = client.slices.is_multiple_of(PROBE_EVERY);
            client.slice(&mut world, &mut tr, &mut out, probe);
        }
        let traced_per_slice =
            started.elapsed().as_secs_f64() / (client.slices - slices_before).max(1) as f64;
        tr.set_on(false);
        layers = probe_metrics(&tr, &client.offers);
        layers.push(metric(
            "trace.overhead_ratio",
            ratio(
                traced_per_slice,
                untraced_wall / untraced_slices.max(1) as f64,
            ),
            "ratio",
        ));
    }

    // Drain (untimed): no new writes until every replica agrees and
    // every remote delivery has landed.
    let drain_started = Client::now(&world.fed);
    while !(world.fed.converged() && world.fed.fabric().pending_inbound() == 0) {
        if Client::now(&world.fed) - drain_started > DRAIN_MAX_MICROS {
            out.check(false, || {
                "replicas did not converge within the drain budget".to_owned()
            });
            break;
        }
        client.advance(&mut world.fed, 250_000, &mut out);
    }
    client.check_replicas(&world.fed);

    // Every written key reads back its written value at every site.
    let fabric = world.fed.fabric();
    for (key, value) in &client.written {
        for site in 0..sizes.sites {
            let got = fabric.replica_get(&domain(site), key);
            out.check(got.as_deref() == Some(value.as_str()), || {
                format!("site {site} reads {key} = {got:?}, wrote {value}")
            });
        }
    }
    // Every remote exchange was delivered exactly once, intact.
    for (site, sent) in client.sent.iter().enumerate() {
        let env = world.fed.env(&domain(site)).expect("site exists");
        let mut got: Vec<u64> = Vec::new();
        for id in env.repository().ids_of_kind("exchanged-artifact-inbound") {
            let Some(InfoContent::Fields(fields)) = env.repository().peek(&id).map(|o| &o.content)
            else {
                out.check(false, || {
                    format!("site {site}: delivery {id} has no fields")
                });
                continue;
            };
            let serial = fields
                .get("title")
                .and_then(|t| t.strip_prefix('t'))
                .and_then(|t| t.parse::<u64>().ok());
            match serial {
                Some(n) => {
                    out.check(
                        fields.get("body").map(String::as_str) == Some(format!("b{n}").as_str()),
                        || format!("site {site}: delivery {n} body {fields:?}"),
                    );
                    got.push(n);
                }
                None => out.check(false, || format!("site {site}: delivery {fields:?}")),
            }
        }
        got.sort_unstable();
        let mut want = sent.clone();
        want.sort_unstable();
        out.check(got == want, || {
            format!(
                "site {site}: delivered {} exchanges, sent {}",
                got.len(),
                want.len()
            )
        });
    }
    out.check(client.pending.is_empty(), || {
        format!(
            "{} writes never reached every replica",
            client.pending.len()
        )
    });

    let lag = &client.lag_us;
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
        pct(
            "replication_lag_p50_sim_ms",
            lag.quantile(0.5) as f64 / 1e3,
            "sim_ms",
            lag.len(),
        ),
        pct(
            "replication_lag_p99_sim_ms",
            lag.quantile(0.99) as f64 / 1e3,
            "sim_ms",
            lag.len(),
        ),
        metric(
            "sim_s_per_wall_s",
            ratio(sim_s, busy_ns as f64 / 1e9),
            "sim_s/s",
        ),
    ];
    if cfg.trace {
        let pulses = (phase_report.gossip_pulses + phase_report.pump_pulses) as f64;
        let gossip = phase_report.gossip_pulses as f64;
        let (spans_dropped, events_dropped) = after.telemetry.dropped_since(&before.telemetry);
        layers.extend([
            metric("kernel.spans_dropped_ratio", spans_dropped, "ratio"),
            metric("kernel.events_dropped_ratio", events_dropped, "ratio"),
            metric("kernel.pulses_per_sim_s", ratio(pulses, sim_s), "1/sim_s"),
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
                "messaging.frame_codec_us_p50",
                tr.p50_us("GossipFrame::encode+decode"),
                "us",
            ),
            metric(
                "messaging.bytes_per_update",
                ratio(
                    phase_report.bytes_on_wire as f64,
                    phase_report.updates_applied as f64,
                ),
                "B",
            ),
            metric(
                "federation.run_for_us_per_sim_s",
                ratio(run_ns as f64 / 1e3, sim_s),
                "us/sim_s",
            ),
            metric(
                "federation.digest_us_p50",
                tr.p50_us("FederationFabric::digest_frame"),
                "us",
            ),
            metric(
                "federation.delta_us_p50",
                tr.p50_us("FederationFabric::delta_frame"),
                "us",
            ),
            metric(
                "federation.ingest_us_p50",
                tr.p50_us("FederationFabric::ingest_delta"),
                "us",
            ),
            metric(
                "federation.links_walked_per_pulse",
                ratio(phase_report.links_walked as f64, gossip),
                "count",
            ),
            metric(
                "federation.updates_per_pulse",
                ratio(phase_report.updates_applied as f64, gossip),
                "count",
            ),
            metric(
                "federation.degraded_link_ratio",
                ratio(
                    phase_report.links_degraded as f64,
                    phase_report.links_walked as f64,
                ),
                "ratio",
            ),
            metric(
                "federation.pending_inbound_max",
                client.pending_inbound_max as f64,
                "count",
            ),
            pct(
                "federation.replication_lag_p50_sim_ms",
                lag.quantile(0.5) as f64 / 1e3,
                "sim_ms",
                lag.len(),
            ),
            pct(
                "federation.replication_lag_p99_sim_ms",
                lag.quantile(0.99) as f64 / 1e3,
                "sim_ms",
                lag.len(),
            ),
            metric(
                "federation.sim_s_per_wall_s",
                ratio(sim_s, busy_ns as f64 / 1e9),
                "sim_s/s",
            ),
            metric(
                "simnet.msgs_per_op",
                ratio((after.net_sent - before.net_sent) as f64, ops as f64),
                "count",
            ),
            metric(
                "simnet.dropped_per_op",
                ratio((after.net_dropped - before.net_dropped) as f64, ops as f64),
                "count",
            ),
            metric(
                "platform.retries_per_op",
                ratio((after.retries - before.retries) as f64, ops as f64),
                "count",
            ),
            metric(
                "platform.breaker_opens",
                (after.breaker_opens - before.breaker_opens) as f64,
                "count",
            ),
        ]);
        out.per_layer = layers;
        out.tracer = Some(tr);
    }
    out.digest = client.digest.hex();
    out
}
