//! `standing_queries`: one `LocalPlatform` environment whose knowledge
//! DIT holds 20 000 people in 10 orgs plus 8 projects, watched by 100
//! standing queries (attribute filters, `occupies` edge literals,
//! `works-on (…)` one-hop joins and `from knowledge` key queries), half
//! of them bound to apps so their deltas travel through the MTS port.
//!
//! The closed loop mutates the DIT (mostly watched attributes, some
//! unwatched ones, a rare project-state flip that fans out through the
//! joins), ingests replicated pairs and searches people; after every
//! mutation it pumps the queries and takes the deltas. `cscw-query` and
//! `cscw-directory` carry the load; the trader does none of it.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cscw_directory::{Attribute, Dn, Entry, Filter};
use cscw_kernel::Layer;
use cscw_query::{QueryDelta, SubscriptionId, SubscriptionRegistry};
use mocca::env::{AppDescriptor, AppId, FormatMapping, Quadrant};
use mocca::CscwEnvironment;

use crate::common::{
    app_address, fill_telemetry, metric, pct, phase_metrics, probe_env, probe_metrics,
    repeated_setup, timed, work_units, Outcome, RunCfg, TelemetryMark,
};
use crate::stats::{ratio, Digest, Rng, Samples};
use crate::trace::Tracer;

const ORGS: u64 = 10;
const PROJECTS: usize = 8;
const ROLES: u8 = 20;
const SURNAMES: u8 = 50;
const WATCHERS: usize = 10;
/// Replicated-knowledge key groups; queries watch the first 20.
const KEY_GROUPS: u64 = 24;
/// Operations per second this workload sustains on a 2-vCPU container at this commit;
/// `--seconds` × this is the timed phase's fixed work.
const NOMINAL_OPS_PER_S: f64 = 1_300.0;
const PROBE_EVERY: u64 = 4;
/// One operation in this many is a project-state flip.
const FLIP_EVERY: u64 = 1_000;

struct Sizes {
    people: usize,
    setups: usize,
    warm_ops: u64,
    digest_ops: u64,
}

const FULL: Sizes = Sizes {
    people: 20_000,
    setups: 3,
    warm_ops: 300,
    digest_ops: 3_000,
};

const SMALL: Sizes = Sizes {
    people: 600,
    setups: 1,
    warm_ops: 20,
    digest_ops: 400,
};

/// One standing query, as the benchmark's reference understands it.
#[derive(Clone, Copy)]
enum Query {
    /// `class = person and sn = "Surname<k>"`
    Surname(u8),
    /// `class = person and occupies "cn=role<r>"`
    Role(u8),
    /// `class = person [and sn = "Surname<k>"] and works-on (projectstate = active)`
    ActiveProject(Option<u8>),
    /// `from knowledge key prefix "kb:g<g>:"`
    KeyGroup(u8),
    /// `from knowledge key prefix "kb:" and value = "state<v>"`
    Value(u8),
}

impl Query {
    fn src(self) -> String {
        match self {
            Query::Surname(k) => format!(r#"class = person and sn = "Surname{k}""#),
            Query::Role(r) => format!(r#"class = person and occupies "cn=role{r}""#),
            Query::ActiveProject(None) => {
                "class = person and works-on (projectstate = active)".to_owned()
            }
            Query::ActiveProject(Some(k)) => format!(
                r#"class = person and sn = "Surname{k}" and works-on (projectstate = active)"#
            ),
            Query::KeyGroup(g) => format!(r#"from knowledge key prefix "kb:g{g}:""#),
            Query::Value(v) => format!(r#"from knowledge key prefix "kb:" and value = "state{v}""#),
        }
    }

    fn on_entries(self) -> bool {
        !matches!(self, Query::KeyGroup(_) | Query::Value(_))
    }

    fn person(self, p: &Person, active: &[bool]) -> bool {
        let joined = || p.project.is_some_and(|j| active[j as usize]);
        match self {
            Query::Surname(k) => p.sn == k,
            Query::Role(r) => p.role == Some(r),
            Query::ActiveProject(None) => joined(),
            Query::ActiveProject(Some(k)) => p.sn == k && joined(),
            Query::KeyGroup(_) | Query::Value(_) => false,
        }
    }

    fn pair(self, key: &str, value: &str) -> bool {
        match self {
            Query::KeyGroup(g) => key.starts_with(&format!("kb:g{g}:")),
            Query::Value(v) => key.starts_with("kb:") && value == format!("state{v}"),
            _ => false,
        }
    }
}

/// The 100-query panel.
fn panel() -> Vec<Query> {
    let mut q: Vec<Query> = (0..30).map(Query::Surname).collect();
    q.extend((0..ROLES).map(Query::Role));
    q.extend([Query::ActiveProject(None), Query::ActiveProject(None)]);
    q.extend((0..18).map(|k| Query::ActiveProject(Some(k))));
    q.extend((0..20).map(Query::KeyGroup));
    q.extend((0..10).map(Query::Value));
    q
}

/// The benchmark's shadow of one person entry.
#[derive(Clone, PartialEq)]
struct Person {
    sn: u8,
    role: Option<u8>,
    project: Option<u8>,
    phone: u32,
}

fn canonical(dn: &str) -> String {
    dn.parse::<Dn>().expect("fixture DN").to_string()
}

fn person_dn(i: usize) -> String {
    canonical(&format!("c=UK,o=org{},cn=person{i}", i as u64 % ORGS))
}

fn project_dn(j: usize) -> String {
    canonical(&format!("c=UK,cn=proj{j}"))
}

fn watcher(k: usize) -> AppId {
    AppId::new(format!("watcher{k}"))
}

fn person_entry(dn: &str, i: usize, p: &Person, projects: &[String]) -> Entry {
    let mut e = Entry::new(dn.parse().expect("fixture DN"))
        .with_class("person")
        .with_attr(Attribute::single("cn", format!("person{i}")))
        .with_attr(Attribute::single("sn", format!("Surname{}", p.sn)))
        .with_attr(Attribute::single("telephonenumber", p.phone.to_string()));
    if let Some(r) = p.role {
        e.put_attr(Attribute::single("occupiesrole", format!("cn=role{r}")));
    }
    if let Some(j) = p.project {
        e.put_attr(Attribute::single("workson", projects[j as usize].as_str()));
    }
    e
}

struct Shadow {
    people: Vec<Person>,
    dns: Vec<String>,
    projects: Vec<String>,
    active: Vec<bool>,
    /// Persons working on each project.
    workers: Vec<BTreeSet<usize>>,
    knowledge: BTreeMap<String, String>,
}

impl Shadow {
    fn new(rng: &mut Rng, people: usize) -> Self {
        let persons: Vec<Person> = (0..people)
            .map(|_| Person {
                sn: rng.below(u64::from(SURNAMES)) as u8,
                role: (rng.below(3) == 0).then(|| rng.below(u64::from(ROLES)) as u8),
                project: (rng.below(2) == 0).then(|| rng.pick(PROJECTS) as u8),
                phone: rng.below(1_000_000) as u32,
            })
            .collect();
        let mut workers = vec![BTreeSet::new(); PROJECTS];
        for (i, p) in persons.iter().enumerate() {
            if let Some(j) = p.project {
                workers[j as usize].insert(i);
            }
        }
        Shadow {
            dns: (0..people).map(person_dn).collect(),
            projects: (0..PROJECTS).map(project_dn).collect(),
            active: (0..PROJECTS).map(|j| j % 2 == 0).collect(),
            people: persons,
            workers,
            knowledge: BTreeMap::new(),
        }
    }

    /// Brute-force result set of `q` over the whole shadow.
    fn evaluate(&self, q: Query) -> BTreeSet<String> {
        if q.on_entries() {
            self.people
                .iter()
                .zip(&self.dns)
                .filter(|(p, _)| q.person(p, &self.active))
                .map(|(_, dn)| dn.clone())
                .collect()
        } else {
            self.knowledge
                .iter()
                .filter(|(k, v)| q.pair(k, v))
                .map(|(k, _)| k.clone())
                .collect()
        }
    }
}

struct World {
    env: CscwEnvironment,
    subs: Vec<SubscriptionId>,
    /// Initial result sets of the buffered subscriptions.
    primed: BTreeMap<SubscriptionId, BTreeSet<String>>,
}

fn build(shadow: &Shadow, queries: &[Query], tr: &mut Tracer) -> World {
    let mut env = CscwEnvironment::new();
    for k in 0..WATCHERS {
        let id = watcher(k);
        let descriptor = AppDescriptor {
            id: id.clone(),
            name: format!("watcher {k}"),
            quadrant: Quadrant::all()[k % 4],
            native_format: format!("{id}-native"),
            kinds: vec!["awareness".to_owned()],
        };
        let mapping = FormatMapping::new([("t", "title")]);
        tr.span("CscwEnvironment::register_app", "mocca", || {
            env.register_app(descriptor, mapping)
        });
    }
    let dit = env.knowledge_mut().dit_mut();
    let fixture =
        |r: Result<(), cscw_directory::DirectoryError>| r.expect("fixture entries insert");
    fixture(
        dit.add(
            Entry::new(canonical("c=UK").parse().expect("fixture DN"))
                .with_class("country")
                .with_attr(Attribute::single("c", "UK")),
        ),
    );
    for o in 0..ORGS {
        fixture(
            dit.add(
                Entry::new(
                    canonical(&format!("c=UK,o=org{o}"))
                        .parse()
                        .expect("fixture DN"),
                )
                .with_class("organization")
                .with_attr(Attribute::single("o", format!("org{o}"))),
            ),
        );
    }
    for (j, dn) in shadow.projects.iter().enumerate() {
        fixture(
            dit.add(
                Entry::new(dn.parse().expect("fixture DN"))
                    .with_class("cscwproject")
                    .with_attr(Attribute::single("cn", format!("proj{j}")))
                    .with_attr(Attribute::single(
                        "projectstate",
                        if shadow.active[j] {
                            "active"
                        } else {
                            "dormant"
                        },
                    )),
            ),
        );
    }
    for (i, (p, dn)) in shadow.people.iter().zip(&shadow.dns).enumerate() {
        fixture(dit.add(person_entry(dn, i, p, &shadow.projects)));
    }
    let mut subs = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let src = q.src();
        let id = tr.span("CscwEnvironment::subscribe", "cscw-query", || {
            if i % 2 == 0 {
                env.subscribe(&src)
            } else {
                env.subscribe_for_app(&src, &watcher(i % WATCHERS))
            }
        });
        subs.push(id.expect("panel queries compile"));
    }
    let mut primed: BTreeMap<SubscriptionId, BTreeSet<String>> = subs
        .iter()
        .step_by(2)
        .map(|id| (*id, BTreeSet::new()))
        .collect();
    for (id, delta) in env.take_query_deltas() {
        if let QueryDelta::Added { id: member } = delta {
            primed.entry(id).or_default().insert(member);
        }
    }
    World { env, subs, primed }
}

/// An expected delta: subscription index, kind, member.
type Expected = (usize, &'static str, String);

struct Client {
    rng: Rng,
    shadow: Shadow,
    queries: Vec<Query>,
    index: BTreeMap<SubscriptionId, usize>,
    ops: u64,
    changes: u64,
    delta_ns: Samples,
    busy_ns: u64,
    deltas_emitted: u64,
    /// Buffered deltas taken so far, per subscription, in order.
    taken: BTreeMap<usize, Vec<QueryDelta>>,
    /// Expected mailbox deltas per watcher app (priming included).
    mailbox_expected: Vec<u64>,
    offers: Samples,
    digest: Digest,
    digest_ops: u64,
    /// Peak resident memory once the digest prefix has run: a fixed
    /// amount of work, whatever the speed of the run.
    rss_mib: f64,
}

fn kind(was: bool, now: bool) -> Option<&'static str> {
    match (was, now) {
        (false, true) => Some("added"),
        (true, false) => Some("removed"),
        (true, true) => Some("changed"),
        (false, false) => None,
    }
}

impl Client {
    /// Deltas a person's modification must emit.
    fn expect_person(&self, before: &Person, after: &Person, dn: &str) -> Vec<Expected> {
        let active = &self.shadow.active;
        self.queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.on_entries())
            .filter_map(|(s, q)| {
                kind(q.person(before, active), q.person(after, active))
                    .map(|k| (s, k, dn.to_owned()))
            })
            .collect()
    }

    fn step(&mut self, world: &mut World, tr: &mut Tracer, out: &mut Outcome, probe: bool) {
        self.ops += 1;
        out.attempted += 1;
        tr.next_request();
        let n = self.ops;
        let root = tr.begin("app.request", "groupware");
        let env = &mut world.env;
        let mut busy_ns = 0;
        let mut expected: Vec<Expected> = Vec::new();
        let mut mutated = true;
        if self.rng.below(FLIP_EVERY) == 0 {
            let j = self.rng.pick(PROJECTS);
            let before_active = self.shadow.active.clone();
            self.shadow.active[j] = !self.shadow.active[j];
            let state = if self.shadow.active[j] {
                "active"
            } else {
                "dormant"
            };
            let dn: Dn = self.shadow.projects[j].parse().expect("fixture DN");
            let (r, ns) = timed(|| {
                tr.span("Dit::modify", "cscw-directory", || {
                    env.knowledge_mut().dit_mut().modify(&dn, |e| {
                        e.replace_attr(Attribute::single("projectstate", state));
                    })
                })
            });
            busy_ns += ns;
            if let Err(e) = r {
                out.fail(format!("Dit::modify: project {j}: {e}"));
            }
            for &i in &self.shadow.workers[j] {
                let p = &self.shadow.people[i];
                for (s, q) in self.queries.iter().enumerate() {
                    if let Query::ActiveProject(_) = q {
                        let (was, now) = (
                            q.person(p, &before_active),
                            q.person(p, &self.shadow.active),
                        );
                        if was != now {
                            expected.push((
                                s,
                                kind(was, now).expect("membership flipped"),
                                self.shadow.dns[i].clone(),
                            ));
                        }
                    }
                }
            }
        } else {
            let roll = self.rng.below(100);
            if roll < 78 {
                let i = self.rng.pick(self.shadow.people.len());
                let before = self.shadow.people[i].clone();
                let mut after = before.clone();
                // Every write changes its attribute's value.
                let watched = roll < 60;
                match (watched, roll % 3) {
                    (false, _) => {
                        after.phone = (before.phone + 1 + self.rng.below(999) as u32) % 1_000_000
                    }
                    (true, 0) => {
                        after.sn =
                            ((u64::from(before.sn) + 1 + self.rng.below(u64::from(SURNAMES) - 1))
                                % u64::from(SURNAMES)) as u8
                    }
                    (true, 1) => {
                        after.role = match before.role {
                            Some(_) => None,
                            None => Some(self.rng.below(u64::from(ROLES)) as u8),
                        }
                    }
                    (true, _) => {
                        after.project = match before.project {
                            Some(j) => (self.rng.below(2) == 0).then(|| {
                                ((u64::from(j) + 1 + self.rng.below(PROJECTS as u64 - 1))
                                    % PROJECTS as u64) as u8
                            }),
                            None => Some(self.rng.pick(PROJECTS) as u8),
                        }
                    }
                }
                let dn: Dn = self.shadow.dns[i].parse().expect("fixture DN");
                let projects = &self.shadow.projects;
                let (r, ns) = timed(|| {
                    tr.span("Dit::modify", "cscw-directory", || {
                        env.knowledge_mut().dit_mut().modify(&dn, |e| {
                            e.replace_attr(Attribute::single("sn", format!("Surname{}", after.sn)));
                            e.replace_attr(Attribute::single(
                                "telephonenumber",
                                after.phone.to_string(),
                            ));
                            match after.role {
                                Some(r) => e.replace_attr(Attribute::single(
                                    "occupiesrole",
                                    format!("cn=role{r}"),
                                )),
                                None => {
                                    e.remove_attr(&"occupiesrole".into());
                                }
                            }
                            match after.project {
                                Some(j) => e.replace_attr(Attribute::single(
                                    "workson",
                                    projects[j as usize].as_str(),
                                )),
                                None => {
                                    e.remove_attr(&"workson".into());
                                }
                            }
                        })
                    })
                });
                busy_ns += ns;
                match r {
                    Ok(()) => {
                        expected = self.expect_person(&before, &after, &self.shadow.dns[i]);
                        if before.project != after.project {
                            if let Some(j) = before.project {
                                self.shadow.workers[j as usize].remove(&i);
                            }
                            if let Some(j) = after.project {
                                self.shadow.workers[j as usize].insert(i);
                            }
                        }
                        self.shadow.people[i] = after;
                    }
                    Err(e) => out.fail(format!("Dit::modify: person {i}: {e}")),
                }
            } else if roll < 98 {
                let pairs: Vec<(String, String)> = (0..1 + self.rng.below(3))
                    .map(|_| {
                        (
                            format!(
                                "kb:g{}:item{}",
                                self.rng.below(KEY_GROUPS),
                                self.rng.below(200)
                            ),
                            format!("state{}", self.rng.below(12)),
                        )
                    })
                    .collect();
                let (r, ns) = timed(|| {
                    tr.span("CscwEnvironment::ingest_replicated", "cscw-query", || {
                        env.ingest_replicated(&pairs)
                    })
                });
                busy_ns += ns;
                match r {
                    Ok(_) => {
                        for (key, value) in pairs {
                            let prev = self.shadow.knowledge.get(&key).cloned();
                            if prev.as_ref() == Some(&value) {
                                continue;
                            }
                            for (s, q) in self.queries.iter().enumerate() {
                                let was = prev.as_ref().is_some_and(|p| q.pair(&key, p));
                                if let Some(k) = kind(was, q.pair(&key, &value)) {
                                    expected.push((s, k, key.clone()));
                                }
                            }
                            self.shadow.knowledge.insert(key, value);
                        }
                    }
                    Err(e) => out.fail(format!("ingest_replicated: {e}")),
                }
            } else {
                mutated = false;
                let k = self.rng.below(u64::from(SURNAMES)) as u8;
                let (r, ns) = timed(|| {
                    tr.span("KnowledgeBase::find_people", "cscw-directory", || {
                        env.knowledge()
                            .find_people(Filter::eq("sn", format!("Surname{k}")))
                    })
                });
                busy_ns += ns;
                match r {
                    Ok(found) => {
                        let want = self.shadow.people.iter().filter(|p| p.sn == k).count();
                        out.check(found.len() == want, || {
                            format!(
                                "find_people Surname{k}: {} found, {want} expected",
                                found.len()
                            )
                        });
                        if n <= self.digest_ops {
                            self.digest.u64(found.len() as u64);
                        }
                    }
                    Err(e) => out.fail(format!("find_people: {e}")),
                }
            }
        }
        if mutated {
            self.changes += 1;
            let pump_started = Instant::now();
            let pumped = tr.span("CscwEnvironment::pump_queries", "cscw-query", || {
                env.pump_queries()
            });
            let deltas = env.take_query_deltas();
            let pump_ns = pump_started.elapsed().as_nanos() as u64;
            busy_ns += pump_ns;
            if let Err(e) = pumped {
                out.fail(format!("pump_queries: {e}"));
            }
            // From the mutating call to the returned deltas; the
            // reference's own work in between is not counted.
            if !expected.is_empty() {
                self.delta_ns.push(busy_ns);
            }
            self.deltas_emitted += expected.len() as u64;
            self.compare(deltas, expected, n, out);
        }
        if probe {
            match probe_env(&mut world.env, tr, n, "cn=person0", &watcher(0)) {
                Ok(offers) => self.offers.push(offers as u64),
                Err(e) => out.check(false, || e),
            }
        }
        tr.end(root);
        self.busy_ns += busy_ns;
        if n == self.digest_ops {
            self.rss_mib = crate::stats::peak_rss_mib();
            self.digest.u64(self.deltas_emitted);
            for id in &world.subs {
                self.digest.u64(
                    world
                        .env
                        .queries()
                        .matches(*id)
                        .map_or(0, |m| m.len() as u64),
                );
            }
        }
    }

    /// Checks the buffered deltas an operation returned against the
    /// reference, and books the app-bound ones for the mailbox check.
    fn compare(
        &mut self,
        deltas: Vec<(SubscriptionId, QueryDelta)>,
        expected: Vec<Expected>,
        n: u64,
        out: &mut Outcome,
    ) {
        let mut want: Vec<(usize, &'static str, String)> = Vec::new();
        for (s, k, member) in expected {
            if s % 2 == 0 {
                want.push((s, k, member));
            } else {
                self.mailbox_expected[s % WATCHERS] += 1;
            }
        }
        let mut got: Vec<(usize, &'static str, String)> = Vec::new();
        for (id, delta) in deltas {
            let Some(&s) = self.index.get(&id) else {
                out.check(false, || format!("op {n}: delta for unknown {id}"));
                continue;
            };
            got.push((s, delta.kind(), delta.id().to_owned()));
            self.taken.entry(s).or_default().push(delta);
        }
        want.sort();
        got.sort();
        if n <= self.digest_ops {
            self.digest.str(&format!("{got:?}"));
        }
        out.check(got == want, || {
            format!(
                "op {n}: deltas {:?} != reference {:?}",
                &got[..got.len().min(4)],
                &want[..want.len().min(4)]
            )
        });
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let sizes = if cfg.small { SMALL } else { FULL };
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);
    let shadow = Shadow::new(&mut rng, sizes.people);
    let queries = panel();
    let mut tr = Tracer::new(false);
    let (mut world, setup_s) = repeated_setup(sizes.setups, cfg, &mut tr, |tr| {
        build(&shadow, &queries, tr)
    });
    fill_telemetry(world.env.telemetry());

    // Priming is the one authorised full scan; the app-bound initial
    // sets land in the mailboxes.
    let mut mailbox_expected = vec![0u64; WATCHERS];
    for (s, q) in queries.iter().enumerate() {
        if s % 2 == 1 {
            mailbox_expected[s % WATCHERS] += shadow.evaluate(*q).len() as u64;
        }
    }
    let index = world
        .subs
        .iter()
        .enumerate()
        .map(|(s, id)| (*id, s))
        .collect();
    let mut client = Client {
        rng,
        shadow,
        queries,
        index,
        ops: 0,
        changes: 0,
        delta_ns: Samples::default(),
        busy_ns: 0,
        deltas_emitted: 0,
        taken: BTreeMap::new(),
        mailbox_expected,
        offers: Samples::default(),
        digest: Digest::default(),
        digest_ops: sizes.digest_ops,
        rss_mib: 0.0,
    };
    for _ in 0..sizes.warm_ops {
        client.step(&mut world, &mut tr, &mut out, false);
    }
    client.delta_ns = Samples::default();

    let work = work_units(NOMINAL_OPS_PER_S, cfg.seconds, sizes.digest_ops);
    let phase = if cfg.trace { work / 2 } else { work };
    let mark = TelemetryMark::of(world.env.telemetry());
    let evals_before = world
        .env
        .telemetry()
        .counter(Layer::Query, "query.eval.entry");
    let (changes_before, deltas_before) = (client.changes, client.deltas_emitted);
    let started = Instant::now();
    let ops_before = client.ops;
    let busy_before = client.busy_ns;
    while client.ops < ops_before + phase || client.ops < sizes.digest_ops {
        client.step(&mut world, &mut tr, &mut out, false);
    }
    let untraced_wall = started.elapsed().as_secs_f64();
    let untraced_ops = client.ops - ops_before;
    let (spans_dropped, events_dropped) =
        TelemetryMark::of(world.env.telemetry()).dropped_since(&mark);
    let changes = (client.changes - changes_before) as f64;
    let evals = (world
        .env
        .telemetry()
        .counter(Layer::Query, "query.eval.entry")
        - evals_before) as f64;
    let deltas = (client.deltas_emitted - deltas_before) as f64;
    let delta = std::mem::take(&mut client.delta_ns);
    out.end_to_end = phase_metrics(
        &setup_s,
        untraced_ops,
        client.busy_ns - busy_before,
        &delta,
        client.rss_mib,
    );
    out.detail = vec![
        pct(
            "delta_p50_us",
            out.end_to_end[2].value,
            "us",
            out.end_to_end[2].samples.unwrap_or(0),
        ),
        pct(
            "delta_p99_us",
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
            client.step(&mut world, &mut tr, &mut out, probe);
        }
        let traced_per_op =
            started.elapsed().as_secs_f64() / (client.ops - ops_before).max(1) as f64;
        tr.set_on(false);
        let mut layers = probe_metrics(&tr, &client.offers);
        layers.extend([
            metric("kernel.spans_dropped_ratio", spans_dropped, "ratio"),
            metric("kernel.events_dropped_ratio", events_dropped, "ratio"),
            metric(
                "env.register_app_us_p50",
                tr.p50_us("CscwEnvironment::register_app"),
                "us",
            ),
            metric("directory.modify_us_p50", tr.p50_us("Dit::modify"), "us"),
            metric(
                "directory.search_us_p50",
                tr.p50_us("KnowledgeBase::find_people"),
                "us",
            ),
            metric(
                "query.pump_us_p50",
                tr.p50_us("CscwEnvironment::pump_queries"),
                "us",
            ),
            metric(
                "query.ingest_us_p50",
                tr.p50_us("CscwEnvironment::ingest_replicated"),
                "us",
            ),
            metric(
                "query.subscribe_us_p50",
                tr.p50_us("CscwEnvironment::subscribe"),
                "us",
            ),
            metric("query.evals_per_change", ratio(evals, changes), "count"),
            metric("query.deltas_per_change", ratio(deltas, changes), "count"),
            metric(
                "query.rescans",
                world.env.queries().rescans() as f64,
                "count",
            ),
            metric(
                "trace.overhead_ratio",
                ratio(traced_per_op, untraced_wall / untraced_ops.max(1) as f64),
                "ratio",
            ),
        ]);
        out.per_layer = layers;
        out.tracer = Some(tr);
    }

    verify(&mut world, &client, &mut out);
    out.digest = client.digest.hex();
    out
}

/// End-of-run checks: every result set against brute force and the
/// registry's oracle, the buffered delta stream replayed from the
/// primed sets, the mailboxes' delta counts, and no re-scans.
fn verify(world: &mut World, client: &Client, out: &mut Outcome) {
    let env = &mut world.env;
    let mut oracle = SubscriptionRegistry::new();
    let pairs: Vec<(String, String)> = client
        .shadow
        .knowledge
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    oracle.apply_replicated(&pairs, 0);
    for (s, (id, q)) in world.subs.iter().zip(&client.queries).enumerate() {
        let want = client.shadow.evaluate(*q);
        let got = env.queries().matches(*id).unwrap_or_default();
        out.check(got == want, || {
            format!(
                "subscription {s} ({}): {} members, reference {}",
                q.src(),
                got.len(),
                want.len()
            )
        });
        let oracle_id = oracle
            .subscribe(&q.src(), 0)
            .expect("panel queries compile");
        let oracle_set = oracle
            .oracle_matches(oracle_id, env.knowledge().dit())
            .unwrap_or_default();
        out.check(oracle_set == want, || {
            format!(
                "oracle_matches for {s}: {} members, reference {}",
                oracle_set.len(),
                want.len()
            )
        });
        if let Some(primed) = world.primed.get(id) {
            let mut replay = primed.clone();
            for delta in client.taken.get(&s).into_iter().flatten() {
                match delta {
                    QueryDelta::Added { id } => {
                        out.check(replay.insert(id.clone()), || {
                            format!("sub {s}: {id} added twice")
                        });
                    }
                    QueryDelta::Removed { id } => {
                        out.check(replay.remove(id), || {
                            format!("sub {s}: {id} removed while absent")
                        });
                    }
                    QueryDelta::Changed { id } => {
                        out.check(replay.contains(id), || {
                            format!("sub {s}: {id} changed while absent")
                        });
                    }
                }
            }
            out.check(replay == want, || {
                format!("sub {s}: replayed stream does not reach the final set")
            });
        }
    }
    for (k, want) in client.mailbox_expected.iter().enumerate() {
        let got = env
            .transport_mut()
            .delivered(&app_address(&watcher(k)))
            .iter()
            .filter(|subject| subject.as_str() == "query-delta")
            .count() as u64;
        out.check(got == *want, || {
            format!("watcher{k} mailbox holds {got} deltas, expected {want}")
        });
    }
    let rescans = env.queries().rescans();
    out.check(rescans == 0, || {
        format!("registry re-scanned {rescans} times")
    });
}
