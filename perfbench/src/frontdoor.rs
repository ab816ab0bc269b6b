//! The untraced pass: every operation goes through a public front door
//! (`PdmsNetwork::query`, `publish`, `restart_peer`) and is timed from
//! outside, one closed-loop client, with every answer checked.
//!
//! A measured run repeats its operation list in passes, at least
//! [`MIN_PASSES`] and until `--seconds` of front-door time are spent,
//! and reports each operation's fastest execution. An operation is a
//! query text on the query workloads (with warm caches every repeat of
//! a text in the trace does the same work and returns the same answer)
//! and a place in the round on `publish-durable` (every gram and read
//! meets a different state). Percentiles are over the operations of one
//! pass, so each stays on the same template from run to run, and
//! throughputs are a pass's operations over the sum of their fastest
//! times. On a machine whose cores are shared with other tenants the
//! same CPU loop runs up to 1.7× slower or faster for stretches of ten
//! seconds or more, and contention only ever adds time: an operation
//! repeated through a run of tens of seconds meets a quiet stretch,
//! while its median follows whichever stretch lasted longest.
//!
//! The same drivers serve the traced pass: with [`Budget::Ops`] they run
//! one set-up and the first operations of one pass, and they hand every
//! operation to a [`Hook`] that may replay it.

use crate::stats::{digest, digest_rows, peak_rss_mb, reset_peak_rss};
use crate::workloads::*;
use revere_pdms::{IvmStrategy, Monitor, PdmsNetwork, QueryOutcome, Updategram};
use revere_query::{eval_naive, parse_query, ConjunctiveQuery};
use revere_storage::{Catalog, Relation, Tuple, Value};
use revere_util::obs::Obs;
use std::collections::{BTreeMap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

/// How much of a workload one call drives.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// A measured run: passes over the operation list until this many
    /// seconds of front-door time, with set-up repeated through the run.
    Seconds(f64),
    /// One set-up and the first `n` operations of one pass.
    Ops(usize),
}

/// Passes over the operation list per run, at the least, so every place
/// in a `publish-durable` round has more than one chance at a quiet
/// stretch.
const MIN_PASSES: usize = 2;

/// Set-up samples a measured run takes besides the set-up that serves
/// it, set-ups per sample, and the passes the samples are spread over:
/// one after every `passes × steps per pass / samples`th step, which at
/// each workload's pass length spans about the first 15 s of front-door
/// time. So `setup_s` (their median) is taken under the same
/// conditions as the operations rather than in one burst: on a shared
/// machine a burst of set-ups half a second long reads up to 1.8× apart
/// from one process to the next. The schedule is by step, not by time,
/// so the state each sample shares memory with, and with it
/// `peak_rss_mb`, is seed-pure. An `overlay-cold` set-up takes about a
/// tenth of a millisecond and touches a few dozen kilobytes, which one
/// process's placement in the caches can make 1.5× slower than
/// another's; a sample of 50 set-ups kept alive together is timed as a
/// whole and counts as their mean. The others take 0.1–1.3 s each; the
/// cheapest, `publish-durable`'s, takes the most samples.
fn spread_setups(w: Workload) -> (usize, usize, usize) {
    match w {
        Workload::OverlayCold => (80, 50, 2),
        // Passes of about 11 s.
        Workload::ZipfAnswers => (6, 1, 2),
        // Passes of about 0.35 s.
        Workload::OverlayChaos => (8, 1, 40),
        // Passes of about 5.5 s.
        Workload::PublishDurable => (16, 1, 3),
    }
}

/// Queries per pass of a query workload: p90 needs ten samples beyond it.
/// For the template workloads this is one cycle of the stratified Zipf
/// trace, so every pass has the same template mix.
pub const CYCLE: usize = 100;

/// One front-door query's latency and what it did to the caches.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub dt: Duration,
    pub reformulation_missed: bool,
    pub plan_hits: usize,
    pub plan_misses: usize,
}

impl Call {
    pub fn ms(&self) -> f64 {
        self.dt.as_secs_f64() * 1e3
    }
}

/// A query the front door answered: the `k`th of the pass's stream
/// queries, or of its kind of hub read (scheduled, after a restart).
pub struct Answered<'a> {
    pub k: usize,
    pub label: &'a str,
    pub query: &'a ConjunctiveQuery,
    pub out: &'a QueryOutcome,
    pub call: Call,
}

/// What a driver just did, in order, for a hook that replays it.
pub enum Event<'a> {
    /// The network is set up; no operation has run.
    Ready,
    /// A query answered without error.
    Query(Answered<'a>),
    /// The monitor scraped the overlay at this tick (`overlay-chaos`).
    Scrape(u64),
    /// A gram of the stream was published.
    Publish(&'a Updategram),
    /// The hub checkpointed.
    Checkpoint,
    /// The hub restarted; its first answered query follows.
    Restart,
    /// The pass ended (on `publish-durable`, after the stream's final
    /// checks).
    End,
}

/// Called after every event with the network in its state at that point.
pub type Hook<'h> = &'h mut dyn FnMut(&PdmsNetwork, Event<'_>);

/// Everything a driver measured and checked.
#[derive(Debug, Default)]
pub struct FrontDoor {
    /// Each operation's fastest query latency (ms), by operation id.
    pub query_ms: Vec<f64>,
    /// The label and the operation id of each query of a pass (on
    /// `publish-durable` the scheduled hub reads).
    pub query_label: Vec<String>,
    pub query_op: Vec<usize>,
    /// Per-gram fastest `publish` latency (µs).
    pub publish_us: Vec<f64>,
    /// Per-restart fastest `restart_peer` plus first answered query (ms).
    pub restart_ms: Vec<f64>,
    /// Per-operation fastest time of every other front-door operation
    /// that counts toward `ops_per_s` (monitor scrapes, checkpoints), ms.
    pub other_ms: Vec<f64>,
    /// Time spent inside front-door calls over all passes.
    pub busy: Duration,
    pub passes: usize,
    /// Front-door seconds of each pass.
    pub pass_s: Vec<f64>,
    /// Operations per pass, and operations attempted over all passes.
    pub ops_per_pass: usize,
    pub ops: usize,
    pub failed: usize,
    pub coverage: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Reformulation-cache misses and plan-cache lookups of the timed
    /// queries.
    pub reformulation_misses: usize,
    pub plan_hits: usize,
    pub plan_misses: usize,
    /// Messages lost to the fault plan over the timed queries.
    pub messages_dropped: usize,
    /// Seed-pure digest of the first pass's counters after each of its
    /// steps (a query, or a gram with the operations it schedules).
    pub prefix: Vec<u64>,
    /// The first pass's digest, end-of-stream checks included.
    pub fingerprint: u64,
    /// Steps per pass, and steps taken over all passes.
    steps_per_pass: usize,
    steps: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl FrontDoor {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// The fastest latency of each query of a pass (ms), in pass order.
    pub fn query_fastest(&self) -> Vec<f64> {
        self.query_op.iter().map(|&o| self.query_ms[o]).collect()
    }

    /// True while a run must make another pass.
    fn wants_pass(&self, budget: Budget) -> bool {
        match budget {
            Budget::Seconds(s) => self.passes < MIN_PASSES || self.busy.as_secs_f64() < s,
            Budget::Ops(_) => self.passes == 0,
        }
    }

    /// Close a pass that started at `busy0` of front-door time.
    fn end_pass(&mut self, busy0: Duration) {
        self.passes += 1;
        self.pass_s.push((self.busy - busy0).as_secs_f64());
    }

    /// Close a step of a pass: the first pass records its digest.
    fn end_step(&mut self, fp: u64) {
        self.steps += 1;
        if self.passes == 0 {
            self.prefix.push(fp);
            self.fingerprint = fp;
        }
    }

    /// The seed-pure digest after the first `n` steps of the first pass;
    /// a run that made exactly `n` steps gives its whole-pass digest.
    pub fn fingerprint_at(&self, n: usize) -> Option<u64> {
        if n == self.prefix.len() {
            Some(self.fingerprint)
        } else {
            self.prefix.get(n.checked_sub(1)?).copied()
        }
    }

    /// Set up once, timed.
    fn set_up<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.setup_s.push(t.elapsed().as_secs_f64());
        out
    }

    /// After a measured run's step, take the next of the run's set-up
    /// samples when it is due: `batch` set-ups kept alive together,
    /// timed as a whole and thrown away, recorded as their mean.
    fn spread_setup<T>(&mut self, w: Workload, budget: Budget, setup: impl Fn() -> T) {
        let (samples, batch, passes) = spread_setups(w);
        let every = (passes * self.steps_per_pass / samples).max(1);
        if matches!(budget, Budget::Seconds(_))
            && self.steps.is_multiple_of(every)
            && self.steps / every <= samples
        {
            // The thrown-away networks are not part of the workload's
            // resident set: keep the peak so far and restart it after.
            self.peak_rss_mb = self.peak_rss_mb.max(peak_rss_mb());
            let t = Instant::now();
            let copies: Vec<T> = (0..batch).map(|_| setup()).collect();
            self.setup_s.push(t.elapsed().as_secs_f64() / batch as f64);
            drop(std::hint::black_box(copies));
            reset_peak_rss();
        }
    }
}

/// Keep the fastest observation of operation `i`.
fn keep_min(xs: &mut Vec<f64>, i: usize, x: f64) {
    if i == xs.len() {
        xs.push(x);
    } else if x < xs[i] {
        xs[i] = x;
    }
}

/// Ask one query at the front door, timed, with its cache verdicts.
pub fn ask(
    net: &PdmsNetwork,
    at: &str,
    q: &ConjunctiveQuery,
) -> (Result<QueryOutcome, String>, Call) {
    let s0 = net.cache_stats();
    let t = Instant::now();
    let out = net.query(at, q);
    let dt = t.elapsed();
    let s1 = net.cache_stats();
    let call = Call {
        dt,
        reformulation_missed: s1.reformulation_misses > s0.reformulation_misses || !net.caching,
        plan_hits: s1.plan_hits - s0.plan_hits,
        plan_misses: s1.plan_misses - s0.plan_misses,
    };
    (out, call)
}

/// Build a query workload's network with warm caches: every template of
/// the trace is asked once, so its reformulation and plans are cached.
fn warm_network(w: Workload, warm: &[QuerySpec]) -> PdmsNetwork {
    let net = network(w);
    for q in warm {
        net.query_str(QUERY_PEER, &q.text)
            .expect("warm-up query runs");
    }
    net
}

/// The query stream of a query workload (one pass) and the templates to
/// warm.
pub fn query_stream(w: Workload, seed: u64) -> (Vec<QuerySpec>, Vec<QuerySpec>) {
    match w {
        Workload::ZipfAnswers => template_trace(
            ZIPF_TEMPLATES,
            &zipf_cycle(ZIPF_TEMPLATES, ZIPF_SKEW, CYCLE, seed),
        ),
        Workload::OverlayChaos => template_trace(
            CHAOS_TEMPLATES,
            &zipf_cycle(CHAOS_TEMPLATES, CHAOS_SKEW, CYCLE, seed),
        ),
        Workload::OverlayCold => (Vec::new(), cold_queries(CYCLE, seed)),
        Workload::PublishDurable => unreachable!("not a query workload"),
    }
}

/// The answers every query must return, keyed by query text. Templates
/// are checked against a cache-off twin of the network (same overlay,
/// same fault plan, computed outside the timing and outside `setup_s`).
/// Cold queries are checked against an independent oracle instead — the
/// naive evaluator over the union of every peer's `course` rows, which
/// is what the identity mappings make each query's certain answer — as a
/// cache-off twin would pay the same reformulation cost as the query.
struct Reference {
    by_text: HashMap<String, (usize, u64)>,
}

impl Reference {
    fn new(w: Workload, warm: &[QuerySpec], stream: &[QuerySpec]) -> Reference {
        let by_text = if w == Workload::OverlayCold {
            let union = union_catalog(&network(w));
            stream
                .iter()
                .map(|q| {
                    let cq = parse_query(&q.text).expect("stream query parses");
                    (
                        q.text.clone(),
                        digest(&eval_naive(&cq, &union).expect("oracle evaluates")),
                    )
                })
                .collect()
        } else {
            let mut twin = network(w);
            twin.caching = false;
            warm.iter()
                .map(|q| {
                    let out = twin
                        .query_str(QUERY_PEER, &q.text)
                        .expect("reference query runs");
                    (q.text.clone(), digest(&out.answers))
                })
                .collect()
        };
        Reference { by_text }
    }

    fn expected(&self, text: &str) -> (usize, u64) {
        self.by_text[text]
    }
}

/// One catalog whose `P0.course` holds every peer's `course` rows.
fn union_catalog(net: &PdmsNetwork) -> Catalog {
    let p0 = format!("{QUERY_PEER}.course");
    let schema = net
        .peer(QUERY_PEER)
        .and_then(|p| p.snapshot(&p0))
        .expect("P0 stores course")
        .schema;
    let rows = net
        .peer_names()
        .filter_map(|p| {
            net.peer(p)
                .and_then(|peer| peer.snapshot(&format!("{p}.course")))
        })
        .flat_map(Relation::into_rows)
        .collect();
    let mut union = Catalog::new();
    union.register(Relation::with_rows(schema, rows));
    union
}

/// Mix seed-pure counters into a running fingerprint.
fn mix(fp: &mut u64, parts: &[u64]) {
    let mut h = DefaultHasher::new();
    fp.hash(&mut h);
    parts.hash(&mut h);
    *fp = h.finish();
}

/// The seed-pure counters of one query outcome, mixed into `fp`.
fn mix_query(fp: &mut u64, k: usize, out: &QueryOutcome) {
    let got = digest(&out.answers);
    mix(
        fp,
        &[
            k as u64,
            got.0 as u64,
            got.1,
            out.reformulation.union.disjuncts.len() as u64,
            out.tuples_shipped as u64,
            out.messages as u64,
            out.completeness.coverage().to_bits(),
        ],
    );
}

/// Drive a query workload at `seed` under `budget`, with the network's
/// observability set to `obs` once it is set up.
fn run_queries(w: Workload, seed: u64, budget: Budget, obs: Obs, hook: Hook) -> FrontDoor {
    let mut fd = FrontDoor::default();
    let (warm, stream) = query_stream(w, seed);
    let parsed: Vec<ConjunctiveQuery> = stream
        .iter()
        .map(|q| parse_query(&q.text).expect("stream query parses"))
        .collect();
    let reference = Reference::new(w, &warm, &stream);
    reset_peak_rss();
    let mut net = fd.set_up(|| warm_network(w, &warm));
    net.obs = obs;
    hook(&net, Event::Ready);
    let cold = w == Workload::OverlayCold;
    let mut monitor = (w == Workload::OverlayChaos).then(Monitor::default);
    fd.ops_per_pass = match budget {
        Budget::Seconds(_) => stream.len(),
        Budget::Ops(n) => n.min(stream.len()),
    };
    fd.steps_per_pass = fd.ops_per_pass;
    fd.query_label = stream
        .iter()
        .take(fd.ops_per_pass)
        .map(|q| q.label.clone())
        .collect();
    // A query's operation is its text, numbered in order of first use.
    let mut ids: HashMap<&str, usize> = HashMap::new();
    for q in stream.iter().take(fd.ops_per_pass) {
        let next = ids.len();
        fd.query_op.push(*ids.entry(&q.text).or_insert(next));
    }
    let stats0 = net.cache_stats();
    let mut tick = 0u64;
    while fd.wants_pass(budget) {
        if cold {
            // Every pass asks the same never-seen queries again.
            net.clear_caches();
        }
        let busy0 = fd.busy;
        let mut fp = 0u64;
        for (k, q) in parsed.iter().enumerate().take(fd.ops_per_pass) {
            let (out, call) = ask(&net, QUERY_PEER, q);
            fd.busy += call.dt;
            fd.ops += 1;
            keep_min(&mut fd.query_ms, fd.query_op[k], call.ms());
            if let Some(m) = monitor.as_mut() {
                let t = Instant::now();
                m.scrape(&net, tick);
                let dt = t.elapsed();
                fd.busy += dt;
                keep_min(&mut fd.other_ms, k, dt.as_secs_f64() * 1e3);
            }
            if call.reformulation_missed {
                fd.reformulation_misses += 1;
            }
            if cold && !call.reformulation_missed {
                fd.fail(format!(
                    "cold query {k} did not miss the reformulation cache"
                ));
            }
            match out {
                Err(e) => fd.fail(format!("query {k} errored: {e}")),
                Ok(out) => {
                    if digest(&out.answers) != reference.expected(&stream[k].text) {
                        fd.fail(format!(
                            "query {k} ({}) answers differ from the reference",
                            stream[k].label
                        ));
                    }
                    fd.coverage.push(out.completeness.coverage());
                    fd.messages_dropped += out.completeness.messages_dropped;
                    mix_query(&mut fp, k, &out);
                    let answered = Answered {
                        k,
                        label: &stream[k].label,
                        query: q,
                        out: &out,
                        call,
                    };
                    hook(&net, Event::Query(answered));
                }
            }
            if monitor.is_some() {
                hook(&net, Event::Scrape(tick));
            }
            tick += 1;
            fd.end_step(fp);
            fd.spread_setup(w, budget, || warm_network(w, &warm));
        }
        fd.end_pass(busy0);
    }
    if !cold {
        let stats = net.cache_stats();
        fd.plan_hits = stats.plan_hits - stats0.plan_hits;
        fd.plan_misses = stats.plan_misses - stats0.plan_misses;
    }
    if w == Workload::OverlayChaos
        && fd.messages_dropped == 0
        && fd.coverage.iter().all(|&c| c == 1.0)
    {
        fd.fail("overlay-chaos injected no fault".into());
    }
    hook(&net, Event::End);
    fd.peak_rss_mb = fd.peak_rss_mb.max(peak_rss_mb());
    fd
}

/// The bench's own model of `Hub.r ⋈ Hub.s`: the expected answer of the
/// hub query after any prefix of the stream, computed independently of
/// the program's evaluators.
struct HubModel {
    r: BTreeMap<(i64, i64), usize>,
    s: BTreeMap<i64, Vec<i64>>,
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("hub relations hold integers")
}

impl HubModel {
    fn new(net: &PdmsNetwork) -> HubModel {
        let hub = net.peer(HUB).expect("hub exists");
        let mut r = BTreeMap::new();
        for row in hub.snapshot("Hub.r").expect("hub stores r").iter() {
            *r.entry((int(&row[0]), int(&row[1]))).or_insert(0) += 1;
        }
        let mut s: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for row in hub.snapshot("Hub.s").expect("hub stores s").iter() {
            s.entry(int(&row[0])).or_default().push(int(&row[1]));
        }
        HubModel { r, s }
    }

    fn apply(&mut self, gram: &Updategram) {
        for row in &gram.insert {
            *self.r.entry((int(&row[0]), int(&row[1]))).or_insert(0) += 1;
        }
        for row in &gram.delete {
            self.r.remove(&(int(&row[0]), int(&row[1])));
        }
    }

    fn answer_digest(&self) -> (usize, u64) {
        let mut out = std::collections::BTreeSet::new();
        for &(a, b) in self.r.keys() {
            for &c in self.s.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                out.insert((a, c));
            }
        }
        let rows: Vec<Tuple> = out
            .into_iter()
            .map(|(a, c)| vec![Value::Int(a), Value::Int(c)])
            .collect();
        digest_rows(rows.iter())
    }
}

/// A durable hub with every subscriber registered.
fn hub_with_subscribers() -> PdmsNetwork {
    let mut net = hub_network();
    net.enable_durability(HUB).expect("hub exists");
    for i in 0..SUBSCRIBERS {
        net.subscribe(HUB, &format!("sub{i:03}"), HUB_QUERY, IvmStrategy::Dataflow)
            .expect("subscription registers");
    }
    net
}

/// Check every subscription's maintained answers against a one-shot
/// answer of the same definition.
fn check_subscriptions(fd: &mut FrontDoor, net: &PdmsNetwork, one_shot: (usize, u64), at: &str) {
    for name in net.subscription_names() {
        let sub = net.subscription(name).expect("listed");
        if digest(&sub.answers()) != one_shot {
            fd.fail(format!("{name} diverged from the one-shot query {at}"));
        }
    }
}

/// Check a hub query's answers against the model, if there is one, and
/// hand it to the hook; returns the digest when it matches.
#[allow(clippy::too_many_arguments)]
fn check_read(
    fd: &mut FrontDoor,
    net: &PdmsNetwork,
    (out, call): (Result<QueryOutcome, String>, Call),
    q: &ConjunctiveQuery,
    (label, k): (&str, usize),
    model: Option<&HubModel>,
    fp: &mut u64,
    hook: Hook,
) -> Option<(usize, u64)> {
    let out = match out {
        Err(e) => {
            fd.fail(format!("hub query ({label}) errored: {e}"));
            return None;
        }
        Ok(out) => out,
    };
    let got = digest(&out.answers);
    fd.coverage.push(out.completeness.coverage());
    mix(fp, &[got.0 as u64, got.1]);
    hook(
        net,
        Event::Query(Answered {
            k,
            label,
            query: q,
            out: &out,
            call,
        }),
    );
    let model = model?;
    if got == model.answer_digest() {
        Some(got)
    } else {
        fd.fail(format!("hub query ({label}) differs from the model"));
        None
    }
}

/// Drive `publish-durable` at `seed` under `budget`. A measured run's
/// pass is one whole stream round on a freshly set-up hub, the same
/// grams every pass. The first pass compares every read against the
/// model and every subscription against the read at each restart and at
/// the end; every later pass must reproduce the first one's seed-pure
/// counters exactly.
fn run_publish(seed: u64, budget: Budget, obs: Obs, hook: Hook) -> FrontDoor {
    const W: Workload = Workload::PublishDurable;
    let mut fd = FrontDoor::default();
    let hub_q = parse_query(HUB_QUERY).expect("hub query parses");
    let grams = gram_stream(ROUND_GRAMS, seed);
    let steps = match budget {
        Budget::Seconds(_) => ROUND_GRAMS,
        Budget::Ops(n) => n.min(ROUND_GRAMS),
    };
    fd.steps_per_pass = steps;
    fd.ops_per_pass =
        steps + steps / QUERY_EVERY + steps / CHECKPOINT_EVERY + steps / RESTART_EVERY;
    reset_peak_rss();
    let mut net = fd.set_up(hub_with_subscribers);
    loop {
        net.obs = obs.clone();
        hook(&net, Event::Ready);
        let busy0 = fd.busy;
        let mut model = (fd.passes == 0).then(|| HubModel::new(&net));
        let mut fp = 0u64;
        let (mut reads, mut restarts, mut checkpoints) = (0, 0, 0);
        for (g, gram) in grams.iter().enumerate().take(steps) {
            let t = Instant::now();
            let report = net.publish(gram);
            let dt = t.elapsed();
            fd.busy += dt;
            fd.ops += 1;
            keep_min(&mut fd.publish_us, g, dt.as_secs_f64() * 1e6);
            if let Some(m) = model.as_mut() {
                m.apply(gram);
            }
            match report {
                Err(e) => fd.fail(format!("publish {g} errored: {e}")),
                Ok(r) => mix(
                    &mut fp,
                    &[r.refreshed.len() as u64, r.output_changes as u64],
                ),
            }
            hook(&net, Event::Publish(gram));
            let n = g + 1;
            if n % QUERY_EVERY == 0 {
                let read = ask(&net, HUB, &hub_q);
                fd.busy += read.1.dt;
                fd.ops += 1;
                keep_min(&mut fd.query_ms, reads, read.1.ms());
                if fd.passes == 0 {
                    fd.query_label.push("hub-join".into());
                    fd.query_op.push(reads);
                }
                let what = ("hub-join", reads);
                let at = model.as_ref();
                check_read(&mut fd, &net, read, &hub_q, what, at, &mut fp, &mut *hook);
                reads += 1;
            }
            if n % CHECKPOINT_EVERY == 0 {
                let t = Instant::now();
                let ok = net.checkpoint_peer(HUB).is_some();
                let dt = t.elapsed();
                fd.busy += dt;
                fd.ops += 1;
                keep_min(&mut fd.other_ms, checkpoints, dt.as_secs_f64() * 1e3);
                checkpoints += 1;
                if !ok {
                    fd.fail(format!("checkpoint after gram {g} failed"));
                }
                hook(&net, Event::Checkpoint);
            }
            if n % RESTART_EVERY == 0 {
                let t = Instant::now();
                let recovered = net.restart_peer(HUB);
                let read = ask(&net, HUB, &hub_q);
                let dt = t.elapsed();
                fd.busy += dt;
                fd.ops += 1;
                keep_min(&mut fd.restart_ms, restarts, dt.as_secs_f64() * 1e3);
                match recovered {
                    None => fd.fail(format!("restart after gram {g} failed")),
                    Some(r) => mix(&mut fp, &[r.replayed as u64]),
                }
                hook(&net, Event::Restart);
                let what = ("after-restart", restarts);
                restarts += 1;
                let at = model.as_ref();
                if let Some(d) =
                    check_read(&mut fd, &net, read, &hub_q, what, at, &mut fp, &mut *hook)
                {
                    let at = format!("at the restart after gram {g}");
                    check_subscriptions(&mut fd, &net, d, &at);
                }
            }
            fd.end_step(fp);
            fd.spread_setup(W, budget, hub_with_subscribers);
        }
        let end = ask(&net, HUB, &hub_q);
        let mut end_fp = fp;
        if let Some(d) = check_read(
            &mut fd,
            &net,
            end,
            &hub_q,
            ("end-of-stream", 0),
            model.as_ref(),
            &mut end_fp,
            &mut |_, _| {},
        ) {
            check_subscriptions(&mut fd, &net, d, "at the end of the stream");
        }
        if steps == ROUND_GRAMS {
            for name in net.subscription_names() {
                let sub = net.subscription(name).expect("listed");
                mix(&mut fp, &[sub.work(), sub.arranged_tuples() as u64]);
            }
        }
        hook(&net, Event::End);
        if fd.passes == 0 {
            fd.fingerprint = fp;
        } else if fp != fd.fingerprint {
            fd.fail(format!(
                "pass {} did not repeat the first pass's counters",
                fd.passes
            ));
        }
        fd.end_pass(busy0);
        if !fd.wants_pass(budget) {
            break;
        }
        drop(net);
        // Memory freed by the last hub is reused by the next: the peak
        // stays one hub's.
        net = fd.set_up(hub_with_subscribers);
    }
    fd.peak_rss_mb = fd.peak_rss_mb.max(peak_rss_mb());
    fd
}

/// Drive workload `w`.
pub fn drive(w: Workload, seed: u64, budget: Budget, obs: Obs, hook: Hook) -> FrontDoor {
    match w {
        Workload::PublishDurable => run_publish(seed, budget, obs, hook),
        _ => run_queries(w, seed, budget, obs, hook),
    }
}
