//! The traced pass: the run's first operations go through the front door
//! once more, driven by the same code as the measured run and timed the
//! same way, and each one is then replayed through the public functions
//! of the layers it crosses, each call inside a
//! `revere_util::obs::Tracer` span opened here. Nothing inside the
//! program is instrumented for this; the per-layer split is measured
//! from outside, and a layer's time is its span's self time.
//!
//! A query replays as: `Reformulator::reformulate` → per relation
//! `Peer::snapshot` + `Catalog::register` (with the owner's learned join
//! statistics) → `Catalog::batch` (the columnar pivot) → per disjunct
//! `plan_cq`, the bindings kernel, the full evaluation, `distinct` → the
//! union merge and its final `distinct`. A monitor scrape replays on a
//! second `Monitor` at the same tick. A publish replays on a twin of the
//! hub: the journal scan, `gram_to_batch`, `apply_updategrams`, and
//! `Circuit::push` for every subscriber; checkpoints and restarts replay
//! `durable::checkpoint` and `durable::recover` on the twin's disk.
//!
//! The attribution compares the layers' times for the template that sets
//! the untraced `query_p50_ms` with that p50; the gap is what no replayed
//! layer accounts for (the feedback loop, cache and accounting locks,
//! journal bookkeeping) plus the two passes' difference in conditions.

use crate::frontdoor::{ask, drive, query_stream, Answered, Budget, Event, FrontDoor, CYCLE};
use crate::report::Metrics;
use crate::stats::{digest, percentile, rank_index, total};
use crate::workloads::*;
use revere_pdms::durable::{self, PeerDisk};
use revere_pdms::peer::split_qualified;
use revere_pdms::{apply_updategrams, gram_to_batch, Monitor, PdmsNetwork, Reformulator};
use revere_query::dataflow::Circuit;
use revere_query::plan::plan_cq;
use revere_query::{
    eval_cq_bag_profiled_obs_mode, eval_cq_bindings_mode, parse_query, ConjunctiveQuery, ExecMode,
};
use revere_storage::{Catalog, Relation};
use revere_util::obs::{names, Obs, Span, SpanHandle, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Queries replayed on `overlay-cold` (each pays two reformulation misses:
/// the front door's and the replay's).
const COLD_REPLAY: usize = 24;
/// Queries compared against another seed's in the determinism check.
const PREFIX: usize = 10;
/// Times the query that sets the untraced p50 is asked again and
/// replayed after the traced pass: the untraced p50 is the fastest of
/// many executions seconds apart, and one replay can land in a slow
/// spell of a shared machine.
const P50_REPEATS: usize = 12;

/// What the traced pass adds to the run's report.
pub struct Traced {
    pub metrics: Metrics,
    pub text: String,
    pub attempted: usize,
    pub failed: usize,
}

/// Run `f` inside a child span of `parent` named after the layer call;
/// returns its result and wall time in ms (also stamped on the span).
fn timed<T>(parent: &Span, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = parent.child(name);
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    span.set("wall_us", format!("{:.1}", ms * 1e3));
    span.finish();
    (out, ms)
}

/// The layers a query's front-door time is charged to, in replay order.
#[derive(Debug, Clone, Copy)]
enum L {
    Reformulate,
    Snapshot,
    Register,
    Pivot,
    Plan,
    Bindings,
    Materialize,
    Distinct,
    Merge,
    FinalDistinct,
}

const CHARGED: [&str; 10] = [
    "pdms.reformulate (misses only)",
    "storage.snapshot",
    "storage.catalog.register",
    "storage.column.pivot",
    "query.plan (cache misses only)",
    "query.vec.bindings (kernel)",
    "query.eval materialize",
    "storage.relation.distinct",
    "query.eval.union_merge",
    "query.eval.final_distinct",
];

/// One replayed query: its template, its front-door time, and the time
/// charged to each layer.
#[derive(Debug, Clone)]
struct Charged {
    label: String,
    front_ms: f64,
    ms: [f64; CHARGED.len()],
}

impl Charged {
    fn layers(&self) -> f64 {
        total(&self.ms)
    }
}

/// Per-layer records and sums over the replayed queries.
#[derive(Debug, Default)]
struct QueryLayers {
    charged: Vec<Charged>,
    /// Every replay's planning time, and the plans made.
    plan_ms: f64,
    plans: usize,
    disjuncts: usize,
    nodes_expanded: usize,
    candidates: usize,
    bindings: usize,
    rows_materialized: usize,
    rows_into_final: usize,
    answers: usize,
    reformulation_hits: usize,
    plan_hits: usize,
    plan_lookups: usize,
    tuples_shipped: usize,
    messages: usize,
    retries: usize,
    dropped: usize,
    latency_ticks: u64,
    scrape_ms: f64,
    scrapes: usize,
}

impl QueryLayers {
    fn queries(&self) -> usize {
        self.charged.len()
    }

    /// Mean ms per replayed query charged to layer `l`.
    fn mean(&self, l: L) -> f64 {
        per(
            self.charged.iter().map(|c| c.ms[l as usize]).sum(),
            self.queries(),
        )
    }
}

/// Replay one answered query through the layers under a root span;
/// returns an error when the replay's answers differ from the front
/// door's.
fn replay_query(
    net: &PdmsNetwork,
    reformulator: &Reformulator,
    tracer: &Tracer,
    a: &Answered,
    acc: &mut QueryLayers,
) -> Result<(), String> {
    let (label, front) = (a.label, a.out);
    let mut ms = [0.0; CHARGED.len()];
    let root = tracer.span("query");
    root.set("template", label);
    root.set("frontdoor_us", format!("{:.1}", a.call.ms() * 1e3));
    let (r, reformulate_ms) = timed(&root, "pdms.reformulate", || {
        reformulator.reformulate(a.query)
    });
    let keys = |u: &revere_query::UnionQuery| -> Vec<String> {
        u.disjuncts
            .iter()
            .map(ConjunctiveQuery::canonical_key)
            .collect()
    };
    if keys(&r.union) != keys(&front.reformulation.union) {
        return Err(format!(
            "{label}: replayed reformulation differs from the front door's"
        ));
    }
    let missing = &front.completeness.relations_missing;
    let mut staging = Catalog::new();
    let mut staged: Vec<String> = Vec::new();
    let mut seen = BTreeSet::new();
    for atom in r.union.disjuncts.iter().flat_map(|d| &d.body) {
        if !seen.insert(atom.relation.as_str()) || missing.contains(&atom.relation) {
            continue;
        }
        let Some(peer) = split_qualified(&atom.relation).and_then(|(owner, _)| net.peer(owner))
        else {
            continue;
        };
        let (rel, t) = timed(&root, "storage.snapshot", || peer.snapshot(&atom.relation));
        ms[L::Snapshot as usize] += t;
        let Some(rel) = rel else { continue };
        let ((), t) = timed(&root, "storage.catalog.register", || {
            staging.register(rel);
            let learned = peer
                .storage
                .read(|c| c.join_stats().mentioning(&atom.relation));
            if !learned.is_empty() {
                staging.absorb_join_stats(&learned);
            }
        });
        ms[L::Register as usize] += t;
        staged.push(atom.relation.clone());
    }
    if net.exec_mode == ExecMode::Vectorized {
        for name in &staged {
            ms[L::Pivot as usize] += timed(&root, "storage.column.pivot", || staging.batch(name)).1;
        }
    }
    let (mut plan_ms, mut full_ms) = (0.0, 0.0);
    let mut merged: Option<Relation> = None;
    for d in &r.union.disjuncts {
        // The front door's evaluator skips a disjunct whose relations
        // were not staged (its evaluation errs); so does the replay.
        if d.body.iter().any(|a| staging.get(&a.relation).is_none()) {
            continue;
        }
        let span = root.child("query.disjunct");
        let (plan, t) = timed(&span, "query.plan", || plan_cq(d, &staging));
        plan_ms += t;
        acc.plans += 1;
        let none = SpanHandle::none();
        let off = Obs::disabled();
        let (kernel, t) = timed(&span, "query.vec.bindings", || {
            eval_cq_bindings_mode(d, &plan, &staging, &off, &none, net.exec_mode)
        });
        ms[L::Bindings as usize] += t;
        let (full, t) = timed(&span, "query.eval.full", || {
            eval_cq_bag_profiled_obs_mode(d, &plan, &staging, &off, &none, net.exec_mode)
        });
        full_ms += t;
        let (Ok((n, _)), Ok((rel, _))) = (kernel, full) else {
            continue;
        };
        acc.bindings += n;
        acc.rows_materialized += rel.len();
        let (rel, t) = timed(&span, "storage.relation.distinct", || rel.distinct());
        ms[L::Distinct as usize] += t;
        acc.rows_into_final += rel.len();
        let (m, t) = timed(&span, "query.eval.union_merge", || match merged.take() {
            None => rel,
            Some(a) => {
                let schema = a.schema.clone();
                let mut rows = a.into_rows();
                rows.extend(rel.into_rows());
                Relation::with_rows(schema, rows)
            }
        });
        ms[L::Merge as usize] += t;
        merged = Some(m);
        span.finish();
    }
    let (answers, t) = timed(&root, "query.eval.final_distinct", || {
        merged.map(|m| m.distinct())
    });
    ms[L::FinalDistinct as usize] = t;
    root.finish();
    let got = match &answers {
        Some(a) => digest(a),
        None => digest(&Relation::new(front.answers.schema.clone())),
    };
    if got != digest(&front.answers) {
        return Err(format!(
            "{label}: replayed answers differ from the front door's"
        ));
    }
    // Reformulation and planning are charged only where the front door
    // paid them: on its cache misses.
    let lookups = a.call.plan_hits + a.call.plan_misses;
    if lookups > 0 {
        ms[L::Plan as usize] = plan_ms * a.call.plan_misses as f64 / lookups as f64;
    }
    if a.call.reformulation_missed {
        ms[L::Reformulate as usize] = reformulate_ms;
    }
    ms[L::Materialize as usize] = full_ms - ms[L::Bindings as usize];
    acc.charged.push(Charged {
        label: label.to_string(),
        front_ms: a.call.ms(),
        ms,
    });
    acc.plan_ms += plan_ms;
    acc.disjuncts += r.union.disjuncts.len();
    acc.nodes_expanded += r.nodes_expanded;
    acc.candidates += r.candidates_generated;
    acc.answers += front.answers.len();
    acc.reformulation_hits += usize::from(!a.call.reformulation_missed);
    acc.plan_hits += a.call.plan_hits;
    acc.plan_lookups += lookups;
    acc.tuples_shipped += front.tuples_shipped;
    acc.messages += front.messages;
    acc.retries += front.completeness.retries;
    acc.dropped += front.completeness.messages_dropped;
    acc.latency_ticks += front.completeness.latency_ticks;
    Ok(())
}

/// Per-layer sums over the replayed publish stream.
#[derive(Debug, Default)]
struct PublishLayers {
    scan_ms: f64,
    sign_ms: f64,
    apply_ms: f64,
    push_ms: f64,
    records_retained: usize,
    append_bytes: usize,
    checkpoints: usize,
    checkpoint_ms: f64,
    restarts: usize,
    recover_ms: f64,
    replayed_records: usize,
    work: u64,
    arranged_tuples: usize,
}

/// The bench's twin of the durable hub: its own disk, journaled catalog,
/// mirrored subscription base, and one circuit per subscriber.
struct HubTwin {
    disk: PeerDisk,
    catalog: Catalog,
    base: Catalog,
    circuits: Vec<Circuit>,
}

impl HubTwin {
    fn new(net: &PdmsNetwork) -> HubTwin {
        let disk = PeerDisk::new();
        let mut catalog = net
            .peer(HUB)
            .expect("hub exists")
            .storage
            .read(Catalog::clone);
        catalog.attach_journal(disk.journal());
        durable::checkpoint(&disk, &mut catalog, &[], &[]);
        let base = catalog.clone();
        let q = parse_query(HUB_QUERY).expect("hub query parses");
        let union = Reformulator::new(Vec::new(), net.options.clone())
            .reformulate(&q)
            .union;
        let mut circuits = Vec::new();
        for _ in 0..SUBSCRIBERS {
            for d in &union.disjuncts {
                let mut c = Circuit::new(d, &plan_cq(d, &base)).expect("hub circuit compiles");
                c.init_full(&base).expect("hub circuit initializes");
                circuits.push(c);
            }
        }
        HubTwin {
            disk,
            catalog,
            base,
            circuits,
        }
    }

    /// Replay gram `g` under a root span.
    fn publish(&mut self, tracer: &Tracer, gram: &revere_pdms::Updategram, pl: &mut PublishLayers) {
        let root = tracer.span("publish");
        let (records, ms) = timed(&root, "storage.wal.scan", || self.disk.journal().records());
        pl.scan_ms += ms;
        pl.records_retained += records.len();
        drop(records);
        let (batch, ms) = timed(&root, "pdms.updategram.sign", || {
            gram_to_batch(&self.base, gram)
        });
        pl.sign_ms += ms;
        let bytes0 = self.disk.journal().byte_len();
        let ((), ms) = timed(&root, "pdms.updategram.apply", || {
            apply_updategrams(&mut self.catalog, std::slice::from_ref(gram));
            apply_updategrams(&mut self.base, std::slice::from_ref(gram));
        });
        pl.apply_ms += ms;
        pl.append_bytes += self.disk.journal().byte_len().saturating_sub(bytes0);
        let ((), ms) = timed(&root, "query.dataflow.push", || {
            for c in &mut self.circuits {
                c.push(&batch);
            }
        });
        pl.push_ms += ms;
        root.finish();
    }

    /// The twin's end state against the front door's: the base relation,
    /// and every subscription against the twin's circuits.
    fn compare(&self, net: &PdmsNetwork, pl: &mut PublishLayers, failures: &mut Vec<String>) {
        let front_r = net
            .peer(HUB)
            .and_then(|p| p.snapshot("Hub.r"))
            .map(|r| digest(&r.sorted()));
        if front_r != self.catalog.get("Hub.r").map(|r| digest(&r.sorted())) {
            failures.push("twin hub relation r diverged from the front door's".into());
        }
        let names: Vec<&str> = net.subscription_names().collect();
        let Some(first) = names.first().and_then(|n| net.subscription(n)) else {
            return;
        };
        let mut rows = Vec::new();
        for c in self.circuits.iter().take(self.circuits.len() / SUBSCRIBERS) {
            rows.extend(c.output_set().into_rows());
        }
        let twin_answers = digest(&Relation::with_rows(first.answers().schema, rows).distinct());
        for name in names {
            let sub = net.subscription(name).expect("listed");
            pl.work += sub.work();
            pl.arranged_tuples += sub.arranged_tuples();
            if digest(&sub.answers()) != twin_answers {
                failures.push(format!("{name} differs from the twin's circuits"));
            }
        }
    }
}

/// The hook the traced pass hands the driver: replays every event.
struct Replayer<'t> {
    w: Workload,
    tracer: &'t Tracer,
    reformulator: Option<Reformulator>,
    monitor: Option<Monitor>,
    twin: Option<HubTwin>,
    ql: QueryLayers,
    pl: PublishLayers,
    /// The query that sets the untraced p50: its template and its place
    /// in the pass (among the hub-join reads on `publish-durable`).
    p50: Option<(String, usize)>,
    /// The same query to ask again once the pass ends, and the peer to
    /// ask it at (none where the answer depends on when it is asked).
    p50_repeat: Option<(ConjunctiveQuery, &'static str)>,
    /// The p50 query's replay in the pass, and its repetitions.
    p50_runs: QueryLayers,
    p50_asked: usize,
    failures: Vec<String>,
}

impl<'t> Replayer<'t> {
    fn new(
        w: Workload,
        tracer: &'t Tracer,
        p50: Option<(String, usize)>,
        p50_repeat: Option<(ConjunctiveQuery, &'static str)>,
    ) -> Self {
        Replayer {
            w,
            tracer,
            reformulator: None,
            monitor: None,
            twin: None,
            ql: QueryLayers::default(),
            pl: PublishLayers::default(),
            p50,
            p50_repeat,
            p50_runs: QueryLayers::default(),
            p50_asked: 0,
            failures: Vec::new(),
        }
    }

    /// Ask the p50 query again, each time replayed (under a tracer of
    /// its own, so the run's trace holds only the pass).
    fn repeat_p50(&mut self, net: &PdmsNetwork) {
        let (Some((q, at)), Some((label, k))) = (self.p50_repeat.take(), self.p50.clone()) else {
            return;
        };
        let r = self.reformulator.as_ref().expect("ready");
        let tracer = Tracer::new();
        for _ in 0..P50_REPEATS {
            if self.w == Workload::OverlayCold {
                net.clear_caches();
            }
            let (out, call) = ask(net, at, &q);
            self.p50_asked += 1;
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    self.failures
                        .push(format!("p50 query ({label}) errored: {e}"));
                    continue;
                }
            };
            let a = Answered {
                k,
                label: &label,
                query: &q,
                out: &out,
                call,
            };
            if let Err(e) = replay_query(net, r, &tracer, &a, &mut self.p50_runs) {
                self.failures.push(e);
            }
        }
    }

    fn on(&mut self, net: &PdmsNetwork, event: Event) {
        match event {
            Event::Ready => {
                let mappings = match self.w {
                    Workload::PublishDurable => {
                        self.twin = Some(HubTwin::new(net));
                        Vec::new()
                    }
                    w => course_mappings(w),
                };
                self.reformulator = Some(Reformulator::new(mappings, net.options.clone()));
                self.monitor = (self.w == Workload::OverlayChaos).then(Monitor::default);
            }
            Event::Query(a) => {
                let r = self.reformulator.as_ref().expect("ready");
                if let Err(e) = replay_query(net, r, self.tracer, &a, &mut self.ql) {
                    self.failures.push(e);
                } else if self.p50.as_ref() == Some(&(a.label.to_string(), a.k)) {
                    let c = self.ql.charged.last().expect("just replayed").clone();
                    self.p50_runs.charged.push(c);
                }
            }
            Event::Scrape(tick) => {
                let m = self.monitor.as_mut().expect("overlay-chaos has a monitor");
                let span = self.tracer.span("pdms.monitor.scrape");
                let t = Instant::now();
                m.scrape(net, tick);
                self.ql.scrape_ms += t.elapsed().as_secs_f64() * 1e3;
                self.ql.scrapes += 1;
                span.finish();
            }
            Event::Publish(gram) => {
                let twin = self.twin.as_mut().expect("ready");
                twin.publish(self.tracer, gram, &mut self.pl);
            }
            Event::Checkpoint => {
                let twin = self.twin.as_mut().expect("ready");
                let root = self.tracer.span("checkpoint");
                let (_, ms) = timed(&root, "pdms.durable.checkpoint", || {
                    durable::checkpoint(&twin.disk, &mut twin.catalog, &[], &[])
                });
                root.finish();
                self.pl.checkpoint_ms += ms;
                self.pl.checkpoints += 1;
            }
            Event::Restart => {
                let twin = self.twin.as_mut().expect("ready");
                let root = self.tracer.span("restart");
                let (rec, ms) = timed(&root, "pdms.durable.recover", || {
                    durable::recover(&twin.disk)
                });
                root.finish();
                self.pl.recover_ms += ms;
                self.pl.restarts += 1;
                match rec {
                    None => self.failures.push("twin recovery failed".into()),
                    Some(rec) => {
                        self.pl.replayed_records += rec.report.replayed;
                        twin.catalog = rec.catalog;
                    }
                }
            }
            Event::End => {
                if let Some(twin) = &self.twin {
                    twin.compare(net, &mut self.pl, &mut self.failures);
                }
                self.repeat_p50(net);
            }
        }
    }
}

/// Per-span-name self time (ms) and count: a span's wall time minus the
/// wall time of its children.
fn self_times(tracer: &Tracer) -> BTreeMap<String, (f64, usize)> {
    let mut child_ns: BTreeMap<usize, u128> = BTreeMap::new();
    tracer.for_each_span(|s| {
        if let (Some(p), Some(ns)) = (s.parent, s.wall_ns) {
            *child_ns.entry(p).or_default() += ns;
        }
    });
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    tracer.for_each_span(|s| {
        let own = s
            .wall_ns
            .unwrap_or(0)
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name.clone()).or_default();
        e.0 += own as f64 / 1e6;
        e.1 += 1;
    });
    out
}

/// Where the Chrome trace goes: the build directory the benchmark runs
/// from.
fn trace_path(w: Workload, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    std::path::Path::new(&dir).join(format!("perfbench-{}-{seed}.trace.json", w.name()))
}

fn per(total: f64, n: usize) -> f64 {
    total / n.max(1) as f64
}

/// The query-path metrics of the replayed queries.
fn query_metrics(m: &mut Metrics, ql: &QueryLayers) {
    let n = ql.queries();
    let mut put = |k: &str, v: f64, u: &'static str| {
        m.insert(k.to_string(), (v, u));
    };
    put("pdms.reformulate.ms", ql.mean(L::Reformulate), "ms");
    put(
        "pdms.reformulate.disjuncts",
        per(ql.disjuncts as f64, n),
        "count",
    );
    put(
        "pdms.reformulate.nodes_expanded",
        per(ql.nodes_expanded as f64, n),
        "count",
    );
    put(
        "pdms.reformulate.candidates",
        per(ql.candidates as f64, n),
        "count",
    );
    // With no mapping to expand, the query itself is the only disjunct.
    let yield_ = if ql.candidates == 0 {
        1.0
    } else {
        ql.disjuncts as f64 / ql.candidates as f64
    };
    put("pdms.reformulate.yield", yield_, "ratio");
    put(
        "pdms.cache.reformulation_hit_ratio",
        per(ql.reformulation_hits as f64, n),
        "ratio",
    );
    put(
        "pdms.cache.plan_hit_ratio",
        per(ql.plan_hits as f64, ql.plan_lookups),
        "ratio",
    );
    put(
        "query.plan.misses",
        per((ql.plan_lookups - ql.plan_hits) as f64, n),
        "count",
    );
    put("query.plan.ms_per_plan", per(ql.plan_ms, ql.plans), "ms");
    put("storage.snapshot.ms", ql.mean(L::Snapshot), "ms");
    put("storage.catalog.register_ms", ql.mean(L::Register), "ms");
    put("storage.column.pivot_ms", ql.mean(L::Pivot), "ms");
    put(
        "pdms.fetch.tuples_shipped",
        per(ql.tuples_shipped as f64, n),
        "count",
    );
    put("query.vec.bindings_ms", ql.mean(L::Bindings), "ms");
    put("query.eval.bindings", per(ql.bindings as f64, n), "count");
    put("query.eval.materialize_ms", ql.mean(L::Materialize), "ms");
    put("storage.relation.distinct_ms", ql.mean(L::Distinct), "ms");
    put("query.eval.union_merge_ms", ql.mean(L::Merge), "ms");
    put(
        "query.eval.final_distinct_ms",
        ql.mean(L::FinalDistinct),
        "ms",
    );
    put(
        "query.eval.rows_materialized",
        per(ql.rows_materialized as f64, n),
        "count",
    );
    let removed = ql.rows_into_final.saturating_sub(ql.answers);
    put(
        "query.eval.dedup_removed_ratio",
        removed as f64 / ql.rows_into_final.max(1) as f64,
        "ratio",
    );
    put("pdms.fetch.messages", per(ql.messages as f64, n), "count");
    put("pdms.fetch.retries", per(ql.retries as f64, n), "count");
    put("pdms.fetch.dropped", per(ql.dropped as f64, n), "count");
    put(
        "pdms.fetch.latency_ticks",
        per(ql.latency_ticks as f64, n),
        "ticks",
    );
    put(
        "pdms.monitor.scrape_ms",
        per(ql.scrape_ms, ql.scrapes),
        "ms",
    );
    let front: f64 = ql.charged.iter().map(|c| c.front_ms).sum();
    put("pdms.query.frontdoor_ms", per(front, n), "ms");
}

/// The publish-path metrics of the replayed stream; `traced` is the
/// traced pass's own front-door record.
fn publish_metrics(m: &mut Metrics, pl: &PublishLayers, traced: &FrontDoor) {
    let g = traced.publish_us.len();
    let mut put = |k: &str, v: f64, u: &'static str| {
        m.insert(k.to_string(), (v, u));
    };
    put("storage.wal.scan_us", 1e3 * per(pl.scan_ms, g), "us");
    put(
        "storage.wal.records_retained",
        per(pl.records_retained as f64, g),
        "count",
    );
    put(
        "storage.wal.append_bytes",
        per(pl.append_bytes as f64, g),
        "bytes",
    );
    put("pdms.updategram.sign_us", 1e3 * per(pl.sign_ms, g), "us");
    put("pdms.updategram.apply_us", 1e3 * per(pl.apply_ms, g), "us");
    put("query.dataflow.push_us", 1e3 * per(pl.push_ms, g), "us");
    put("query.dataflow.work", per(pl.work as f64, g), "count");
    put(
        "query.dataflow.arranged_tuples",
        pl.arranged_tuples as f64,
        "count",
    );
    put(
        "pdms.durable.checkpoint_ms",
        per(pl.checkpoint_ms, pl.checkpoints),
        "ms",
    );
    put(
        "pdms.durable.recover_ms",
        per(pl.recover_ms, pl.restarts),
        "ms",
    );
    put(
        "pdms.durable.replayed_records",
        per(pl.replayed_records as f64, pl.restarts),
        "count",
    );
    let layers = pl.scan_ms + pl.sign_ms + pl.apply_ms + pl.push_ms;
    put(
        "pdms.publish.unattributed_us",
        per(total(&traced.publish_us) - 1e3 * layers, g),
        "us",
    );
}

/// The attribution: per template, the traced pass's front-door mean and
/// the layers' mean (their difference is the same pass's residual); then
/// the query that sets the untraced `query_p50_ms` (`#k`: its place in
/// the pass, among the hub-join reads on `publish-durable`), from its
/// replay in the pass and its repetitions: the
/// replay with the fewest layer ms, layer by layer, against that p50.
/// Returns the text and the gap (the untraced p50 minus those layers).
fn attribution(
    ql: &QueryLayers,
    p50_runs: &QueryLayers,
    (k, asked): (usize, usize),
    untraced: &FrontDoor,
) -> (String, f64) {
    let mut out = String::new();
    let mut by_label: BTreeMap<&str, Vec<&Charged>> = BTreeMap::new();
    for c in &ql.charged {
        by_label.entry(&c.label).or_default().push(c);
    }
    let _ = writeln!(
        out,
        "  attribution over {} replayed queries, per template (mean ms of the traced pass):",
        ql.queries()
    );
    let _ = writeln!(
        out,
        "    {:<14} {:>4} {:>12} {:>12} {:>12}  largest layer",
        "template", "n", "front door", "layers", "residual"
    );
    for (label, cs) in &by_label {
        let n = cs.len();
        let front = per(cs.iter().map(|c| c.front_ms).sum(), n);
        let layers = per(cs.iter().map(|c| c.layers()).sum(), n);
        let (top, top_ms) = (0..CHARGED.len())
            .map(|i| (CHARGED[i], per(cs.iter().map(|c| c.ms[i]).sum(), n)))
            .fold(("", 0.0), |a, b| if b.1 > a.1 { b } else { a });
        let _ = writeln!(
            out,
            "    {label:<14} {n:>4} {front:>12.4} {layers:>12.4} {:>12.4}  {top} {:.0}%",
            front - layers,
            100.0 * top_ms / front.max(1e-12)
        );
    }
    let p50 = percentile(&untraced.query_fastest(), 0.5).map_or(0.0, |p| p.value);
    let Some(best) = p50_runs
        .charged
        .iter()
        .min_by(|a, b| a.layers().total_cmp(&b.layers()))
    else {
        return (out, p50);
    };
    let fastest = p50_runs
        .charged
        .iter()
        .map(|c| c.front_ms)
        .fold(f64::MAX, f64::min);
    let _ = writeln!(
        out,
        "  untraced query_p50_ms {p50:.4} ms is set by {} #{k}; {} replays of it ({} in the pass, {asked} asked again), fastest front door {fastest:.4} ms; the replay with the fewest layer ms:",
        best.label,
        p50_runs.queries(),
        p50_runs.queries().saturating_sub(asked)
    );
    let share = |v: f64| 100.0 * v / p50.max(1e-12);
    for (name, v) in CHARGED.iter().zip(best.ms) {
        let _ = writeln!(out, "    {name:<34} {v:>10.4} ms {:>6.1}%", share(v));
    }
    let layers = best.layers();
    let gap = p50 - layers;
    let _ = writeln!(
        out,
        "    {:<34} {layers:>10.4} ms {:>6.1}%",
        "sum of layers",
        share(layers)
    );
    let _ = writeln!(
        out,
        "    {:<34} {gap:>10.4} ms {:>6.1}%  (pdms.query.unattributed_ms)",
        "gap to the untraced p50",
        share(gap)
    );
    (out, gap)
}

/// Run the traced pass of `w` at `seed`; `untraced` is the measured run.
pub fn run(w: Workload, seed: u64, untraced: &FrontDoor) -> Traced {
    let tracer = Tracer::new();
    let mut m = Metrics::new();
    let mut text = String::new();
    let n = match w {
        Workload::OverlayCold => COLD_REPLAY,
        Workload::PublishDurable => ROUND_GRAMS,
        _ => CYCLE,
    };
    // The query at the untraced p50's rank: the `i`th of the pass, which
    // is the `k`th of its template. A hub read's answer depends on when
    // it is asked, so only query workloads ask theirs again.
    let rank = rank_index(&untraced.query_fastest(), 0.5);
    let p50 = rank.map(|i| {
        let label = &untraced.query_label[i];
        let k = match w {
            Workload::PublishDurable => untraced.query_label[..i]
                .iter()
                .filter(|l| *l == label)
                .count(),
            _ => i,
        };
        (label.clone(), k)
    });
    let p50_repeat = rank.filter(|_| w != Workload::PublishDurable).map(|i| {
        let text = query_stream(w, seed).1.swap_remove(i).text;
        (parse_query(&text).expect("stream query parses"), QUERY_PEER)
    });
    let mut rp = Replayer::new(w, &tracer, p50, p50_repeat);
    let traced = drive(w, seed, Budget::Ops(n), Obs::disabled(), &mut |net, ev| {
        rp.on(net, ev)
    });
    // The same operations with the program's own observability on: its
    // counters and its overhead against the traced pass's front door.
    let obs = Obs::enabled();
    let enabled = drive(w, seed, Budget::Ops(n), obs.clone(), &mut |_, _| {});
    // The determinism check: seed-pure counters repeat exactly at one
    // seed, in every pass, and differ at another.
    let other_seed = seed.wrapping_add(1);
    let prefix = if w == Workload::PublishDurable {
        PREFIX * QUERY_EVERY
    } else {
        PREFIX
    };
    let other = drive(
        w,
        other_seed,
        Budget::Ops(prefix),
        Obs::disabled(),
        &mut |_, _| {},
    );
    let mut failures = rp.failures;
    let want = untraced.fingerprint_at(n);
    let repeated =
        want.is_some() && traced.fingerprint_at(n) == want && enabled.fingerprint_at(n) == want;
    let differs = other.fingerprint_at(prefix) != untraced.fingerprint_at(prefix);
    if !repeated {
        failures.push(format!("seed-pure counters did not repeat at seed {seed}"));
    }
    if !differs {
        failures.push(format!(
            "seed-pure counters at seed {other_seed} equal seed {seed}'s"
        ));
    }
    let _ = writeln!(
        text,
        "determinism: fingerprint {:016x} repeated {repeated}, prefix differs at seed {other_seed}: {differs}",
        want.unwrap_or(0)
    );
    let (ql, pl, p50_runs, p50_asked) = (rp.ql, rp.pl, rp.p50_runs, rp.p50_asked);
    let p50_k = rp.p50.map_or(0, |p| p.1);
    query_metrics(&mut m, &ql);
    publish_metrics(&mut m, &pl, &traced);
    let overhead =
        100.0 * (enabled.busy.as_secs_f64() / traced.busy.as_secs_f64().max(1e-12) - 1.0);
    let _ = writeln!(
        text,
        "  Obs::enabled() overhead: {:.3} s against {:.3} s of front-door time over the same {} ops",
        enabled.busy.as_secs_f64(),
        traced.busy.as_secs_f64(),
        traced.ops
    );
    m.insert("util.obs.trace_overhead_pct".into(), (overhead, "%"));
    let metrics = obs.metrics();
    let counter = |name: &str| metrics.map(|x| x.counter(name)).unwrap_or(0) as f64;
    let steps = metrics
        .and_then(|x| x.histogram(names::QUERY_EVAL_STEP_BINDINGS))
        .map(|h| h.sum)
        .unwrap_or(0) as f64;
    let q = ql.queries();
    m.insert(
        "query.eval.rows_scanned".into(),
        (per(counter(names::QUERY_EVAL_ROWS_SCANNED), q), "count"),
    );
    m.insert(
        "query.eval.rows_probed".into(),
        (per(counter(names::QUERY_EVAL_ROWS_PROBED), q), "count"),
    );
    m.insert("query.eval.step_bindings".into(), (per(steps, q), "count"));
    let (table, gap) = attribution(&ql, &p50_runs, (p50_k, p50_asked), untraced);
    text.push_str(&table);
    m.insert("pdms.query.unattributed_ms".into(), (gap, "ms"));
    let _ = writeln!(text, "  span self time (ms total, spans):");
    for (name, (ms, count)) in self_times(&tracer) {
        let _ = writeln!(text, "    {name:<34} {ms:>12.3} {count:>8}");
    }
    let path = trace_path(w, seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace()));
    match written {
        Ok(()) => {
            let _ = writeln!(text, "chrome trace: {}", path.display());
        }
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }
    for fd in [&traced, &enabled, &other] {
        failures.extend(fd.failures.iter().cloned());
    }
    for f in &failures {
        let _ = writeln!(text, "  FAILED: {f}");
    }
    let driven_failed: usize = [&traced, &enabled, &other].iter().map(|fd| fd.failed).sum();
    let listed: usize = [&traced, &enabled, &other]
        .iter()
        .map(|fd| fd.failures.len())
        .sum();
    Traced {
        metrics: m,
        text,
        attempted: traced.ops + enabled.ops + other.ops + p50_asked,
        failed: failures.len() - listed + driven_failed,
    }
}
