//! The four workloads' networks and input streams.
//!
//! The overlay shape and the fault plan are fixed per workload; the run's
//! `--seed` draws the operation stream (query order, query constants,
//! updategram contents). Holding the overlay fixed keeps the cost of one
//! operation comparable from seed to seed, so the spread between runs
//! measures the program rather than which overlay the seed happened to
//! draw.

use revere_bench::fixtures::{big_relation, network_with_rows};
use revere_pdms::fault::{FaultPlan, FaultSpec};
use revere_pdms::{PdmsNetwork, Peer, Updategram};
use revere_query::GlavMapping;
use revere_storage::Value;
use revere_util::{RngExt, SeedableRng, StdRng};
use revere_workload::{course_templates, Topology, TopologyKind};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZipfAnswers,
    /// Runnable by hand but not one of `BENCHMARK.json`'s workloads:
    /// its queries all cost about the same, so its p90 measures the
    /// machine's noise (`PREDICTIONS.md`).
    OverlayCold,
    OverlayChaos,
    PublishDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfAnswers,
        Workload::OverlayCold,
        Workload::OverlayChaos,
        Workload::PublishDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfAnswers => "zipf-answers",
            Workload::OverlayCold => "overlay-cold",
            Workload::OverlayChaos => "overlay-chaos",
            Workload::PublishDurable => "publish-durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Topology seed of the E13 overlay (the seed E13 and E18b use).
const ZIPF_TOPOLOGY_SEED: u64 = 1013;
/// Topology seed of the 16-peer overlay (the E19 default seed).
const OVERLAY_TOPOLOGY_SEED: u64 = 1003;
/// Fault-plan seed of `overlay-chaos`.
const CHAOS_SEED: u64 = 1003;
/// Failure rate of `overlay-chaos` (the E12/E19 chaos rate).
pub const CHAOS_RATE: f64 = 0.2;

/// Peers of the E13/E18b overlay.
pub const ZIPF_PEERS: usize = 6;
/// Rows at `P0`; peer `i` holds `(1 + i % 3)` times as many.
pub const ZIPF_ROWS: usize = 1200;
/// Templates and Zipf skew of the `zipf-answers` trace.
pub const ZIPF_TEMPLATES: usize = 8;
pub const ZIPF_SKEW: f64 = 1.2;
/// Peers of the `overlay-chaos` overlay, and of the `overlay-cold` one:
/// a reformulation miss costs 110-200 ms at 16 peers and about 30 ms at
/// 10, and `overlay-cold` asks 100 of them per pass.
pub const CHAOS_PEERS: usize = 16;
pub const COLD_PEERS: usize = 10;
/// Rows per peer of the overlay workloads.
pub const OVERLAY_ROWS: usize = 3;
/// Templates and skew of the `overlay-chaos` trace.
pub const CHAOS_TEMPLATES: usize = 12;
pub const CHAOS_SKEW: f64 = 1.1;

/// The peer every query is posed at.
pub const QUERY_PEER: &str = "P0";

fn topology(w: Workload) -> Topology {
    let (n, seed) = match w {
        Workload::ZipfAnswers => (ZIPF_PEERS, ZIPF_TOPOLOGY_SEED),
        Workload::OverlayCold => (COLD_PEERS, OVERLAY_TOPOLOGY_SEED),
        Workload::OverlayChaos => (CHAOS_PEERS, OVERLAY_TOPOLOGY_SEED),
        Workload::PublishDurable => unreachable!("the hub has no overlay"),
    };
    Topology::generate(TopologyKind::Random { extra: 2 }, n, seed)
}

/// A query workload's overlay, caches cold: the E13 overlay at E18b data
/// scale (1200/2400/3600 rows per peer), or a 3-rows-per-peer overlay,
/// under chaos for `overlay-chaos`.
pub fn network(w: Workload) -> PdmsNetwork {
    if w == Workload::ZipfAnswers {
        return network_with_rows(&topology(w), |i| ZIPF_ROWS * (1 + i % 3));
    }
    let mut net = network_with_rows(&topology(w), |_| OVERLAY_ROWS);
    if w == Workload::OverlayChaos {
        net.faults = FaultPlan::new(FaultSpec::chaos(CHAOS_SEED, CHAOS_RATE));
    }
    net
}

/// The mapping graph of a course overlay, as `network_with_rows` builds
/// it. `PdmsNetwork` keeps its mappings private; the traced pass hands
/// this list to its own `Reformulator`.
pub fn course_mappings(w: Workload) -> Vec<GlavMapping> {
    topology(w)
        .edges
        .iter()
        .enumerate()
        .map(|(idx, (a, b))| {
            GlavMapping::parse(
                format!("m{idx}"),
                format!("P{a}"),
                format!("P{b}"),
                &format!("m(T, E) :- P{a}.course(T, E) ==> m(T, E) :- P{b}.course(T, E)"),
            )
            .expect("course mapping parses")
        })
        .collect()
}

/// One cycle of a Zipf(`skew`) trace over `templates` ranks, `len` long,
/// with each rank's count fixed to its expected share (largest-remainder
/// rounding) and the order shuffled by `seed`. Fixing the counts keeps
/// every run's template mix, and with it each percentile's template,
/// the same from seed to seed; the seed decides the order.
pub fn zipf_cycle(templates: usize, skew: f64, len: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..templates)
        .map(|i| 1.0 / ((i + 1) as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..templates).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut cycle: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    StdRng::seed_from_u64(seed).shuffle(&mut cycle);
    cycle
}

/// A labelled query text.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Template label for per-template reporting (`t<rank>` or the cold
    /// query's shape).
    pub label: String,
    pub text: String,
}

/// The warm trace of a template workload: `cycle` mapped to template texts.
pub fn template_trace(templates: usize, cycle: &[usize]) -> (Vec<QuerySpec>, Vec<QuerySpec>) {
    let texts = course_templates(QUERY_PEER, templates);
    let distinct: Vec<QuerySpec> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| QuerySpec {
            label: format!("t{i}"),
            text: t.clone(),
        })
        .collect();
    let trace = cycle.iter().map(|&i| distinct[i].clone()).collect();
    (distinct, trace)
}

/// `n` never-repeated two-atom queries at `P0`: enrollment self-joins
/// alternating with constant-title probes, each with its own threshold. The text
/// differs from every other query's, so each one misses the
/// reformulation cache (which keys on exact text).
pub fn cold_queries(n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut thresholds: [Vec<i64>; 2] = [(0..320).collect(), (0..320).collect()];
    for t in &mut thresholds {
        rng.shuffle(t);
    }
    assert!(n <= 640, "at most 640 distinct cold queries");
    (0..n)
        .map(|i| {
            let (kind, c) = (i % 2, thresholds[i % 2][i / 2]);
            let p = QUERY_PEER;
            if kind == 0 {
                QuerySpec {
                    label: "self-join".into(),
                    text: format!("q(T, U) :- {p}.course(T, E), {p}.course(U, E), E > {c}"),
                }
            } else {
                let (k, j) = (c % OVERLAY_ROWS as i64, c % COLD_PEERS as i64);
                QuerySpec {
                    label: "const-probe".into(),
                    text: format!(
                        "q(U, E) :- {p}.course(U, E), {p}.course('Course {k} at P{j}', E), E < {c}"
                    ),
                }
            }
        })
        .collect()
}

/// The durable hub of `publish-durable`: the E17b `r ⋈ s` base.
pub const HUB: &str = "Hub";
pub const HUB_BASE_ROWS: usize = 2000;
pub const HUB_DOMAIN: i64 = 200;
pub const SUBSCRIBERS: usize = 100;
/// The subscribers' (and the one-shot reads') definition.
pub const HUB_QUERY: &str = "q(A, C) :- Hub.r(A, B), Hub.s(B, C)";
/// Grams per stream round, and the stream's cadences. The cadences are
/// part of the workload: the durable publish path's cost grows with the
/// journal retained since the last checkpoint.
pub const ROUND_GRAMS: usize = 2000;
pub const QUERY_EVERY: usize = 10;
pub const RESTART_EVERY: usize = 100;
pub const CHECKPOINT_EVERY: usize = 1000;
/// Rows per gram; every `DELETE_EVERY`-th gram retracts earlier inserts.
pub const GRAM_ROWS: usize = 4;
pub const DELETE_EVERY: usize = 8;

/// The hub peer with `r` (2000 rows) and `s` (400 rows), not yet durable.
pub fn hub_network() -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    let mut hub = Peer::new(HUB);
    hub.add_relation(big_relation("r", HUB_BASE_ROWS, HUB_DOMAIN));
    hub.add_relation(big_relation("s", HUB_BASE_ROWS / 5, HUB_DOMAIN));
    net.add_peer(hub);
    net
}

/// The seeded updategram stream into `Hub.r`: `GRAM_ROWS`-row inserts of
/// fresh keys, and every `DELETE_EVERY`-th gram a delete of
/// `GRAM_ROWS` rows inserted earlier in the stream.
pub fn gram_stream(n: usize, seed: u64) -> Vec<Updategram> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Vec<Value>> = Vec::new();
    let mut next_key = 1_000_000i64;
    (0..n)
        .map(|g| {
            if g % DELETE_EVERY == DELETE_EVERY - 1 {
                let rows = (0..GRAM_ROWS)
                    .map(|_| live.swap_remove(rng.random_range(0..live.len())))
                    .collect();
                Updategram::deletes("Hub.r", rows)
            } else {
                let rows: Vec<Vec<Value>> = (0..GRAM_ROWS)
                    .map(|_| {
                        next_key += 1;
                        vec![
                            Value::Int(next_key),
                            Value::Int(rng.random_range(0..HUB_DOMAIN)),
                        ]
                    })
                    .collect();
                live.extend(rows.iter().cloned());
                Updategram::inserts("Hub.r", rows)
            }
        })
        .collect()
}
