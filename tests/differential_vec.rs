//! Differential gate for the vectorized columnar engine.
//!
//! The vectorized evaluator (`query::vec`) promises *byte-identity* with
//! the row engine — not just the same bag of answers but the same row
//! order, the same step profiles, and the same errors — and agreement
//! (up to canonical sort) with the nested-loop naive oracle. These tests
//! generate random catalogs and conjunctive queries biased toward the
//! shapes where a columnar engine can go wrong:
//!
//! * repeated variables *within* one atom (bitmap self-join filters),
//! * constants in atom positions (`eq_const` pushdown, including the
//!   `Int`/`Float` numeric-equality corner),
//! * mixed-type columns that force the `Any` fallback paths,
//! * cartesian-adjacent bodies (atoms sharing no variables — the
//!   `BuildIndex::All` fan-out), and
//! * broken queries (missing relation / wrong arity), which must produce
//!   the *same* `EvalError` from both engines.
//!
//! Every case also sweeps morsel configurations — sequential, and forced
//! parallel at morsel sizes 1, 7, 64, and whole-relation — and holds the
//! output byte-identical across all of them, the same determinism
//! contract `query_parallel` is held to.
//!
//! Seeding: `REVERE_VEC_SEED` (default 1) offsets every generator;
//! `scripts/verify.sh` sweeps several seeds.

use revere::prelude::*;
use revere::storage::Attribute;
use revere_util::prop::Gen;

/// Base seed for this run, from `REVERE_VEC_SEED` (default 1).
fn vec_seed() -> u64 {
    std::env::var("REVERE_VEC_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// Independent generator for one case: mixes the run seed with the case
/// index so cases stay decorrelated within and across seeds.
fn case_gen(case: u64) -> Gen {
    Gen::from_seed(vec_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case))
}

const INT_DOMAIN: [i64; 4] = [0, 1, 2, 3];
const STR_DOMAIN: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 5] = ["X0", "X1", "X2", "X3", "X4"];

/// What a generated column holds. `Mixed` defeats the typed columnar fast
/// paths: the column degrades to `ColumnVec::Any` and every comparison
/// goes through full `Value` semantics — including `Int(2) == Float(2.0)`
/// numeric equality, which a code- or bits-level equality would miss.
#[derive(Clone, Copy)]
enum ColKind {
    Int,
    Str,
    Mixed,
}

/// The mixed domain deliberately collides across types: `Float(2.0)`
/// equals `Int(2)`, `Float(3.0)` equals `Int(3)`, and `Null`/`Bool` sit
/// outside both the int and string fast paths.
fn mixed_value(g: &mut Gen) -> Value {
    match *g.pick(&[0u8, 1, 2, 3, 4, 5]) {
        0 => Value::Int(*g.pick(&INT_DOMAIN)),
        1 => Value::Float(2.0),
        2 => Value::Float(3.0),
        3 => Value::str(*g.pick(&STR_DOMAIN)),
        4 => Value::Null,
        _ => Value::Bool(true),
    }
}

/// A random catalog: 2–4 relations `r0..`, arity 1–3, each column int,
/// text, or mixed, 0–12 rows drawn from tiny domains (small domains force
/// joins and duplicates; mixed columns force the `Any` fallback).
fn random_catalog(g: &mut Gen) -> Catalog {
    let mut catalog = Catalog::new();
    let n_rels = *g.pick(&[2usize, 3, 4]);
    for ri in 0..n_rels {
        let kinds: Vec<ColKind> =
            g.vec(1..4, |g| *g.pick(&[ColKind::Int, ColKind::Int, ColKind::Str, ColKind::Mixed]));
        let attrs: Vec<Attribute> = kinds
            .iter()
            .enumerate()
            .map(|(ci, k)| match k {
                ColKind::Int => Attribute::int(format!("c{ci}")),
                _ => Attribute::text(format!("c{ci}")),
            })
            .collect();
        let mut rel = Relation::new(RelSchema::new(format!("r{ri}"), attrs));
        let rows = g.vec(0..13, |g| {
            kinds
                .iter()
                .map(|k| match k {
                    ColKind::Int => Value::Int(*g.pick(&INT_DOMAIN)),
                    ColKind::Str => Value::str(*g.pick(&STR_DOMAIN)),
                    ColKind::Mixed => mixed_value(g),
                })
                .collect::<Vec<Value>>()
        });
        for row in rows {
            rel.insert(row);
        }
        catalog.register(rel);
    }
    catalog.analyze();
    catalog
}

/// A random constant, rendered for the query parser.
fn random_const(g: &mut Gen) -> String {
    if *g.pick(&[true, false]) {
        g.pick(&INT_DOMAIN).to_string()
    } else {
        format!("'{}'", g.pick(&STR_DOMAIN))
    }
}

/// A random safe conjunctive query over `catalog`, as text: 1–3 atoms
/// with variables drawn from a small pool (frequent cross-atom joins,
/// repeated variables within one atom, and — when atoms share no
/// variables — cartesian steps), constants in atom positions, 0–2
/// comparisons. With `break_it`, the query references a missing relation
/// or a real one at the wrong arity instead.
fn random_query(g: &mut Gen, catalog: &Catalog, break_it: bool) -> String {
    let rels: Vec<(String, usize)> = catalog
        .names()
        .map(|n| (n.to_string(), catalog.get(n).unwrap().schema.arity()))
        .collect();
    let n_atoms = *g.pick(&[1usize, 2, 2, 3]);
    let broken_atom = if break_it { *g.pick(&[0, n_atoms - 1]) } else { usize::MAX };
    let mut body = Vec::new();
    let mut used: Vec<&str> = Vec::new();
    for ai in 0..n_atoms {
        let (name, mut arity) = g.pick(&rels).clone();
        let name = if ai == broken_atom && *g.pick(&[true, false]) {
            "ghost".to_string()
        } else {
            if ai == broken_atom {
                arity += 1;
            }
            name
        };
        // Draw this atom's variables from either half of the pool: atoms
        // drawing from disjoint halves share nothing, which makes the
        // step a cartesian product — the shape the `BuildIndex::All`
        // fan-out path must get byte-for-byte right.
        let pool: &[&str] = if *g.pick(&[true, false]) { &VARS[..3] } else { &VARS[2..] };
        let terms: Vec<String> = (0..arity)
            .map(|ti| {
                if (ai == 0 && ti == 0) || *g.pick(&[true, true, true, false]) {
                    let v = *g.pick(pool);
                    if !used.contains(&v) {
                        used.push(v);
                    }
                    v.to_string()
                } else {
                    random_const(g)
                }
            })
            .collect();
        body.push(format!("{name}({})", terms.join(", ")));
    }
    for _ in 0..*g.pick(&[0usize, 0, 1, 2]) {
        let v = *g.pick(&used);
        let op = *g.pick(&["=", "!=", "<", "<=", ">", ">="]);
        body.push(format!("{v} {op} {}", random_const(g)));
    }
    let h = *g.pick(&[1usize, 1, 2, 3]);
    let head: Vec<String> = (0..h).map(|_| g.pick(&used).to_string()).collect();
    format!("q({}) :- {}", head.join(", "), body.join(", "))
}

/// The morsel configurations every case is held byte-identical across:
/// sequential, and forced-parallel at morsel sizes 1, 7, 64, and
/// whole-relation (one morsel ⇒ one worker).
fn opts_sweep() -> Vec<(&'static str, VecOpts)> {
    vec![
        ("default", VecOpts::default()),
        ("sequential", VecOpts::sequential()),
        ("morsel=1", VecOpts::forced_parallel(1)),
        ("morsel=7", VecOpts::forced_parallel(7)),
        ("morsel=64", VecOpts::forced_parallel(64)),
        ("morsel=whole", VecOpts::forced_parallel(usize::MAX)),
    ]
}

fn run_row(q: &ConjunctiveQuery, plan: &Plan, c: &Catalog) -> Result<Relation, String> {
    let (off, none) = (Obs::disabled(), SpanHandle::none());
    eval_cq_bag_profiled_obs_mode(q, plan, c, &off, &none, ExecMode::Row)
        .map(|(r, _)| r)
        .map_err(|e| e.to_string())
}

fn run_vec(
    q: &ConjunctiveQuery,
    plan: &Plan,
    c: &Catalog,
    opts: &VecOpts,
) -> Result<Relation, String> {
    eval_cq_bag_profiled_obs_vec(q, plan, c, &Obs::disabled(), &SpanHandle::none(), opts)
        .map(|(r, _)| r)
        .map_err(|e| e.to_string())
}

/// Rows in canonical order, for comparison against the (differently
/// ordered) naive oracle.
fn sorted_rows(r: Relation) -> Vec<Vec<Value>> {
    r.sorted().into_rows()
}

/// Vectorized ≡ row engine *byte-for-byte* (unsorted — row order is part
/// of the contract) across the whole morsel sweep, and ≡ naive oracle
/// after canonical sort.
#[test]
fn vectorized_agrees_with_row_engine_and_naive_oracle() {
    for case in 0..64u64 {
        let mut g = case_gen(case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, false);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        assert!(q.is_safe(), "case {case}: generated unsafe query `{text}`");
        let plan = plan_cq(&q, &catalog);
        let row = run_row(&q, &plan, &catalog);
        for (label, opts) in opts_sweep() {
            let vec = run_vec(&q, &plan, &catalog, &opts);
            match (&row, &vec) {
                (Ok(r), Ok(v)) => assert_eq!(
                    r.rows(),
                    v.rows(),
                    "case {case} [{label}]: `{text}` (canonical `{}`) row order diverged",
                    q.canonical_key()
                ),
                (Err(r), Err(v)) => {
                    assert_eq!(r, v, "case {case} [{label}]: `{text}` errors diverged")
                }
                (r, v) => panic!("case {case} [{label}]: `{text}`: row {r:?} vs vec {v:?}"),
            }
        }
        if let Ok(r) = &row {
            // The bindings-only kernel (what E18 gates on) must agree with
            // the full evaluation: identical step traces from both engines,
            // and — these queries are safe, so every realized binding emits
            // exactly one head row — the same count as the answer bag.
            let kernel = |mode: ExecMode| {
                eval_cq_bindings_mode(&q, &plan, &catalog, &Obs::disabled(), &SpanHandle::none(), mode)
                    .unwrap_or_else(|e| panic!("case {case}: `{text}` bindings kernel ({mode}): {e}"))
            };
            let (row_n, row_trace) = kernel(ExecMode::Row);
            let (vec_n, vec_trace) = kernel(ExecMode::Vectorized);
            assert_eq!(row_n, r.len(), "case {case}: `{text}` bindings count vs answer bag");
            assert_eq!(vec_n, row_n, "case {case}: `{text}` bindings counts diverged");
            assert_eq!(vec_trace, row_trace, "case {case}: `{text}` bindings traces diverged");
        }
        let naive = eval_naive_bag(&q, &catalog).map_err(|e| e.to_string());
        match (row.clone(), naive) {
            (Ok(r), Ok(n)) => assert_eq!(
                sorted_rows(run_vec(&q, &plan, &catalog, &VecOpts::default()).unwrap()),
                sorted_rows(n),
                "case {case}: `{text}` vectorized vs naive diverged (row engine gave {} rows)",
                r.len()
            ),
            (Err(r), Err(n)) => assert_eq!(r, n, "case {case}: `{text}` errors diverged vs naive"),
            (r, n) => panic!("case {case}: `{text}`: row {r:?} vs naive {n:?}"),
        }
    }
}

/// Broken queries (unknown relation, wrong arity) error identically from
/// both engines — same message, not merely both erring.
#[test]
fn engines_agree_on_broken_queries() {
    for case in 0..32u64 {
        let mut g = case_gen(10_000 + case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, true);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        let plan = plan_cq(&q, &catalog);
        let row = run_row(&q, &plan, &catalog);
        let vec = run_vec(&q, &plan, &catalog, &VecOpts::default());
        assert!(row.is_err(), "case {case}: `{text}` should not evaluate");
        assert_eq!(row, vec, "case {case}: `{text}` errors diverged");
    }
}

/// A plan cached for a different query must be rejected with the same
/// error by both engines.
#[test]
fn engines_agree_on_inapplicable_plans() {
    let mut g = case_gen(20_000);
    let catalog = random_catalog(&mut g);
    let a = parse_query("q(X0) :- r0(X0)").unwrap();
    let b = parse_query("q(X0, X1) :- r1(X0, X1)").unwrap_or_else(|_| a.clone());
    let plan = plan_cq(&a, &catalog);
    let row = run_row(&b, &plan, &catalog);
    let vec = run_vec(&b, &plan, &catalog, &VecOpts::default());
    if row.is_ok() && vec.is_ok() {
        return; // arities happened to line up — nothing to compare
    }
    assert_eq!(row, vec, "inapplicable-plan errors diverged");
}

/// Real-thread coverage: a join over a relation large enough that every
/// forced-parallel configuration actually spawns workers, held
/// byte-identical to the sequential run (and to the row engine).
#[test]
fn morsel_parallel_is_byte_identical_on_large_inputs() {
    let mut edge = Relation::new(RelSchema::new(
        "edge",
        vec![Attribute::int("a"), Attribute::int("b")],
    ));
    // Deterministic pseudo-random graph over 400 nodes, 20k edges: big
    // enough for thousands of morsels at size 7, small enough to stay
    // fast as a test.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x % 400) as i64;
        let b = ((x >> 16) % 400) as i64;
        edge.insert(vec![Value::Int(a), Value::Int(b)]);
    }
    let mut catalog = Catalog::new();
    catalog.register(edge);
    catalog.analyze();
    for text in [
        "q(A, C) :- edge(A, B), edge(B, C)",
        "q(A) :- edge(A, A)",
        "q(A, B) :- edge(A, B), edge(B, A), A != B",
    ] {
        let q = parse_query(text).unwrap();
        let plan = plan_cq(&q, &catalog);
        let row = run_row(&q, &plan, &catalog).unwrap();
        let sequential = run_vec(&q, &plan, &catalog, &VecOpts::sequential()).unwrap();
        assert_eq!(sequential.rows(), row.rows(), "`{text}`: vec vs row diverged");
        for (label, opts) in opts_sweep() {
            let parallel = run_vec(&q, &plan, &catalog, &opts).unwrap();
            assert_eq!(
                parallel.rows(),
                sequential.rows(),
                "`{text}` [{label}]: parallel vs sequential diverged"
            );
        }
    }
}
