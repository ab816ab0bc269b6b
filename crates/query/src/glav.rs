//! GLAV mappings and their normalization.
//!
//! Piazza's mappings "are defined 'directionally' with query expressions
//! (using the GLAV formalism \[19\])" (§3.1.1): a mapping asserts an
//! inclusion between two conjunctive queries over different peers,
//!
//! ```text
//!   Q_source(X̄)  ⊆  Q_target(X̄)
//! ```
//!
//! meaning every tuple the source query produces is also an answer of the
//! target query. Reformulation exploits a GLAV mapping by *normalizing* it
//! through a virtual mapping relation `m(X̄)`:
//!
//! * a **GAV rule** `m(X̄) :- Q_source-body` — `m`'s extension is computed
//!   from the source peer's data (unfolding direction), and
//! * a **LAV view** `m(X̄) :- Q_target-body` — `m` behaves as a view over
//!   the target peer's schema (MiniCon direction).
//!
//! A query over the target peer is rewritten by MiniCon using the LAV
//! views of all inbound mappings, producing queries over the virtual `m`
//! relations; each `m` atom then unfolds through the GAV rule into source
//! vocabulary. That composition is exactly how the PDMS reformulator walks
//! one edge of the mapping graph.

use crate::ast::{Atom, ConjunctiveQuery, Term};
use crate::parse::{parse_query, ParseError};
use crate::unfold::ViewDef;

/// A GLAV mapping between two peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlavMapping {
    /// Unique mapping name; also names the virtual relation.
    pub name: String,
    /// Peer whose vocabulary `source` is written in.
    pub source_peer: String,
    /// Peer whose vocabulary `target` is written in.
    pub target_peer: String,
    /// Shared head variables (the exported tuple shape).
    pub head_vars: Vec<String>,
    /// Source-side body (over `source_peer` relations).
    pub source_body: Vec<Atom>,
    /// Target-side body (over `target_peer` relations).
    pub target_body: Vec<Atom>,
}

impl GlavMapping {
    /// Construct from two conjunctive queries with identical head shapes.
    ///
    /// Returns `None` if the heads differ in arity or are not pure variable
    /// tuples.
    pub fn new(
        name: impl Into<String>,
        source_peer: impl Into<String>,
        target_peer: impl Into<String>,
        source: &ConjunctiveQuery,
        target: &ConjunctiveQuery,
    ) -> Option<Self> {
        if source.head.terms.len() != target.head.terms.len() {
            return None;
        }
        let vars: Option<Vec<String>> = source
            .head
            .terms
            .iter()
            .map(|t| t.as_var().map(str::to_string))
            .collect();
        let head_vars = vars?;
        let tvars: Option<Vec<String>> = target
            .head
            .terms
            .iter()
            .map(|t| t.as_var().map(str::to_string))
            .collect();
        let tvars = tvars?;
        // Rename the target body so its head vars coincide with the source's.
        let target_renamed = align_head_vars(target, &tvars, &head_vars);
        Some(GlavMapping {
            name: name.into(),
            source_peer: source_peer.into(),
            target_peer: target_peer.into(),
            head_vars,
            source_body: source.body.clone(),
            target_body: target_renamed.body,
        })
    }

    /// Parse a mapping from the textual form used by examples and tests:
    /// two queries with the same head, separated by `==>`, e.g.
    ///
    /// ```text
    /// m(T, S) :- Berkeley.course(T, S)  ==>  m(T, S) :- MIT.subject(T, S)
    /// ```
    pub fn parse(
        name: impl Into<String>,
        source_peer: impl Into<String>,
        target_peer: impl Into<String>,
        src: &str,
    ) -> Result<Self, ParseError> {
        let Some((s, t)) = src.split_once("==>") else {
            return Err(ParseError { message: format!("mapping {src:?} lacks '==>'") });
        };
        let sq = parse_query(s.trim())?;
        let tq = parse_query(t.trim())?;
        GlavMapping::new(name, source_peer, target_peer, &sq, &tq).ok_or(ParseError {
            message: "mapping heads incompatible (arity or non-variable terms)".into(),
        })
    }

    /// The virtual-relation head atom `m(X̄)`.
    pub fn virtual_head(&self) -> Atom {
        Atom::new(
            self.name.clone(),
            self.head_vars.iter().map(|v| Term::var(v.clone())).collect(),
        )
    }

    /// The GAV rule `m(X̄) :- source_body` (unfold direction).
    pub fn gav_rule(&self) -> ViewDef {
        ViewDef { head: self.virtual_head(), body: self.source_body.clone() }
    }

    /// The LAV view `m(X̄) :- target_body` (MiniCon direction).
    pub fn lav_view(&self) -> ViewDef {
        ViewDef { head: self.virtual_head(), body: self.target_body.clone() }
    }

    /// The reversed mapping (asserting the other inclusion). Reformulation
    /// may traverse mappings in either direction — "a given user query may
    /// have to be evaluated against the mapping in either the 'forward' or
    /// 'backward' direction" — at the cost of possible incompleteness,
    /// which the PDMS accepts.
    pub fn reversed(&self) -> GlavMapping {
        GlavMapping {
            name: format!("{}_rev", self.name),
            source_peer: self.target_peer.clone(),
            target_peer: self.source_peer.clone(),
            head_vars: self.head_vars.clone(),
            source_body: self.target_body.clone(),
            target_body: self.source_body.clone(),
        }
    }
}

/// Rename `q`'s variables so that its head variables become `to` (matching
/// positionally from `from`), freshening any body variable that would
/// collide.
fn align_head_vars(q: &ConjunctiveQuery, from: &[String], to: &[String]) -> ConjunctiveQuery {
    // Fresh-prefix everything, then rename prefixed head vars to target.
    let fresh = q.rename_vars("t_");
    let mut mapping: Vec<(String, String)> = Vec::new();
    for (f, t) in from.iter().zip(to) {
        mapping.push((format!("t_{f}"), t.clone()));
    }
    let ren = |term: &Term| -> Term {
        match term {
            Term::Var(v) => {
                for (f, t) in &mapping {
                    if v == f {
                        return Term::var(t.clone());
                    }
                }
                term.clone()
            }
            c => c.clone(),
        }
    };
    ConjunctiveQuery {
        head: Atom::new(fresh.head.relation.clone(), fresh.head.terms.iter().map(ren).collect()),
        body: fresh
            .body
            .iter()
            .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(ren).collect()))
            .collect(),
        comparisons: fresh
            .comparisons
            .iter()
            .map(|c| crate::ast::Comparison { left: ren(&c.left), op: c.op, right: ren(&c.right) })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicon::rewrite_using_views;
    use crate::unfold::unfold_with;

    #[test]
    fn parse_and_normalize() {
        let m = GlavMapping::parse(
            "m1",
            "Berkeley",
            "MIT",
            "m(T, S) :- Berkeley.course(C, T, S) ==> m(T, S) :- MIT.subject(X, T, S)",
        )
        .unwrap();
        assert_eq!(m.head_vars, vec!["T", "S"]);
        assert_eq!(m.gav_rule().body[0].relation, "Berkeley.course");
        assert_eq!(m.lav_view().body[0].relation, "MIT.subject");
        // Accented relation and variable names parse rather than panic.
        let m = GlavMapping::parse(
            "m2",
            "Paris",
            "MIT",
            "m(É) :- Paris.coursé(É) ==> m(É) :- MIT.subject(É)",
        )
        .unwrap();
        assert_eq!(m.head_vars, vec!["É"]);
        assert_eq!(m.gav_rule().body[0].relation, "Paris.coursé");
    }

    #[test]
    fn head_vars_aligned_across_sides() {
        // Target side uses different variable names; after alignment the
        // LAV view's head must use the source-side names.
        let m = GlavMapping::parse(
            "m1",
            "A",
            "B",
            "m(X) :- A.r(X) ==> m(Y) :- B.s(Y, Z)",
        )
        .unwrap();
        let lav = m.lav_view();
        assert_eq!(lav.head.terms[0], Term::var("X"));
        // The body uses X at the right position.
        assert_eq!(lav.body[0].terms[0], Term::var("X"));
    }

    #[test]
    fn end_to_end_edge_traversal() {
        // Query over MIT vocabulary; mapping from Berkeley to MIT.
        let m = GlavMapping::parse(
            "m1",
            "Berkeley",
            "MIT",
            "m(T, E) :- Berkeley.course(T, E) ==> m(T, E) :- MIT.subject(T, E)",
        )
        .unwrap();
        let q = parse_query("q(T) :- MIT.subject(T, E), E > 100").unwrap();
        // Step 1: MiniCon with the LAV view.
        let rw = rewrite_using_views(&q, &[m.lav_view()]);
        assert_eq!(rw.len(), 1);
        assert_eq!(rw[0].body[0].relation, "m1");
        // Step 2: unfold the virtual relation through the GAV rule.
        let expanded = unfold_with(&rw[0], &[m.gav_rule()], 4);
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].body[0].relation, "Berkeley.course");
        assert_eq!(expanded[0].comparisons.len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(GlavMapping::parse("m", "A", "B", "m(X) :- A.r(X) ==> m(X, Y) :- B.s(X, Y)")
            .is_err());
    }

    #[test]
    fn reversed_swaps_sides() {
        let m = GlavMapping::parse("m", "A", "B", "m(X) :- A.r(X) ==> m(X) :- B.s(X)").unwrap();
        let r = m.reversed();
        assert_eq!(r.source_peer, "B");
        assert_eq!(r.gav_rule().body[0].relation, "B.s");
        assert_eq!(r.lav_view().body[0].relation, "A.r");
    }

    #[test]
    fn missing_arrow_rejected() {
        assert!(GlavMapping::parse("m", "A", "B", "m(X) :- A.r(X)").is_err());
    }
}
