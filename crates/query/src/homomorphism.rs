//! Homomorphisms between conjunctive queries, and CQ/UCQ containment.
//!
//! `q1 ⊑ q2` (every answer of `q1` is an answer of `q2` over every
//! database) iff there is a homomorphism from `q2` into `q1` mapping head
//! to head positionally (Chandra–Merlin). Containment drives UCQ
//! minimization (§2.3: "minimizing qUCQ by eliminating disjuncts contained
//! in another").

use std::collections::HashMap;

use crate::atom::Atom;
use crate::cq::CQ;
use crate::term::{Term, VarId};

/// A variable assignment built during homomorphism search.
type Assignment = HashMap<VarId, Term>;

/// Find a homomorphism from `from` into `to`: a mapping `h` of `from`'s
/// variables to `to`'s terms such that every atom of `from` lands on an
/// atom of `to`, and `h(head(from)) == head(to)` positionally.
///
/// Returns the assignment if one exists.
pub fn homomorphism(from: &CQ, to: &CQ) -> Option<Assignment> {
    // Necessary condition: the search maps atoms only onto atoms with the
    // same predicate, so a predicate of `from` absent from `to` rules out
    // every mapping. Checked before any allocation, so the many failing
    // containment tests of PerfectRef and minimization stay cheap.
    if from
        .atoms()
        .iter()
        .any(|a| to.atoms().iter().all(|b| b.pred() != a.pred()))
    {
        return None;
    }
    search_homomorphism(from, to)
}

/// The homomorphism search itself, without [`homomorphism`]'s predicate
/// precheck. Exposed so property tests can check the precheck never
/// changes a result.
#[doc(hidden)]
pub fn search_homomorphism(from: &CQ, to: &CQ) -> Option<Assignment> {
    if from.head().len() != to.head().len() {
        return None;
    }
    let mut assign: Assignment = HashMap::new();
    // Seed with the head mapping.
    for (&ft, &tt) in from.head().iter().zip(to.head()) {
        match ft {
            Term::Const(c) => {
                if tt != Term::Const(c) {
                    return None;
                }
            }
            Term::Var(v) => match assign.get(&v) {
                Some(&prev) if prev != tt => return None,
                _ => {
                    assign.insert(v, tt);
                }
            },
        }
    }
    // Order atoms: most-constrained first (more already-assigned variables,
    // then rarer predicates in `to`).
    let mut pred_counts: HashMap<_, usize> = HashMap::new();
    for a in to.atoms() {
        *pred_counts.entry(a.pred()).or_insert(0) += 1;
    }
    let mut order: Vec<usize> = (0..from.atoms().len()).collect();
    order.sort_by_key(|&i| {
        let a = &from.atoms()[i];
        let assigned = a.vars().filter(|v| assign.contains_key(v)).count();
        let candidates = pred_counts.get(&a.pred()).copied().unwrap_or(0);
        (usize::MAX - assigned, candidates)
    });
    if search(from, to, &order, 0, &mut assign) {
        Some(assign)
    } else {
        None
    }
}

fn search(from: &CQ, to: &CQ, order: &[usize], depth: usize, assign: &mut Assignment) -> bool {
    if depth == order.len() {
        return true;
    }
    let atom = &from.atoms()[order[depth]];
    for target in to.atoms() {
        if target.pred() != atom.pred() {
            continue;
        }
        let mut trail: Vec<VarId> = Vec::new();
        if try_map_atom(atom, target, assign, &mut trail) {
            if search(from, to, order, depth + 1, assign) {
                return true;
            }
        }
        for v in trail {
            assign.remove(&v);
        }
    }
    false
}

/// Extend `assign` so that `atom` maps onto `target`; record new bindings
/// in `trail` for backtracking. Returns false (with partial trail) on
/// conflict.
fn try_map_atom(
    atom: &Atom,
    target: &Atom,
    assign: &mut Assignment,
    trail: &mut Vec<VarId>,
) -> bool {
    let pairs: Vec<(Term, Term)> = match (atom, target) {
        (Atom::Concept(_, t), Atom::Concept(_, u)) => vec![(*t, *u)],
        (Atom::Role(_, t1, t2), Atom::Role(_, u1, u2)) => vec![(*t1, *u1), (*t2, *u2)],
        _ => return false,
    };
    for (t, u) in pairs {
        match t {
            Term::Const(c) => {
                if u != Term::Const(c) {
                    return false;
                }
            }
            Term::Var(v) => match assign.get(&v) {
                Some(&prev) => {
                    if prev != u {
                        return false;
                    }
                }
                None => {
                    assign.insert(v, u);
                    trail.push(v);
                }
            },
        }
    }
    true
}

/// `q1 ⊑ q2`: is every answer of `q1` also an answer of `q2`, over every
/// database?
pub fn contained_in(q1: &CQ, q2: &CQ) -> bool {
    homomorphism(q2, q1).is_some()
}

/// `q1 ≡ q2`: mutual containment.
pub fn equivalent(q1: &CQ, q2: &CQ) -> bool {
    contained_in(q1, q2) && contained_in(q2, q1)
}

/// Is `cq` contained in the union of `disjuncts`? For plain CQs (no
/// interpreted predicates), containment in a union implies containment in a
/// single disjunct (Sagiv–Yannakakis), so this is a linear scan.
pub fn contained_in_union(cq: &CQ, disjuncts: &[CQ]) -> bool {
    disjuncts.iter().any(|d| contained_in(cq, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, IndividualId, RoleId};

    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }

    #[test]
    fn specialization_is_contained() {
        // q2(x) ← worksWith(y, x) contains q1(x) ← supervisedBy… no —
        // same predicate case: q_sup(x) ← r(x, y) ∧ A(x) is contained in
        // q_gen(x) ← r(x, y).
        let q_gen = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let q_spec = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Concept(ConceptId(0), v(0)),
            ],
        );
        assert!(contained_in(&q_spec, &q_gen));
        assert!(!contained_in(&q_gen, &q_spec));
    }

    #[test]
    fn table5_q9_contained_in_q10() {
        // q9(x) ← supervisedBy(x, x) is contained in
        // q10(x) ← supervisedBy(x, y) (paper Table 5 / §2.3: q1..q9 are all
        // contained in q10).
        let q9 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        let q10 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        assert!(contained_in(&q9, &q10));
        assert!(!contained_in(&q10, &q9));
    }

    #[test]
    fn head_positions_must_align() {
        // q(x, y) ← r(x, y) vs q(y, x) ← r(x, y): not equivalent.
        let a = CQ::with_var_head(
            vec![VarId(0), VarId(1)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        );
        let b = CQ::with_var_head(
            vec![VarId(1), VarId(0)],
            vec![Atom::Role(RoleId(0), v(0), v(1))],
        );
        assert!(!contained_in(&a, &b));
        assert!(!contained_in(&b, &a));
        assert!(equivalent(&a, &a));
    }

    #[test]
    fn constants_must_match() {
        let qc = CQ::new(
            vec![Term::Var(VarId(0))],
            vec![Atom::Role(RoleId(0), v(0), Term::Const(IndividualId(5)))],
        );
        let qv = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        // Constant query is a specialization of the variable query.
        assert!(contained_in(&qc, &qv));
        assert!(!contained_in(&qv, &qc));
    }

    #[test]
    fn folding_two_atoms_onto_one() {
        // q_two(x) ← r(x, y) ∧ r(x, z) ≡ q_one(x) ← r(x, y): hom maps both
        // atoms onto the single one.
        let q_two = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Role(RoleId(0), v(0), v(1)),
                Atom::Role(RoleId(0), v(0), v(2)),
            ],
        );
        let q_one = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        assert!(equivalent(&q_two, &q_one));
    }

    #[test]
    fn path_not_contained_in_cycle_query() {
        // q_cycle(x) ← r(x, x); q_path(x) ← r(x, y). cycle ⊑ path but not
        // conversely.
        let q_cycle = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        let q_path = CQ::with_var_head(vec![VarId(0)], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        assert!(contained_in(&q_cycle, &q_path));
        assert!(!contained_in(&q_path, &q_cycle));
    }

    #[test]
    fn union_containment_scans_disjuncts() {
        let q = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        let d1 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(1), v(0))]);
        let d2 = CQ::with_var_head(vec![VarId(0)], vec![Atom::Concept(ConceptId(0), v(0))]);
        assert!(contained_in_union(&q, &[d1.clone(), d2]));
        assert!(!contained_in_union(&q, &[d1]));
    }

    #[test]
    fn boolean_queries() {
        let q1 = CQ::with_var_head(vec![], vec![Atom::Role(RoleId(0), v(0), v(1))]);
        let q2 = CQ::with_var_head(vec![], vec![Atom::Role(RoleId(0), v(0), v(0))]);
        assert!(contained_in(&q2, &q1));
        assert!(!contained_in(&q1, &q2));
    }
}
