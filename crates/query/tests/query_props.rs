//! Property tests of the query-algebra primitives: unification,
//! homomorphisms, containment, canonicalization, cores.

use proptest::prelude::*;

use obda_query::homomorphism::search_homomorphism;
use obda_query::testkit::{random_connected_cq, random_tbox, KbShape, Rng};
use obda_query::{
    canonical_key, canonicalize, contained_in, cq_core, equivalent, homomorphism, mgu,
    same_modulo_renaming, Subst, CQ,
};

fn cq_from(seed: u64, atoms: usize) -> CQ {
    let mut rng = Rng::new(seed);
    let (voc, _) = random_tbox(&mut rng, &KbShape::default());
    random_connected_cq(&mut rng, &voc, atoms, 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// mgu really unifies, and is stable under argument order.
    #[test]
    fn mgu_unifies(seed in 0u64..10_000) {
        let cq = cq_from(seed, 3);
        for a in cq.atoms() {
            for b in cq.atoms() {
                if let Some(sigma) = mgu(a, b) {
                    prop_assert_eq!(a.apply(&sigma), b.apply(&sigma));
                }
                prop_assert_eq!(mgu(a, b).is_some(), mgu(b, a).is_some());
            }
        }
    }

    /// Containment is reflexive; equivalence is symmetric.
    #[test]
    fn containment_reflexive(seed in 0u64..10_000, atoms in 1usize..5) {
        let cq = cq_from(seed, atoms);
        prop_assert!(contained_in(&cq, &cq));
        prop_assert!(equivalent(&cq, &cq));
    }

    /// Renaming variables never changes the canonical key; the canonical
    /// form is a fixpoint.
    #[test]
    fn canonicalization_invariance(seed in 0u64..10_000, atoms in 1usize..5, shift in 1u32..50) {
        let cq = cq_from(seed, atoms);
        let shifted = cq.shift_vars(shift);
        prop_assert_eq!(canonical_key(&cq), canonical_key(&shifted));
        prop_assert!(same_modulo_renaming(&cq, &shifted));
        let canon = canonicalize(&cq);
        prop_assert_eq!(&canonicalize(&canon), &canon, "idempotent");
        prop_assert!(same_modulo_renaming(&canon, &cq));
    }

    /// The core is equivalent to the query and no larger.
    #[test]
    fn core_is_equivalent_and_minimal(seed in 0u64..10_000, atoms in 1usize..5) {
        let cq = cq_from(seed, atoms);
        let core = cq_core(&cq);
        prop_assert!(core.num_atoms() <= cq.num_atoms());
        prop_assert!(equivalent(&core, &cq));
    }

    /// A homomorphism found by the search is a real homomorphism: every
    /// atom of `from` maps into `to` under the returned assignment.
    #[test]
    fn homomorphism_is_sound(seed in 0u64..10_000) {
        let from = cq_from(seed, 2);
        let to = cq_from(seed.wrapping_add(1), 3);
        if let Some(assign) = homomorphism(&from, &to) {
            let mut sigma = Subst::new();
            for (v, t) in &assign {
                sigma.bind(*v, *t);
            }
            for atom in from.atoms() {
                let image = atom.apply(&sigma);
                prop_assert!(
                    to.atoms().contains(&image),
                    "atom image {:?} missing from target",
                    image
                );
            }
        }
    }

    /// The predicate precheck in `homomorphism` never changes a result:
    /// over random CQ pairs on one vocabulary (plus a pair where a
    /// homomorphism exists by construction, tested both ways), it returns
    /// exactly what the unguarded search returns.
    #[test]
    fn predicate_precheck_preserves_search(
        seed in 0u64..10_000,
        from_atoms in 1usize..5,
        to_atoms in 1usize..6,
    ) {
        let mut rng = Rng::new(seed);
        let (voc, _) = random_tbox(&mut rng, &KbShape::default());
        let from = random_connected_cq(&mut rng, &voc, from_atoms, 2);
        let to = random_connected_cq(&mut rng, &voc, to_atoms, 2);
        let mut atoms = from.atoms().to_vec();
        atoms.extend_from_slice(to.shift_vars(100).atoms());
        let extended = CQ::new(from.head().to_vec(), atoms);
        for (x, y) in [(&from, &to), (&to, &from), (&from, &extended), (&extended, &from)] {
            prop_assert_eq!(homomorphism(x, y), search_homomorphism(x, y));
        }
        prop_assert!(homomorphism(&from, &extended).is_some());
    }

    /// Substitution application is idempotent for fully-resolved
    /// substitutions produced by mgu.
    #[test]
    fn mgu_application_idempotent(seed in 0u64..10_000) {
        let cq = cq_from(seed, 3);
        let atoms = cq.atoms();
        if atoms.len() >= 2 {
            if let Some(sigma) = mgu(&atoms[0], &atoms[1]) {
                let once = cq.apply(&sigma);
                let twice = once.apply(&sigma);
                prop_assert_eq!(once, twice);
            }
        }
    }
}
