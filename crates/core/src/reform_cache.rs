//! Memoized fragment reformulation.
//!
//! EDL and GDL evaluate many covers sharing fragments; reformulating a
//! fragment (PerfectRef + minimization) depends only on its atom set and
//! its exported head, so results are cached across candidate covers. This
//! is the practical trick that keeps cover search cheap relative to cost
//! estimation (§6.4).
//!
//! A reformulation reads the TBox and never the data (§2.2), so a
//! [`TBoxContext`] keeps fragment reformulations for as long as its TBox
//! lives: every compilation against the same TBox — across ABox commits
//! and reloads — reuses them, while a new TBox starts a new context and
//! so an empty memo.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use obda_dllite::{Dependencies, TBox, TBoxClosure};
use obda_query::{minimize_ucq, Term, CQ, JUCQ, UCQ};
use obda_reform::{fragment_query, perfect_ref_pruned};

use crate::cover::{AtomMask, Cover};

/// Most fragment disjuncts a [`TBoxContext`] memo holds. An insert that
/// would pass it first empties the memo (counted as evictions).
const MEMO_MAX_CQS: usize = 1 << 16;

/// Reformulate one query: PerfectRef, then (optionally) minimization.
pub(crate) fn reformulate(q: &CQ, tbox: &TBox, minimize: bool) -> UCQ {
    let ucq = perfect_ref_pruned(q, tbox);
    if minimize {
        minimize_ucq(&ucq)
    } else {
        ucq
    }
}

/// Memo lookups made by one compilation, and the entries its inserts
/// evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct Memo {
    /// (exact query, minimize flag) → its reformulation.
    entries: HashMap<(CQ, bool), Arc<UCQ>>,
    /// Disjuncts held across all entries.
    cqs: usize,
    /// Most disjuncts held ([`MEMO_MAX_CQS`] outside tests).
    max_cqs: usize,
}

/// A TBox with what is derived from it alone: the predicate
/// dependencies, the TBox closure (computed on first use) and a memo of
/// reformulations, keyed by the exact query and the minimize flag.
/// Shared behind one `Arc` by every generation that keeps the TBox; the
/// memo is bounded and safe to use from many threads (its lock is held
/// only for a lookup or an insert).
pub struct TBoxContext {
    tbox: TBox,
    deps: Dependencies,
    closure: OnceLock<TBoxClosure>,
    memo: Mutex<Memo>,
}

impl TBoxContext {
    pub fn new(tbox: TBox, deps: Dependencies) -> Self {
        Self::with_memo_bound(tbox, deps, MEMO_MAX_CQS)
    }

    fn with_memo_bound(tbox: TBox, deps: Dependencies, max_cqs: usize) -> Self {
        TBoxContext {
            tbox,
            deps,
            closure: OnceLock::new(),
            memo: Mutex::new(Memo {
                entries: HashMap::new(),
                cqs: 0,
                max_cqs,
            }),
        }
    }

    pub fn tbox(&self) -> &TBox {
        &self.tbox
    }

    pub fn deps(&self) -> &Dependencies {
        &self.deps
    }

    /// The TBox's entailed inclusions, which constraint mining reads.
    pub fn closure(&self) -> &TBoxClosure {
        self.closure
            .get_or_init(|| TBoxClosure::compute(&self.tbox))
    }

    /// Reformulations the memo holds.
    pub fn memo_entries(&self) -> usize {
        self.lock_memo().entries.len()
    }

    /// Poison recovery is sound: every memo state is consistent (an
    /// insert either happened or not, and a lost entry is recomputed).
    fn lock_memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The reformulation of `q` (PerfectRef, minimized when `minimize`),
    /// from the memo or computed and remembered. Equal to what a cold
    /// `perfect_ref_pruned` (+ `minimize_ucq`) returns, since the key is
    /// the exact query and the TBox is fixed for the context's lifetime.
    pub fn reformulate(&self, q: &CQ, minimize: bool, stats: &mut MemoStats) -> Arc<UCQ> {
        let key = (q.clone(), minimize);
        if let Some(hit) = self.lock_memo().entries.get(&key) {
            stats.hits += 1;
            return hit.clone();
        }
        stats.misses += 1;
        // Compute unlocked: concurrent misses on one key are idempotent.
        let ucq = Arc::new(reformulate(q, &self.tbox, minimize));
        let mut memo = self.lock_memo();
        if memo.cqs + ucq.len() > memo.max_cqs {
            stats.evictions += memo.entries.len() as u64;
            memo.entries.clear();
            memo.cqs = 0;
        }
        memo.cqs += ucq.len();
        if let Some(old) = memo.entries.insert(key, ucq.clone()) {
            memo.cqs -= old.len();
        }
        ucq
    }
}

/// Cache of fragment-UCQ reformulations for one (query, TBox) pair.
pub struct ReformCache<'a> {
    q: &'a CQ,
    tbox: &'a TBox,
    /// Where misses go first when set: the TBox-lifetime memo.
    context: Option<&'a TBoxContext>,
    /// Minimize each fragment UCQ before assembly (what a production
    /// rewriter like RAPID emits).
    pub minimize: bool,
    cache: HashMap<(AtomMask, Vec<Term>), Arc<UCQ>>,
    hits: usize,
    misses: usize,
    memo: MemoStats,
}

impl<'a> ReformCache<'a> {
    pub fn new(q: &'a CQ, tbox: &'a TBox, minimize: bool) -> Self {
        ReformCache {
            q,
            tbox,
            context: None,
            minimize,
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
            memo: MemoStats::default(),
        }
    }

    /// A cache whose misses consult `context`'s memo before reformulating.
    pub fn in_context(q: &'a CQ, context: &'a TBoxContext, minimize: bool) -> Self {
        ReformCache {
            context: Some(context),
            ..ReformCache::new(q, &context.tbox, minimize)
        }
    }

    /// Build the JUCQ reformulation of `cover` (Definition 3 / §5.2),
    /// reusing cached fragment reformulations.
    pub fn jucq_for(&mut self, cover: &Cover) -> JUCQ {
        let specs = cover.to_specs();
        let components: Vec<UCQ> = cover
            .fragments()
            .iter()
            .zip(&specs)
            .map(|(fr, spec)| {
                let fq = fragment_query(self.q, spec, &specs);
                let key = (fr.f, fq.head().to_vec());
                if let Some(u) = self.cache.get(&key) {
                    self.hits += 1;
                    return (**u).clone();
                }
                self.misses += 1;
                let ucq = match self.context {
                    Some(context) => context.reformulate(&fq, self.minimize, &mut self.memo),
                    None => Arc::new(reformulate(&fq, self.tbox, self.minimize)),
                };
                self.cache.insert(key, ucq.clone());
                (*ucq).clone()
            })
            .collect();
        JUCQ::new(self.q.head().to_vec(), components)
    }

    pub fn hits(&self) -> usize {
        self.hits
    }

    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Lookups this cache made in its context's memo (zero without one).
    pub fn memo_stats(&self) -> MemoStats {
        self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::Fragment;
    use obda_dllite::{example7_tbox, Dependencies};
    use obda_query::{Atom, VarId};

    fn setup() -> (CQ, obda_dllite::TBox) {
        let (voc, tbox) = example7_tbox();
        let phd = voc.find_concept("PhDStudent").unwrap();
        let works = voc.find_role("worksWith").unwrap();
        let sup = voc.find_role("supervisedBy").unwrap();
        let q = CQ::with_var_head(
            vec![VarId(0)],
            vec![
                Atom::Concept(phd, Term::Var(VarId(0))),
                Atom::Role(works, Term::Var(VarId(0)), Term::Var(VarId(1))),
                Atom::Role(sup, Term::Var(VarId(2)), Term::Var(VarId(1))),
            ],
        );
        (q, tbox)
    }

    #[test]
    fn repeated_covers_hit_the_cache() {
        let (q, tbox) = setup();
        let mut cache = ReformCache::new(&q, &tbox, true);
        let cover = Cover::new(vec![Fragment::simple(0b001), Fragment::simple(0b110)]);
        let j1 = cache.jucq_for(&cover);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        let j2 = cache.jucq_for(&cover);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(j1, j2);
    }

    #[test]
    fn shared_fragments_are_reused_across_covers() {
        let (q, tbox) = setup();
        let mut cache = ReformCache::new(&q, &tbox, true);
        let c1 = Cover::new(vec![Fragment::simple(0b001), Fragment::simple(0b110)]);
        let c2 = Cover::new(vec![
            Fragment::simple(0b001),
            Fragment::generalized(0b111, 0b110),
        ]);
        cache.jucq_for(&c1);
        let misses_before = cache.misses();
        cache.jucq_for(&c2);
        // Fragment {0} exports the same head in both covers — cached.
        assert_eq!(cache.misses(), misses_before + 1);
        assert!(cache.hits() >= 1);
    }

    /// The serving path compiles reformulations on worker threads; a
    /// cache mid-build must be movable across them (compile-time check).
    #[test]
    fn reform_cache_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ReformCache<'_>>();
    }

    fn context() -> TBoxContext {
        let (voc, tbox) = example7_tbox();
        let deps = Dependencies::compute(&voc, &tbox);
        TBoxContext::new(tbox, deps)
    }

    /// A second cache over the same context takes every fragment from the
    /// memo, and the JUCQ equals the memo-free one.
    #[test]
    fn context_memo_is_shared_across_caches_and_changes_nothing() {
        let (q, tbox) = setup();
        let ctx = context();
        let cover = Cover::new(vec![Fragment::simple(0b001), Fragment::simple(0b110)]);
        let plain = ReformCache::new(&q, &tbox, true).jucq_for(&cover);

        let mut first = ReformCache::in_context(&q, &ctx, true);
        assert_eq!(first.jucq_for(&cover), plain);
        let misses = first.memo_stats().misses;
        assert_eq!(first.memo_stats().hits, 0);
        assert_eq!(misses, 2);
        assert_eq!(ctx.memo_entries(), 2);

        let mut second = ReformCache::in_context(&q, &ctx, true);
        assert_eq!(second.jucq_for(&cover), plain);
        assert_eq!(second.memo_stats().hits, misses);
        assert_eq!(second.memo_stats().misses, 0);

        // The minimize flag is part of the key.
        let mut raw = ReformCache::in_context(&q, &ctx, false);
        assert_eq!(
            raw.jucq_for(&cover),
            ReformCache::new(&q, &tbox, false).jucq_for(&cover)
        );
        assert_eq!(raw.memo_stats().misses, 2);
    }

    /// Overflow empties the memo, counts the dropped entries, and keeps
    /// answering correctly.
    #[test]
    fn a_full_memo_starts_over() {
        let (q, _) = setup();
        let (voc, tbox) = example7_tbox();
        let deps = Dependencies::compute(&voc, &tbox);
        let ctx = TBoxContext::with_memo_bound(tbox.clone(), deps, 1);
        let mut stats = MemoStats::default();
        let whole = ctx.reformulate(&q, true, &mut stats);
        assert_eq!(*whole, minimize_ucq(&perfect_ref_pruned(&q, &tbox)));
        let shifted = q.shift_vars(10);
        ctx.reformulate(&shifted, true, &mut stats);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(ctx.memo_entries(), 1);
        ctx.reformulate(&shifted, true, &mut stats);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn minimized_components_are_no_larger() {
        let (q, tbox) = setup();
        let cover = Cover::trivial(q.num_atoms());
        let raw = ReformCache::new(&q, &tbox, false).jucq_for(&cover);
        let min = ReformCache::new(&q, &tbox, true).jucq_for(&cover);
        assert!(min.total_cqs() <= raw.total_cqs());
    }
}
