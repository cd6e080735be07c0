//! Query canonicalization — stable cache keys for semantically equal CPQs.
//!
//! Two CPQs that differ only in conjunct order, join/conjunction
//! associativity, duplicate conjuncts, or identity no-ops denote the same
//! relation. A serving layer that caches plans or results per query text
//! would miss all of those equalities, so this module rewrites a [`Cpq`]
//! into a canonical representative:
//!
//! * joins are flattened and re-associated left-to-right, and identity
//!   factors are dropped (`q ∘ id = id ∘ q = q`, the planner's rewrite 2);
//! * conjunctions are flattened, deduplicated (`q ∩ q = q`), and sorted by
//!   a total syntactic order (`∩` is commutative and associative);
//! * an identity conjunct, if any, is moved to a single trailing `∩ id`
//!   (the planner fuses exactly that shape);
//! * `id ∩ id`, `id ∘ id` and friends collapse to `id`.
//!
//! [`canonical_key`] renders a canonical form as a compact string over
//! extended-label ids — the key the engine's plan and result caches use;
//! [`cache_key`] canonicalizes first, for callers that hold a raw query.
//! Canonicalization is purely syntactic and graph-independent; it never
//! changes query semantics (every rewrite above is an identity of the CPQ
//! algebra, Sec. III-B).

use crate::ast::Cpq;

/// Rewrites `q` into its canonical representative (see module docs).
/// Idempotent: `canonicalize(&canonicalize(q)) == canonicalize(q)`.
pub fn canonicalize(q: &Cpq) -> Cpq {
    match q {
        Cpq::Id => Cpq::Id,
        Cpq::Label(l) => Cpq::Label(*l),
        Cpq::Join(..) => {
            let mut factors = Vec::new();
            collect_join_factors(q, &mut factors);
            rebuild_join(factors)
        }
        Cpq::Conj(..) => {
            let mut conjuncts = Vec::new();
            let mut has_id = false;
            collect_conjuncts(q, &mut conjuncts, &mut has_id);
            rebuild_conj(conjuncts, has_id)
        }
    }
}

/// The canonical cache key of `q`: a compact, injective rendering of its
/// canonical form over extended-label ids (`l3`, `j(...)`, `c(...)`, `i`).
pub fn cache_key(q: &Cpq) -> String {
    canonical_key(&canonicalize(q))
}

/// The cache key of an already canonical query — [`cache_key`] without the
/// second canonicalization, for callers that need the canonical form too.
/// On a non-canonical `q` it renders `q` as written, which is not a key.
pub fn canonical_key(canonical: &Cpq) -> String {
    let mut s = String::new();
    encode_into(canonical, &mut s);
    s
}

/// Flattens a join tree, canonicalizes every factor, drops identities and
/// re-flattens factors whose canonical form is itself a join.
fn collect_join_factors(q: &Cpq, out: &mut Vec<Cpq>) {
    match q {
        Cpq::Join(a, b) => {
            collect_join_factors(a, out);
            collect_join_factors(b, out);
        }
        other => {
            let canon = canonicalize(other);
            match canon {
                Cpq::Id => {}
                // A factor can canonicalize into a join (e.g. `(a∘b) ∩
                // (b∘a ∩ a∘b)` → `a∘b` after dedup+sort): splice it in.
                Cpq::Join(..) => splice_join(canon, out),
                other => out.push(other),
            }
        }
    }
}

fn splice_join(q: Cpq, out: &mut Vec<Cpq>) {
    match q {
        Cpq::Join(a, b) => {
            splice_join(*a, out);
            splice_join(*b, out);
        }
        other => out.push(other),
    }
}

fn rebuild_join(factors: Vec<Cpq>) -> Cpq {
    let mut it = factors.into_iter();
    let Some(first) = it.next() else {
        return Cpq::Id; // id ∘ id ∘ … = id
    };
    it.fold(first, |acc, f| acc.join(f))
}

/// Flattens a conjunction tree, canonicalizes every conjunct, splices
/// nested canonical conjunctions and records identity conjuncts.
fn collect_conjuncts(q: &Cpq, out: &mut Vec<Cpq>, has_id: &mut bool) {
    match q {
        Cpq::Conj(a, b) => {
            collect_conjuncts(a, out, has_id);
            collect_conjuncts(b, out, has_id);
        }
        other => {
            let canon = canonicalize(other);
            splice_conj(canon, out, has_id);
        }
    }
}

fn splice_conj(q: Cpq, out: &mut Vec<Cpq>, has_id: &mut bool) {
    match q {
        Cpq::Id => *has_id = true,
        Cpq::Conj(a, b) => {
            splice_conj(*a, out, has_id);
            splice_conj(*b, out, has_id);
        }
        other => out.push(other),
    }
}

fn rebuild_conj(mut conjuncts: Vec<Cpq>, has_id: bool) -> Cpq {
    conjuncts.sort_by_cached_key(canonical_key);
    conjuncts.dedup();
    let mut it = conjuncts.into_iter();
    let Some(first) = it.next() else {
        return Cpq::Id; // id ∩ id ∩ … = id
    };
    let folded = it.fold(first, |acc, c| acc.conj(c));
    if has_id {
        folded.with_id()
    } else {
        folded
    }
}

/// Injective compact rendering used both as the sort order and the cache
/// key. Stable across processes (depends only on extended-label ids).
fn encode_into(q: &Cpq, s: &mut String) {
    use std::fmt::Write;
    match q {
        Cpq::Id => s.push('i'),
        Cpq::Label(l) => {
            let _ = write!(s, "l{}", l.0);
        }
        Cpq::Join(a, b) => {
            s.push_str("j(");
            encode_into(a, s);
            s.push(',');
            encode_into(b, s);
            s.push(')');
        }
        Cpq::Conj(a, b) => {
            s.push_str("c(");
            encode_into(a, s);
            s.push(',');
            encode_into(b, s);
            s.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_reference;
    use cpqx_graph::{generate, ExtLabel, Label};

    fn l(i: u16) -> Cpq {
        Cpq::ext(Label(i).fwd())
    }

    #[test]
    fn conjunction_order_is_normalized() {
        let a = l(0).join(l(1)).conj(l(2));
        let b = l(2).conj(l(0).join(l(1)));
        assert_eq!(canonicalize(&a), canonicalize(&b));
        assert_eq!(cache_key(&a), cache_key(&b));
    }

    #[test]
    fn join_associativity_is_normalized() {
        let a = l(0).join(l(1)).join(l(2));
        let b = l(0).join(l(1).join(l(2)));
        assert_eq!(canonicalize(&a), canonicalize(&b));
        assert_ne!(cache_key(&a), cache_key(&l(2).join(l(1)).join(l(0))), "join is ordered");
    }

    #[test]
    fn identity_no_ops_are_dropped() {
        let q = l(0).join(Cpq::Id).join(l(1));
        assert_eq!(canonicalize(&q), canonicalize(&l(0).join(l(1))));
        assert_eq!(canonicalize(&Cpq::Id.join(Cpq::Id)), Cpq::Id);
        assert_eq!(canonicalize(&Cpq::Id.conj(Cpq::Id)), Cpq::Id);
        // But ∩ id is semantic (loop restriction) and must survive.
        let q = l(0).with_id();
        assert!(matches!(canonicalize(&q), Cpq::Conj(_, b) if *b == Cpq::Id));
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        let q = l(0).conj(l(0)).conj(l(0));
        assert_eq!(canonicalize(&q), l(0));
        let q = l(0).conj(l(1)).conj(l(0));
        assert_eq!(canonicalize(&q), canonicalize(&l(0).conj(l(1))));
    }

    #[test]
    fn nested_id_conjunctions_hoist() {
        // (a ∩ id) ∩ (b ∩ id) and (a ∩ b) ∩ id share a canonical form.
        let a = l(0).with_id().conj(l(1).with_id());
        let b = l(0).conj(l(1)).with_id();
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let qs = [
            l(0),
            Cpq::Id,
            l(0).join(l(1)).conj(l(2).join(l(3))).with_id(),
            l(1).conj(l(0)).join(l(2).conj(l(2))),
            Cpq::Id.join(l(0).conj(l(1)).conj(l(0))),
        ];
        for q in &qs {
            let once = canonicalize(q);
            assert_eq!(canonicalize(&once), once, "not idempotent for {q:?}");
        }
    }

    #[test]
    fn encode_is_injective_on_structure() {
        assert_ne!(canonical_key(&l(0).join(l(1))), canonical_key(&l(0).conj(l(1))));
        assert_ne!(canonical_key(&l(0)), canonical_key(&Cpq::ext(Label(0).inv())));
        assert_ne!(canonical_key(&l(10)), canonical_key(&l(1)));
    }

    #[test]
    fn canonicalization_preserves_semantics() {
        // Deterministic sweep over structured queries on the running
        // example graph: canonical form evaluates identically.
        let g = generate::gex();
        let nl = g.ext_label_count();
        let lbl = |i: u16| Cpq::ext(ExtLabel(i % nl));
        let mut queries = Vec::new();
        for i in 0..nl {
            for j in 0..nl {
                queries.push(lbl(i).join(lbl(j)).conj(lbl(j).join(lbl(i))));
                queries.push(lbl(j).conj(lbl(i)).conj(lbl(j)).with_id());
                queries.push(
                    lbl(i).join(Cpq::Id).join(lbl(j)).conj(Cpq::Id.conj(lbl(i).join(lbl(j)))),
                );
            }
        }
        for q in &queries {
            let canon = canonicalize(q);
            assert_eq!(
                eval_reference(&g, q),
                eval_reference(&g, &canon),
                "semantics changed for {q:?} -> {canon:?}"
            );
        }
    }
}
