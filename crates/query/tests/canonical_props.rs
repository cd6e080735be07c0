//! `canonical_key` is `cache_key` without the second canonicalization:
//! on random CPQ trees the key of the canonical form is the key of the
//! query, so a caller that already holds the canonical form (the engine)
//! may render it directly.

use cpqx_graph::ExtLabel;
use cpqx_query::{cache_key, canonical_key, canonicalize, Cpq};
use proptest::prelude::*;

/// Few labels and an identity leaf, so duplicate conjuncts, `∘ id`
/// no-ops and re-associated joins — everything canonicalization
/// rewrites — occur often.
fn cpq_tree() -> BoxedStrategy<Cpq> {
    let leaf = prop_oneof![
        5 => (0u16..6).prop_map(|l| Cpq::ext(ExtLabel(l))),
        1 => Just(Cpq::Id),
    ];
    leaf.boxed().prop_recursive(5, 48, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.conj(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_key_of_the_canonical_form_is_the_key_of_the_query(q in cpq_tree()) {
        let canonical = canonicalize(&q);
        prop_assert_eq!(canonical_key(&canonical), cache_key(&q), "query {:?}", q);
        // ... and of the canonical form itself (canonicalize is idempotent).
        prop_assert_eq!(cache_key(&canonical), cache_key(&q));
    }
}
