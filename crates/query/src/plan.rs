//! Physical query plans — the paper's parse tree of Sec. IV-D (Fig. 4).
//!
//! The planner lowers a [`Cpq`] into a tree of LOOKUP / JOIN / CONJUNCTION
//! nodes with identity *fused* into the operators, applying the paper's
//! three optimizations: (1) sorted-merge physical operators (the executors'
//! concern), (2) the rewrite `q ∘ id = q` so only `q ∩ id` remains as
//! IDENTITY, and (3) IDENTITY executed together with the other operators
//! (the `…Id` node variants). Maximal label chains are chunked into
//! LOOKUPs of length ≤ k; an `is_indexed` oracle lets interest-aware indexes
//! force splits of non-indexed sequences (Sec. V-B).

use crate::ast::Cpq;
use cpqx_graph::{ExtLabel, LabelSeq};

/// A physical plan node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Plan {
    /// The whole-identity relation (the bare query `id`).
    AllId,
    /// Index lookup of a label sequence (length `1..=k`).
    Lookup(LabelSeq),
    /// Fused `⟦seq⟧ ∩ id` (the paper's LOOK UP with IDENTITY).
    LookupId(LabelSeq),
    /// Relational join of two sub-plans.
    Join(Box<Plan>, Box<Plan>),
    /// Fused `(left ∘ right) ∩ id`.
    JoinId(Box<Plan>, Box<Plan>),
    /// Conjunction (set intersection) of two sub-plans.
    Conj(Box<Plan>, Box<Plan>),
    /// Fused `(left ∩ right) ∩ id`.
    ConjId(Box<Plan>, Box<Plan>),
}

impl Plan {
    /// Number of LOOKUP leaves (Thm. 4.5's cost drivers α₁/α₂ relate to the
    /// join/conjunction node counts below).
    pub fn lookup_count(&self) -> usize {
        match self {
            Plan::AllId => 0,
            Plan::Lookup(_) | Plan::LookupId(_) => 1,
            Plan::Join(a, b) | Plan::JoinId(a, b) | Plan::Conj(a, b) | Plan::ConjId(a, b) => {
                a.lookup_count() + b.lookup_count()
            }
        }
    }

    /// Number of JOIN nodes (α₁ in Thm. 4.5).
    pub fn join_count(&self) -> usize {
        match self {
            Plan::AllId | Plan::Lookup(_) | Plan::LookupId(_) => 0,
            Plan::Join(a, b) | Plan::JoinId(a, b) => 1 + a.join_count() + b.join_count(),
            Plan::Conj(a, b) | Plan::ConjId(a, b) => a.join_count() + b.join_count(),
        }
    }

    /// Number of CONJUNCTION nodes (α₂ in Thm. 4.5).
    pub fn conj_count(&self) -> usize {
        match self {
            Plan::AllId | Plan::Lookup(_) | Plan::LookupId(_) => 0,
            Plan::Conj(a, b) | Plan::ConjId(a, b) => 1 + a.conj_count() + b.conj_count(),
            Plan::Join(a, b) | Plan::JoinId(a, b) => a.conj_count() + b.conj_count(),
        }
    }

    /// All LOOKUP label sequences in the plan.
    pub fn lookup_seqs(&self) -> Vec<LabelSeq> {
        let mut out = Vec::new();
        self.collect_seqs(&mut out);
        out
    }

    /// The plan of the inverse relation `{(u, v) | (v, u) ∈ ⟦self⟧}` — a
    /// pure structural rewrite: a LOOKUP of `s` becomes the LOOKUP of
    /// `s⁻¹` reversed (`s ∈ L≤k(v,u) ⇔ s⁻¹ ∈ L≤k(u,v)`), a join swaps and
    /// inverts its operands, a conjunction inverts component-wise, and
    /// everything restricted to the identity is its own inverse.
    ///
    /// The inverted sequences have the same lengths as the originals but
    /// need not be indexed by an interest-aware index; callers check
    /// [`Plan::lookup_seqs`] of the result before executing it.
    pub fn inverse(&self) -> Plan {
        match self {
            Plan::Lookup(s) => Plan::Lookup(s.reversed_inverse()),
            Plan::Join(a, b) => Plan::Join(Box::new(b.inverse()), Box::new(a.inverse())),
            Plan::Conj(a, b) => Plan::Conj(Box::new(a.inverse()), Box::new(b.inverse())),
            Plan::AllId | Plan::LookupId(_) | Plan::JoinId(..) | Plan::ConjId(..) => self.clone(),
        }
    }

    fn collect_seqs(&self, out: &mut Vec<LabelSeq>) {
        match self {
            Plan::AllId => {}
            Plan::Lookup(s) | Plan::LookupId(s) => out.push(*s),
            Plan::Join(a, b) | Plan::JoinId(a, b) | Plan::Conj(a, b) | Plan::ConjId(a, b) => {
                a.collect_seqs(out);
                b.collect_seqs(out);
            }
        }
    }
}

impl std::fmt::Display for Plan {
    /// Indented plan tree, EXPLAIN-style.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn rec(p: &Plan, f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
            let pad = "  ".repeat(depth);
            match p {
                Plan::AllId => writeln!(f, "{pad}IDENTITY (all vertices)"),
                Plan::Lookup(s) => writeln!(f, "{pad}LOOKUP {s:?}"),
                Plan::LookupId(s) => writeln!(f, "{pad}LOOKUP∩id {s:?}"),
                Plan::Join(a, b) | Plan::JoinId(a, b) => {
                    let tag = if matches!(p, Plan::JoinId(..)) {
                        "JOIN∩id (as CONJUNCTION with inverse)"
                    } else {
                        "JOIN"
                    };
                    writeln!(f, "{pad}{tag}")?;
                    rec(a, f, depth + 1)?;
                    rec(b, f, depth + 1)
                }
                Plan::Conj(a, b) | Plan::ConjId(a, b) => {
                    let tag = if matches!(p, Plan::ConjId(..)) {
                        "CONJUNCTION∩id"
                    } else {
                        "CONJUNCTION"
                    };
                    writeln!(f, "{pad}{tag}")?;
                    rec(a, f, depth + 1)?;
                    rec(b, f, depth + 1)
                }
            }
        }
        rec(self, f, 0)
    }
}

/// One factor of a flattened join chain: either a run of plain labels or a
/// complex (conjunction) subquery.
enum Factor<'q> {
    Labels(Vec<ExtLabel>),
    Complex(&'q Cpq),
}

/// Lowers `q` into a physical plan.
///
/// * `k` — the index path-length parameter; label chains are chunked into
///   LOOKUPs of at most `k` labels.
/// * `is_indexed` — whether a sequence of length `2..=k` can be answered by
///   one lookup. Full indexes (CPQx, Path) answer every sequence of length
///   ≤ k; interest-aware indexes only the interests plus all length-1
///   sequences (which are always indexed, Sec. V-A).
pub fn plan_query(q: &Cpq, k: usize, is_indexed: &dyn Fn(&LabelSeq) -> bool) -> Plan {
    assert!(k >= 1, "index parameter k must be at least 1");
    build(q, k, is_indexed)
}

/// Convenience planner for full indexes: every sequence of length ≤ k is
/// answerable by one lookup.
pub fn plan_for_k(q: &Cpq, k: usize) -> Plan {
    plan_query(q, k, &|_seq| true)
}

fn build(q: &Cpq, k: usize, is_indexed: &dyn Fn(&LabelSeq) -> bool) -> Plan {
    match q {
        Cpq::Id => Plan::AllId,
        Cpq::Label(l) => Plan::Lookup(LabelSeq::single(*l)),
        Cpq::Conj(..) => {
            // Flatten nested conjunctions; `∩ id` becomes a fused variant.
            let mut conjuncts = Vec::new();
            flatten_conj(q, &mut conjuncts);
            let mut has_id = false;
            let mut plans = Vec::new();
            for c in conjuncts {
                if matches!(c, Cpq::Id) {
                    has_id = true;
                } else {
                    plans.push(build(c, k, is_indexed));
                }
            }
            let Some(mut plan) = plans.pop() else {
                return Plan::AllId; // id ∩ id ∩ …
            };
            while let Some(p) = plans.pop() {
                plan = Plan::Conj(Box::new(p), Box::new(plan));
            }
            if has_id {
                fuse_id(plan)
            } else {
                plan
            }
        }
        Cpq::Join(..) => {
            let mut factors = Vec::new();
            flatten_join(q, &mut factors);
            // `q ∘ id = q`: drop identity factors.
            let mut parts: Vec<Factor<'_>> = Vec::new();
            for f in factors {
                match f {
                    Cpq::Id => {}
                    Cpq::Label(l) => match parts.last_mut() {
                        Some(Factor::Labels(run)) => run.push(*l),
                        _ => parts.push(Factor::Labels(vec![*l])),
                    },
                    complex => parts.push(Factor::Complex(complex)),
                }
            }
            if parts.is_empty() {
                return Plan::AllId; // id ∘ id ∘ …
            }
            let mut plans = Vec::new();
            for part in parts {
                match part {
                    Factor::Labels(run) => chunk_run(&run, k, is_indexed, &mut plans),
                    Factor::Complex(c) => plans.push(build(c, k, is_indexed)),
                }
            }
            let mut it = plans.into_iter();
            let mut plan = it.next().unwrap();
            for p in it {
                plan = Plan::Join(Box::new(plan), Box::new(p));
            }
            plan
        }
    }
}

/// Splits a maximal label run into LOOKUPs, greedily taking the longest
/// indexed prefix (≤ k); single labels are always indexed.
fn chunk_run(
    run: &[ExtLabel],
    k: usize,
    is_indexed: &dyn Fn(&LabelSeq) -> bool,
    out: &mut Vec<Plan>,
) {
    let mut i = 0;
    while i < run.len() {
        let max_len = k.min(run.len() - i).min(cpqx_graph::MAX_SEQ_LEN);
        let mut taken = 1;
        for len in (2..=max_len).rev() {
            let seq = LabelSeq::from_slice(&run[i..i + len]);
            if is_indexed(&seq) {
                taken = len;
                break;
            }
        }
        out.push(Plan::Lookup(LabelSeq::from_slice(&run[i..i + taken])));
        i += taken;
    }
}

fn flatten_conj<'q>(q: &'q Cpq, out: &mut Vec<&'q Cpq>) {
    match q {
        Cpq::Conj(a, b) => {
            flatten_conj(a, out);
            flatten_conj(b, out);
        }
        other => out.push(other),
    }
}

fn flatten_join<'q>(q: &'q Cpq, out: &mut Vec<&'q Cpq>) {
    match q {
        Cpq::Join(a, b) => {
            flatten_join(a, out);
            flatten_join(b, out);
        }
        other => out.push(other),
    }
}

/// Fuses a trailing `∩ id` into the plan's root operator (the paper's
/// LOOK-UP-ID / JOIN-ID / CONJUNCTION-ID nodes).
fn fuse_id(plan: Plan) -> Plan {
    match plan {
        Plan::Lookup(s) => Plan::LookupId(s),
        Plan::Join(a, b) => Plan::JoinId(a, b),
        Plan::Conj(a, b) => Plan::ConjId(a, b),
        // Already identity-restricted (or the identity itself).
        fused => fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::Label;

    fn l(i: u16) -> ExtLabel {
        Label(i).fwd()
    }

    fn seq(ls: &[ExtLabel]) -> LabelSeq {
        LabelSeq::from_slice(ls)
    }

    #[test]
    fn chain_is_chunked_by_k() {
        // Fig. 4: ℓ1∘ℓ2∘ℓ3 with k = 2 → LOOKUP⟨ℓ1,ℓ2⟩ ⋈ LOOKUP⟨ℓ3⟩.
        let q = Cpq::chain(&[l(0), l(1), l(2)]);
        let p = plan_for_k(&q, 2);
        assert_eq!(
            p,
            Plan::Join(
                Box::new(Plan::Lookup(seq(&[l(0), l(1)]))),
                Box::new(Plan::Lookup(seq(&[l(2)]))),
            )
        );
        let p1 = plan_for_k(&q, 1);
        assert_eq!(p1.lookup_count(), 3);
        assert_eq!(p1.join_count(), 2);
        let p3 = plan_for_k(&q, 3);
        assert_eq!(p3, Plan::Lookup(seq(&[l(0), l(1), l(2)])));
    }

    #[test]
    fn join_with_id_is_rewritten_away() {
        // q ∘ id = q (paper's second optimization).
        let q = Cpq::ext(l(0)).join(Cpq::Id).join(Cpq::ext(l(1)));
        let p = plan_for_k(&q, 2);
        assert_eq!(p, Plan::Lookup(seq(&[l(0), l(1)])));
    }

    #[test]
    fn conj_id_is_fused() {
        let q = Cpq::chain(&[l(0), l(1)]).with_id();
        assert_eq!(plan_for_k(&q, 2), Plan::LookupId(seq(&[l(0), l(1)])));
        let q = Cpq::chain(&[l(0), l(1), l(2)]).with_id();
        assert!(matches!(plan_for_k(&q, 2), Plan::JoinId(..)));
        let q = Cpq::chain(&[l(0), l(1)]).conj(Cpq::ext(l(2))).with_id();
        assert!(matches!(plan_for_k(&q, 2), Plan::ConjId(..)));
    }

    #[test]
    fn fig4_example_shape() {
        // [(ℓ1∘ℓ2∘ℓ3) ∩ (ℓ4∘ℓ5)] ∩ id with k = 2.
        let q = Cpq::chain(&[l(1), l(2), l(3)]).conj(Cpq::chain(&[l(4), l(5)])).with_id();
        let p = plan_for_k(&q, 2);
        match p {
            Plan::ConjId(left, right) => {
                assert!(matches!(*left, Plan::Join(..)));
                assert_eq!(*right, Plan::Lookup(seq(&[l(4), l(5)])));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn pure_identity_queries() {
        assert_eq!(plan_for_k(&Cpq::Id, 2), Plan::AllId);
        assert_eq!(plan_for_k(&Cpq::Id.clone().conj(Cpq::Id), 2), Plan::AllId);
        assert_eq!(plan_for_k(&Cpq::Id.clone().join(Cpq::Id), 2), Plan::AllId);
    }

    #[test]
    fn interest_oracle_forces_splits() {
        // Only ⟨l0,l1⟩ is indexed; ⟨l1,l2⟩ or ⟨l2,l3⟩ must split.
        let indexed = seq(&[l(0), l(1)]);
        let oracle = move |s: &LabelSeq| *s == indexed;
        let q = Cpq::chain(&[l(0), l(1), l(2), l(3)]);
        let p = plan_query(&q, 2, &oracle);
        let seqs = p.lookup_seqs();
        assert_eq!(seqs[0], seq(&[l(0), l(1)]));
        assert_eq!(seqs[1], seq(&[l(2)]));
        assert_eq!(seqs[2], seq(&[l(3)]));
    }

    #[test]
    fn counts_match_structure() {
        let q = Cpq::chain(&[l(0), l(1)]).conj(Cpq::chain(&[l(2), l(3)])).join(Cpq::ext(l(4)));
        let p = plan_for_k(&q, 2);
        assert_eq!(p.lookup_count(), 3);
        assert_eq!(p.join_count(), 1);
        assert_eq!(p.conj_count(), 1);
    }

    #[test]
    fn inverse_is_structural_and_involutive() {
        // (ℓ0ℓ1 ∘ ℓ2) ∩ ℓ3 inverts to (ℓ2⁻¹ ∘ ℓ1⁻¹ℓ0⁻¹) ∩ ℓ3⁻¹.
        let q = Cpq::chain(&[l(0), l(1), l(2)]).conj(Cpq::ext(l(3)));
        let p = plan_for_k(&q, 2);
        let inv = |i: u16| Label(i).inv();
        assert_eq!(
            p.inverse(),
            Plan::Conj(
                Box::new(Plan::Join(
                    Box::new(Plan::Lookup(seq(&[inv(2)]))),
                    Box::new(Plan::Lookup(seq(&[inv(1), inv(0)]))),
                )),
                Box::new(Plan::Lookup(seq(&[inv(3)]))),
            )
        );
        assert_eq!(p.inverse().inverse(), p);
        // Identity-restricted relations are symmetric.
        let cyclic = plan_for_k(&Cpq::chain(&[l(0), l(1), l(2)]).with_id(), 2);
        assert_eq!(cyclic.inverse(), cyclic);
        assert_eq!(Plan::AllId.inverse(), Plan::AllId);
    }

    #[test]
    fn printer_names_the_cycle_closing_strategy() {
        let cyclic = plan_for_k(&Cpq::chain(&[l(0), l(1), l(2)]).with_id(), 2);
        let text = cyclic.to_string();
        assert!(text.starts_with("JOIN∩id (as CONJUNCTION with inverse)\n"), "{text}");
        assert!(!plan_for_k(&Cpq::chain(&[l(0), l(1), l(2)]), 2).to_string().contains("inverse"));
    }

    #[test]
    fn nested_conj_flattens() {
        let q = Cpq::ext(l(0)).conj(Cpq::ext(l(1)).conj(Cpq::ext(l(2))));
        let p = plan_for_k(&q, 2);
        assert_eq!(p.conj_count(), 2);
        assert_eq!(p.lookup_count(), 3);
    }
}
