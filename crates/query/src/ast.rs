//! The CPQ algebra and the paper's query templates (Fig. 5).

use cpqx_graph::{ExtLabel, Graph, Label};

/// A conjunctive path query expression.
///
/// Grammar (Sec. III-B): `CPQ ::= id | ℓ | CPQ ∘ CPQ | CPQ ∩ CPQ | (CPQ)`.
/// Labels are *extended* labels, so `ℓ⁻¹` is a plain `Label` node carrying
/// an inverse [`ExtLabel`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cpq {
    /// The identity relation `{(v, v) | v ∈ V}`.
    Id,
    /// A single (extended) edge label `ℓ` or `ℓ⁻¹`.
    Label(ExtLabel),
    /// Composition `q₁ ∘ q₂` (relational join on the middle vertex).
    Join(Box<Cpq>, Box<Cpq>),
    /// Conjunction `q₁ ∩ q₂` (intersection of the result sets).
    Conj(Box<Cpq>, Box<Cpq>),
}

impl Cpq {
    /// A forward label atom.
    pub fn label(l: Label) -> Cpq {
        Cpq::Label(l.fwd())
    }

    /// An inverse label atom (`ℓ⁻¹`).
    pub fn inv(l: Label) -> Cpq {
        Cpq::Label(l.inv())
    }

    /// An extended-label atom.
    pub fn ext(l: ExtLabel) -> Cpq {
        Cpq::Label(l)
    }

    /// `self ∘ other`.
    pub fn join(self, other: Cpq) -> Cpq {
        Cpq::Join(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn conj(self, other: Cpq) -> Cpq {
        Cpq::Conj(Box::new(self), Box::new(other))
    }

    /// `self ∩ id` — the cyclic-pattern restriction.
    pub fn with_id(self) -> Cpq {
        self.conj(Cpq::Id)
    }

    /// A join chain over extended labels; `seq` must be non-empty.
    pub fn chain(seq: &[ExtLabel]) -> Cpq {
        assert!(!seq.is_empty(), "chain needs at least one label");
        let mut it = seq.iter();
        let mut q = Cpq::ext(*it.next().unwrap());
        for &l in it {
            q = q.join(Cpq::ext(l));
        }
        q
    }

    /// The query diameter (Sec. III-B): `dia(id) = 0`, `dia(ℓ) = 1`,
    /// `dia(q₁ ∩ q₂) = max`, `dia(q₁ ∘ q₂) = sum`.
    pub fn diameter(&self) -> usize {
        match self {
            Cpq::Id => 0,
            Cpq::Label(_) => 1,
            Cpq::Conj(a, b) => a.diameter().max(b.diameter()),
            Cpq::Join(a, b) => a.diameter() + b.diameter(),
        }
    }

    /// Number of AST nodes (query size).
    pub fn node_count(&self) -> usize {
        match self {
            Cpq::Id | Cpq::Label(_) => 1,
            Cpq::Conj(a, b) | Cpq::Join(a, b) => 1 + a.node_count() + b.node_count(),
        }
    }

    /// All extended labels mentioned by the query, in syntax order.
    pub fn labels_used(&self) -> Vec<ExtLabel> {
        let mut out = Vec::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut Vec<ExtLabel>) {
        match self {
            Cpq::Id => {}
            Cpq::Label(l) => out.push(*l),
            Cpq::Conj(a, b) | Cpq::Join(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
        }
    }

    /// Maximal label runs: for every join chain in the query, the maximal
    /// consecutive sequences of plain label atoms. The paper's workload
    /// filter ("all (sub-)paths of length two are non-empty", Sec. VI)
    /// checks the length-2 windows of these runs.
    pub fn label_runs(&self) -> Vec<Vec<ExtLabel>> {
        let mut runs = Vec::new();
        let mut current = Vec::new();
        self.runs_rec(&mut runs, &mut current);
        if !current.is_empty() {
            runs.push(current);
        }
        runs
    }

    fn runs_rec(&self, runs: &mut Vec<Vec<ExtLabel>>, current: &mut Vec<ExtLabel>) {
        match self {
            Cpq::Label(l) => current.push(*l),
            Cpq::Join(a, b) => {
                a.runs_rec(runs, current);
                b.runs_rec(runs, current);
            }
            Cpq::Id | Cpq::Conj(..) => {
                if !current.is_empty() {
                    runs.push(std::mem::take(current));
                }
                if let Cpq::Conj(a, b) = self {
                    let mut ca = Vec::new();
                    a.runs_rec(runs, &mut ca);
                    if !ca.is_empty() {
                        runs.push(ca);
                    }
                    let mut cb = Vec::new();
                    b.runs_rec(runs, &mut cb);
                    if !cb.is_empty() {
                        runs.push(cb);
                    }
                }
            }
        }
    }

    /// Renders the query in the crate's text syntax using the graph's label
    /// names; the output parses back via [`crate::parse_cpq`].
    pub fn to_text(&self, g: &Graph) -> String {
        match self {
            Cpq::Id => "id".to_string(),
            Cpq::Label(l) => {
                let name = g.label_name(l.base());
                if l.is_inverse() {
                    format!("{name}^-1")
                } else {
                    name.to_string()
                }
            }
            Cpq::Join(a, b) => format!("({} . {})", a.to_text(g), b.to_text(g)),
            Cpq::Conj(a, b) => format!("({} & {})", a.to_text(g), b.to_text(g)),
        }
    }
}

/// The twelve query templates of the paper's Fig. 5.
///
/// Abbreviations: C = chain, T = triangle, S = square, St = star,
/// `i` suffix = conjunction with identity (cyclic pattern).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum Template {
    C2,
    C4,
    T,
    S,
    TT,
    St,
    TC,
    SC,
    ST,
    C2i,
    Ti,
    Si,
}

impl Template {
    /// All templates in the order the paper's figures report them.
    pub const ALL: [Template; 12] = [
        Template::T,
        Template::S,
        Template::TT,
        Template::St,
        Template::TC,
        Template::SC,
        Template::ST,
        Template::C2,
        Template::C4,
        Template::C2i,
        Template::Ti,
        Template::Si,
    ];

    /// The template's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Template::C2 => "C2",
            Template::C4 => "C4",
            Template::T => "T",
            Template::S => "S",
            Template::TT => "TT",
            Template::St => "St",
            Template::TC => "TC",
            Template::SC => "SC",
            Template::ST => "ST",
            Template::C2i => "C2i",
            Template::Ti => "Ti",
            Template::Si => "Si",
        }
    }

    /// Number of label slots to instantiate.
    pub fn arity(&self) -> usize {
        match self {
            Template::C2 => 2,
            Template::C4 => 4,
            Template::T => 3,
            Template::S => 4,
            Template::TT => 5,
            Template::St => 3,
            Template::TC => 4,
            Template::SC => 5,
            Template::ST => 7,
            Template::C2i => 2,
            Template::Ti => 3,
            Template::Si => 4,
        }
    }

    /// Whether the template conjoins with identity (cyclic answer shape).
    pub fn is_cyclic(&self) -> bool {
        matches!(self, Template::C2i | Template::Ti | Template::Si | Template::St)
    }

    /// Instantiates the template with `labels` (length = [`Template::arity`]).
    ///
    /// Shapes follow Fig. 5 exactly: `C2 = ℓ1∘ℓ2`, `C4 = C2∘C2`,
    /// `T = C2 ∩ ℓ`, `S = C2 ∩ C2`, `TT = T ∩ C2`, `TC = T∘ℓ`, `SC = S∘ℓ`,
    /// `ST = S∘T`, `C2i = C2 ∩ id`, `Ti = (C2∘ℓ) ∩ id`, `Si = C4 ∩ id`, and
    /// `St = (ℓ1∘ℓ1⁻¹) ∩ (ℓ2∘ℓ2⁻¹) ∩ (ℓ3∘ℓ3⁻¹) ∩ id` (the paper prints
    /// `ℓ3 ∩ ℓ3⁻¹` for the third factor, a typo for the drawn star shape).
    pub fn instantiate(&self, labels: &[ExtLabel]) -> Cpq {
        assert_eq!(labels.len(), self.arity(), "wrong number of labels for {}", self.name());
        let l = |i: usize| Cpq::ext(labels[i]);
        let c2 = |i: usize| l(i).join(l(i + 1));
        match self {
            Template::C2 => c2(0),
            Template::C4 => c2(0).join(c2(2)),
            Template::T => c2(0).conj(l(2)),
            Template::S => c2(0).conj(c2(2)),
            Template::TT => c2(0).conj(l(2)).conj(c2(3)),
            Template::TC => c2(0).conj(l(2)).join(l(3)),
            Template::SC => c2(0).conj(c2(2)).join(l(4)),
            Template::ST => c2(0).conj(c2(2)).join(c2(4).conj(l(6))),
            Template::C2i => c2(0).with_id(),
            Template::Ti => c2(0).join(l(2)).with_id(),
            Template::Si => c2(0).join(c2(2)).with_id(),
            Template::St => {
                let leg = |i: usize| l(i).join(Cpq::ext(labels[i].inverse()));
                leg(0).conj(leg(1)).conj(leg(2)).with_id()
            }
        }
    }
}

impl std::fmt::Display for Template {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> ExtLabel {
        Label(i).fwd()
    }

    #[test]
    fn diameter_follows_paper_rules() {
        assert_eq!(Cpq::Id.diameter(), 0);
        assert_eq!(Cpq::ext(l(0)).diameter(), 1);
        let joined = Cpq::ext(l(0)).join(Cpq::ext(l(1)));
        assert_eq!(joined.diameter(), 2);
        let conj = joined.clone().conj(Cpq::ext(l(2)));
        assert_eq!(conj.diameter(), 2);
        assert_eq!(joined.clone().join(joined).diameter(), 4);
        assert_eq!(Cpq::ext(l(0)).with_id().diameter(), 1);
    }

    #[test]
    fn template_diameters() {
        let ls: Vec<ExtLabel> = (0..8).map(l).collect();
        assert_eq!(Template::C2.instantiate(&ls[..2]).diameter(), 2);
        assert_eq!(Template::C4.instantiate(&ls[..4]).diameter(), 4);
        assert_eq!(Template::T.instantiate(&ls[..3]).diameter(), 2);
        assert_eq!(Template::S.instantiate(&ls[..4]).diameter(), 2);
        assert_eq!(Template::TC.instantiate(&ls[..4]).diameter(), 3);
        assert_eq!(Template::ST.instantiate(&ls[..7]).diameter(), 4);
        assert_eq!(Template::St.instantiate(&ls[..3]).diameter(), 2);
        assert_eq!(Template::Si.instantiate(&ls[..4]).diameter(), 4);
    }

    #[test]
    fn label_runs_split_on_conjunction() {
        // (l0 . l1 . l2) & (l3 . l4) has runs [l0,l1,l2] and [l3,l4].
        let q = Cpq::chain(&[l(0), l(1), l(2)]).conj(Cpq::chain(&[l(3), l(4)]));
        let runs = q.label_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], vec![l(0), l(1), l(2)]);
        assert_eq!(runs[1], vec![l(3), l(4)]);
    }

    #[test]
    fn label_runs_cross_nested_joins() {
        // ((l0 . l1) . l2) and (l0 . (l1 . l2)) are one run of 3.
        let a = Cpq::ext(l(0)).join(Cpq::ext(l(1))).join(Cpq::ext(l(2)));
        let b = Cpq::ext(l(0)).join(Cpq::ext(l(1)).join(Cpq::ext(l(2))));
        assert_eq!(a.label_runs(), vec![vec![l(0), l(1), l(2)]]);
        assert_eq!(b.label_runs(), vec![vec![l(0), l(1), l(2)]]);
    }

    #[test]
    fn runs_split_by_embedded_conj() {
        // l0 . (T) . l3 where T = (l1 & l2): the chain is cut at the conj.
        let t = Cpq::ext(l(1)).conj(Cpq::ext(l(2)));
        let q = Cpq::ext(l(0)).join(t).join(Cpq::ext(l(3)));
        let runs = q.label_runs();
        assert!(runs.contains(&vec![l(0)]));
        assert!(runs.contains(&vec![l(3)]));
    }

    #[test]
    fn every_template_instantiates() {
        let ls: Vec<ExtLabel> = (0..8).map(l).collect();
        for t in Template::ALL {
            let q = t.instantiate(&ls[..t.arity()]);
            assert!(q.node_count() >= 2, "{} too small", t.name());
            assert_eq!(t.is_cyclic(), {
                // cyclic templates end in `∩ id`
                matches!(&q, Cpq::Conj(_, b) if **b == Cpq::Id)
            });
        }
    }

    #[test]
    fn st_uses_inverse_legs() {
        let q = Template::St.instantiate(&[l(0), l(1), l(2)]);
        let used = q.labels_used();
        assert!(used.contains(&Label(0).inv()));
        assert!(used.contains(&Label(2).inv()));
    }

    #[test]
    #[should_panic(expected = "wrong number of labels")]
    fn wrong_arity_panics() {
        Template::C4.instantiate(&[l(0)]);
    }
}
