//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Fig. 1 social graph `Gex`, constructs the CPQ-aware index
//! with k = 2, prints the CPQ-equivalence classes (the Fig. 3 partition),
//! and evaluates the introduction's triad query `ﬀ ∩ f⁻¹` — people and
//! their followers who sit in a follows-triangle.
//!
//! Run with: `cargo run --release --example quickstart`

use cpqx::graph::generate::gex;
use cpqx::index::CpqxIndex;
use cpqx::query::parse_cpq;
use cpqx_graph::LabelSeq;

fn main() {
    let g = gex();
    println!("Gex: {} vertices, {} base edges, labels {{f, v}}", g.vertex_count(), g.edge_count());

    // Construct CPQx with the paper's default k = 2.
    let index = CpqxIndex::build(&g, 2);
    let stats = index.stats();
    println!(
        "CPQx(k=2): {} classes over {} s-t pairs, γ = {:.2}, {} label sequences\n",
        stats.classes, stats.pairs, stats.gamma, stats.sequences
    );

    // Fig. 3 flavour: print each equivalence class with its shared
    // label-sequence set and members.
    println!("CPQ2-equivalence classes (c: L≤2-set — members):");
    let mut by_class: Vec<(u32, Vec<String>)> = Vec::new();
    for c in 0..stats.classes as u32 {
        let members: Vec<String> = index
            .class_pairs(c)
            .map(|p| format!("({},{})", g.vertex_name(p.src()), g.vertex_name(p.dst())))
            .collect();
        by_class.push((c, members));
    }
    for (c, members) in &by_class {
        let seqs: Vec<String> = index
            .class_sequences(*c)
            .map(|s| s.iter().map(|l| g.ext_label_name(l)).collect::<Vec<_>>().join("·"))
            .collect();
        let loop_mark = if index.class_is_loop(*c) { " (cyclic)" } else { "" };
        println!("  c={c:<3}{loop_mark} {{{}}} — {}", seqs.join(", "), members.join(" "));
    }

    // The introduction's query: conjunction of ﬀ and f⁻¹.
    let q = parse_cpq("(f . f) & f^-1", &g).expect("valid query");
    println!("\nEvaluating  (f ∘ f) ∩ f⁻¹ :");

    // Show the class-level pruning of Example 4.3.
    let f = g.label_named("f").unwrap();
    let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
    let finv = LabelSeq::single(f.inv());
    println!("  Il2c(ﬀ)  = {:?}", index.lookup(&ff));
    println!("  Il2c(f⁻¹) = {:?}", index.lookup(&finv));

    let result = index.evaluate(&g, &q);
    println!("  answers:");
    for p in &result {
        println!("    ({}, {})", g.vertex_name(p.src()), g.vertex_name(p.dst()));
    }
    assert_eq!(result.len(), 3, "the triad has exactly three answers");
    println!("\nThe conjunction was computed by intersecting two class-id lists —");
    println!("no s-t pair was compared until the final expansion (Example 4.3).");
}
