//! Interest-aware indexing on a knowledge graph — the paper's iaCPQx
//! scenario (Sec. V): analysts query a citation knowledge graph with a
//! stable set of navigation patterns, so the index only materializes
//! classes for those interests (plus all single labels) and stays small.
//!
//! Uses the gMark citation schema and the paper's five synthetic interests:
//! cites·cites, cites·supervises, publishesIn·heldIn, worksIn·heldIn⁻¹,
//! livesIn·worksIn⁻¹.
//!
//! Run with: `cargo run --release --example knowledge_graph`

use cpqx::graph::generate::gmark;
use cpqx::index::CpqxIndex;
use cpqx::query::benchqueries::lubm_queries;
use cpqx::query::parse_cpq;
use cpqx_graph::LabelSeq;
use std::time::Instant;

fn main() {
    let mut g = gmark(4_000, 7);
    println!(
        "citation graph: {} vertices, {} edges, schema {:?}",
        g.vertex_count(),
        g.edge_count(),
        cpqx::graph::generate::GMARK_LABELS
    );

    // The paper's five interests on the synthetic datasets (Sec. VI).
    let l = |name: &str| g.label_named(name).unwrap();
    let interests = [
        LabelSeq::from_slice(&[l("cites").fwd(), l("cites").fwd()]),
        LabelSeq::from_slice(&[l("cites").fwd(), l("supervises").fwd()]),
        LabelSeq::from_slice(&[l("publishesIn").fwd(), l("heldIn").fwd()]),
        LabelSeq::from_slice(&[l("worksIn").fwd(), l("heldIn").inv()]),
        LabelSeq::from_slice(&[l("livesIn").fwd(), l("worksIn").inv()]),
    ];

    let t0 = Instant::now();
    let index = CpqxIndex::build_interest_aware(&g, 2, interests.iter().copied());
    let build_time = t0.elapsed();
    let stats = index.stats();
    println!(
        "iaCPQx built in {build_time:.2?}: {} classes / {} pairs / {:.1} KiB\n",
        stats.classes,
        stats.pairs,
        stats.core_bytes as f64 / 1024.0
    );

    // Interest-aligned analytics.
    let analytics = [
        ("co-citation squares", "(cites . cites) & (cites . cites)"),
        ("supervisor also cited", "(cites . supervises) & cites"),
        ("colocated collaborators", "(worksIn . heldIn^-1) & (livesIn . worksIn^-1)"),
        ("venue in home town", "(publishesIn . heldIn) & livesIn"),
        ("mutual citation", "cites & cites^-1"),
    ];
    println!("{:<28} {:>9} {:>12}", "analytic", "answers", "time");
    for (name, text) in analytics {
        let q = parse_cpq(text, &g).expect("valid query");
        let t0 = Instant::now();
        let result = index.evaluate(&g, &q);
        println!("{:<28} {:>9} {:>12.2?}", name, result.len(), t0.elapsed());
    }

    // Off-interest queries still work — the planner splits them.
    let q = parse_cpq("supervises . supervises . cites", &g).unwrap();
    let t0 = Instant::now();
    let n = index.evaluate(&g, &q).len();
    println!("\noff-interest chain (split lookups): {n} answers in {:.2?}", t0.elapsed());

    // Evolving workloads: register a new interest online (Sec. V-C).
    let new_interest = LabelSeq::from_slice(&[l("supervises").fwd(), l("supervises").fwd()]);
    let t0 = Instant::now();
    index_insert_demo(index, &mut g, new_interest);
    let _ = t0;

    // Benchmark-style workload (Fig. 10's LUBM translation).
    println!("\nLUBM-style benchmark queries:");
    let fresh = CpqxIndex::build_interest_aware(&g, 2, interests.iter().copied());
    for nq in lubm_queries(&g, 3) {
        let t0 = Instant::now();
        let n = fresh.evaluate(&g, &nq.query).len();
        println!("  {:<3} {:>8} answers {:>12.2?}", nq.name, n, t0.elapsed());
    }
}

fn index_insert_demo(mut index: CpqxIndex, g: &mut cpqx::graph::Graph, seq: LabelSeq) {
    let t0 = Instant::now();
    let added = index.insert_interest(g, seq);
    println!(
        "\nregistered new interest supervises·supervises: {} (in {:.2?}, index now {:.1} KiB)",
        added,
        t0.elapsed(),
        index.stats().core_bytes as f64 / 1024.0
    );
    let q = cpqx::query::Cpq::ext(seq.get(0)).join(cpqx::query::Cpq::ext(seq.get(1)));
    let t0 = Instant::now();
    let n = index.evaluate(g, &q).len();
    println!("single-lookup evaluation of the new pattern: {n} answers in {:.2?}", t0.elapsed());
}
