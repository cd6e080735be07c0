//! Model-based chaos testing: long seeded operation sequences interleaving
//! graph updates, interest updates, rebuilds (what a store's recovery runs
//! on the persisted graph) and queries, with the naive reference evaluator
//! as the model. Any divergence in any interleaving is a bug in
//! construction, maintenance or execution.

use cpqx::graph::generate::{random_graph, RandomGraphConfig};
use cpqx::graph::{ExtLabel, Label, LabelSeq};
use cpqx::index::CpqxIndex;
use cpqx::query::ast::Template;
use cpqx::query::eval::eval_reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug)]
enum Op {
    InsertEdge(u32, u32, Label),
    DeleteEdge(u32, u32, Label),
    InsertInterest(LabelSeq),
    DeleteInterest(LabelSeq),
    Rebuild,
    AddVertex,
    DeleteVertex(u32),
    Query(Template),
}

fn random_op(rng: &mut StdRng, g: &cpqx::graph::Graph, ia: bool) -> Op {
    let n = g.vertex_count();
    let nl = g.base_label_count();
    let seq2 = |rng: &mut StdRng| {
        LabelSeq::from_slice(&[
            ExtLabel(rng.gen_range(0..nl * 2)),
            ExtLabel(rng.gen_range(0..nl * 2)),
        ])
    };
    match rng.gen_range(0..100) {
        0..=24 => {
            Op::InsertEdge(rng.gen_range(0..n), rng.gen_range(0..n), Label(rng.gen_range(0..nl)))
        }
        25..=49 => {
            Op::DeleteEdge(rng.gen_range(0..n), rng.gen_range(0..n), Label(rng.gen_range(0..nl)))
        }
        50..=57 if ia => Op::InsertInterest(seq2(rng)),
        58..=63 if ia => Op::DeleteInterest(seq2(rng)),
        64..=71 => Op::Rebuild,
        72..=74 => Op::AddVertex,
        75..=78 => Op::DeleteVertex(rng.gen_range(0..n)),
        _ => {
            let t = Template::ALL[rng.gen_range(0..Template::ALL.len())];
            Op::Query(t)
        }
    }
}

fn chaos(seed: u64, ia: bool, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = RandomGraphConfig::social(40, 150, 3, seed ^ 0x51DE);
    let mut g = random_graph(&cfg);
    let mut idx = if ia {
        CpqxIndex::build_interest_aware(&g, 2, [LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(1)])])
    } else {
        CpqxIndex::build(&g, 2)
    };
    for step in 0..steps {
        let op = random_op(&mut rng, &g, ia);
        match op {
            Op::InsertEdge(v, u, l) => {
                idx.insert_edge(&mut g, v, u, l);
            }
            Op::DeleteEdge(v, u, l) => {
                idx.delete_edge(&mut g, v, u, l);
            }
            Op::InsertInterest(s) => {
                idx.insert_interest(&mut g, s);
            }
            Op::DeleteInterest(s) => {
                idx.delete_interest(&s);
            }
            Op::Rebuild => idx.rebuild(&g),
            Op::AddVertex => {
                idx.add_vertex(&mut g, format!("extra{step}"));
            }
            Op::DeleteVertex(v) => {
                let v = v % g.vertex_count();
                idx.delete_vertex(&mut g, v);
            }
            Op::Query(t) => {
                let labels: Vec<ExtLabel> = (0..t.arity())
                    .map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count())))
                    .collect();
                let q = t.instantiate(&labels);
                assert_eq!(
                    idx.evaluate(&g, &q),
                    eval_reference(&g, &q),
                    "seed {seed} step {step}: {op:?} on {q:?}"
                );
                // The optimizer must agree too.
                assert_eq!(
                    idx.evaluate_optimized(&g, &q),
                    eval_reference(&g, &q),
                    "optimizer diverged at seed {seed} step {step}"
                );
            }
        }
    }
    // Final audit: full template sweep against the model and a fresh build.
    let fresh = if ia {
        CpqxIndex::build_interest_aware(&g, 2, idx.interests().unwrap().iter().copied())
    } else {
        CpqxIndex::build(&g, 2)
    };
    for t in Template::ALL {
        let labels: Vec<ExtLabel> =
            (0..t.arity()).map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count()))).collect();
        let q = t.instantiate(&labels);
        let expected = eval_reference(&g, &q);
        assert_eq!(idx.evaluate(&g, &q), expected, "final audit {}", t.name());
        assert_eq!(fresh.evaluate(&g, &q), expected, "fresh-build audit {}", t.name());
    }
}

#[test]
fn chaos_full_index() {
    for seed in 0..4 {
        chaos(seed, false, 80);
    }
}

#[test]
fn chaos_interest_aware() {
    for seed in 10..14 {
        chaos(seed, true, 80);
    }
}

#[test]
fn chaos_long_run() {
    chaos(42, false, 250);
    chaos(43, true, 250);
}
