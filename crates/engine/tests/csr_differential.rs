//! Differential harness for joins read from the graph: every query
//! whose single-label operands come from the graph's label runs must be
//! byte-identical to the hash-set reference oracle — across benchmark
//! queries, all templates, random CPQ trees, cycles on full and
//! uninvertible interest-aware indexes, mutation-then-read sequences, and
//! concurrent readers.

use cpqx_core::CpqxIndex;
use cpqx_engine::delta::Delta;
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::{generate, ExtLabel, Graph, GraphBuilder, LabelSeq};
use cpqx_query::eval::eval_reference;
use cpqx_query::plan::Plan;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{benchqueries, Cpq, Template};
use rand::{Rng, SeedableRng};

/// A random social graph rebuilt with a tiny chunk weight so chunk
/// boundaries — and therefore per-chunk label runs — fall inside the data.
fn chunky_graph(vertices: u32, edges: usize, seed: u64) -> Graph {
    let g = generate::random_graph(&generate::RandomGraphConfig::social(vertices, edges, 3, seed));
    let mut b = GraphBuilder::new();
    for v in g.vertices() {
        b.vertex(g.vertex_name(v));
    }
    for l in g.labels() {
        b.label(g.label_name(l));
    }
    for (v, u, l) in g.base_edges() {
        b.add_edge(v, u, l);
    }
    b.build_with_chunk_weight(64)
}

/// Graph-read evaluation vs the oracle, over the three benchmark query
/// sets and every template.
#[test]
fn csr_matches_rows_on_benchqueries_and_templates() {
    let g = chunky_graph(220, 900, 11);
    let idx = CpqxIndex::build(&g, 2);
    let mut queries: Vec<(String, Cpq)> = Vec::new();
    for nq in benchqueries::yago_queries(&g, 3)
        .into_iter()
        .chain(benchqueries::lubm_queries(&g, 4))
        .chain(benchqueries::watdiv_queries(&g, 5))
    {
        queries.push((nq.name, nq.query));
    }
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 17);
    for &t in &Template::ALL {
        for (i, q) in gen.queries(t, 2, &probe).into_iter().enumerate() {
            queries.push((format!("{}#{i}", t.name()), q));
        }
    }
    for (name, q) in &queries {
        assert_eq!(idx.evaluate(&g, q), eval_reference(&g, q), "{name} vs oracle");
    }
}

/// Random CPQ ASTs (not just templates): the structural fuzz of the core
/// crate, replayed through the graph-read executor.
#[test]
fn csr_matches_rows_on_random_cpq_trees() {
    fn random_cpq(rng: &mut impl Rng, depth: usize, nl: u16) -> Cpq {
        if depth == 0 || rng.gen_bool(0.4) {
            if rng.gen_bool(0.08) {
                Cpq::Id
            } else {
                Cpq::ext(ExtLabel(rng.gen_range(0..nl)))
            }
        } else if rng.gen_bool(0.5) {
            Cpq::Join(
                Box::new(random_cpq(rng, depth - 1, nl)),
                Box::new(random_cpq(rng, depth - 1, nl)),
            )
        } else {
            Cpq::Conj(
                Box::new(random_cpq(rng, depth - 1, nl)),
                Box::new(random_cpq(rng, depth - 1, nl)),
            )
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let g = chunky_graph(150, 600, 13);
    let idx = CpqxIndex::build(&g, 2);
    for i in 0..80 {
        let q = random_cpq(&mut rng, 3, g.ext_label_count());
        assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "fuzz case {i}: {q:?}");
    }
}

/// Every `∩ id` query on a full index (cycles close as class-level
/// conjunctions with the inverse) and on an interest-aware index that
/// holds the queries' forward sequences but not their inverses (the
/// pair-level `JOIN-ID` fallback must engage) — all equal to the oracle,
/// both indexes valid.
#[test]
fn cyclic_queries_agree_on_full_and_uninvertible_interest_indexes() {
    let g = chunky_graph(200, 800, 47);
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 59);
    let mut cyclic: Vec<Cpq> = Vec::new();
    for &t in &Template::ALL {
        if t.is_cyclic() {
            cyclic.extend(gen.queries(t, 6, &probe));
        } else {
            cyclic.extend(gen.queries(t, 1, &probe).into_iter().map(Cpq::with_id));
        }
    }
    assert!(cyclic.len() >= 20, "workload too small to be meaningful");

    let full = CpqxIndex::build(&g, 2);
    // Each asked-for run unless its reversed inverse is already in (or is
    // the run itself: ⟨ℓ, ℓ⁻¹⟩ is self-inverse) — every interest is held
    // without its inverse.
    let mut interests: Vec<LabelSeq> = Vec::new();
    for run in cyclic.iter().flat_map(Cpq::label_runs) {
        for s in run.chunks(2).filter(|c| c.len() == 2).map(LabelSeq::from_slice) {
            let inverse = s.reversed_inverse();
            if s != inverse && !interests.contains(&s) && !interests.contains(&inverse) {
                interests.push(s);
            }
        }
    }
    let ia = CpqxIndex::build_interest_aware(&g, 2, interests);
    assert_eq!(full.validate(&g), Ok(()));
    assert_eq!(ia.validate(&g), Ok(()));

    let (mut closed, mut fell_back) = (0usize, 0usize);
    for q in &cyclic {
        let oracle = eval_reference(&g, q);
        for (name, idx) in [("full", &full), ("interest-aware", &ia)] {
            assert_eq!(idx.evaluate(&g, q), oracle, "{name}: {q:?}");
        }
        // Where the plan is one cycle over two lookups (C2i at k = 1, Ti,
        // Si), the counters say which way it ran.
        for (idx, tally) in [(&full, &mut closed), (&ia, &mut fell_back)] {
            let Plan::JoinId(a, b) = idx.plan(q) else { continue };
            if !matches!((&*a, &*b), (Plan::Lookup(_), Plan::Lookup(_))) {
                continue;
            }
            let invertible = b.inverse().lookup_seqs().iter().all(|s| idx.is_indexed(s));
            let stats = idx.explain(&g, q).1;
            assert_eq!(stats.class_conjunctions, usize::from(invertible), "{q:?}");
            assert_eq!(stats.joins, usize::from(!invertible), "{q:?}");
            *tally += usize::from(invertible == idx.interests().is_none());
        }
    }
    assert!(closed >= 8, "only {closed} cycles closed as conjunctions");
    assert!(fell_back >= 4, "only {fell_back} cycles exercised the JOIN-ID fallback");
}

/// Mutate-then-read through the engine: after every delta the freshly
/// installed snapshot must answer from the *new* label runs, while a
/// reader pinned on the old snapshot keeps the old answers.
#[test]
fn mutated_snapshots_never_serve_stale_faces() {
    let g = chunky_graph(200, 800, 19);
    let (engine, _) = Engine::with_options(
        g,
        EngineOptions { k: 2, result_cache_capacity: 0, ..EngineOptions::default() },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let probe_queries: Vec<Cpq> = {
        let snap = engine.snapshot();
        let probe = GraphProbe(snap.graph());
        let mut gen = WorkloadGen::new(snap.graph(), 23);
        Template::ALL.iter().flat_map(|&t| gen.queries(t, 1, &probe)).collect()
    };
    for round in 0..6 {
        let before = engine.snapshot();
        let labels: Vec<_> = before.graph().labels().collect();
        let n = before.graph().vertex_count();
        let delta = if round % 3 == 2 {
            let (v, u, l) = before.graph().base_edges().next().unwrap();
            Delta::new().delete_edge(v, u, l)
        } else {
            Delta::new().insert_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                labels[rng.gen_range(0..labels.len())],
            )
        };
        engine.apply_delta(&delta).unwrap();
        let after = engine.snapshot();
        for q in &probe_queries {
            assert_eq!(
                after.evaluate(q),
                eval_reference(after.graph(), q),
                "round {round}: stale read after the delta"
            );
            assert_eq!(
                before.evaluate(q),
                eval_reference(before.graph(), q),
                "round {round}: pinned reader drifted"
            );
        }
    }
}

/// Concurrent readers on a shared snapshot, at 1, 4, 8 and 16 threads:
/// every thread gets the oracle's answer.
#[test]
fn concurrent_csr_reads_agree_with_oracle() {
    let g = chunky_graph(180, 700, 31);
    let idx = CpqxIndex::build(&g, 2);
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 37);
    let queries: Vec<Cpq> = Template::ALL.iter().flat_map(|&t| gen.queries(t, 1, &probe)).collect();
    let expected: Vec<Vec<cpqx_graph::Pair>> =
        queries.iter().map(|q| eval_reference(&g, q)).collect();
    for threads in [1usize, 4, 8, 16] {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for (q, want) in queries.iter().zip(&expected) {
                        assert_eq!(&idx.evaluate(&g, q), want);
                    }
                });
            }
        });
    }
}
