//! Criterion micro-benchmarks of the physical operators behind Thm. 4.5's
//! cost model: source-major join, pair intersection, class-set
//! intersection (of two posting sets, and of two cyclic sets, on their
//! containers), a closed cycle both ways (pair-level `JOIN-ID` versus
//! the conjunction with the inverse) — the primitives every table cell is
//! made of — the expansion of posting sets into their classes' pair rows
//! and one batch of edits to those rows, and the writer's pair → class
//! map: its first-write build from the class rows, a lookup per pair in
//! the sorted order a write visits its candidates in, and one batch of
//! edits applied to a clone — and the build's partition step, full and
//! interest-aware.
//!
//! `cargo bench -p cpqx-bench --bench micro_ops -- p2c` runs only the
//! cases whose `group/function` name contains `p2c`. Every fixture is
//! built inside the first case that uses it, so a filter that selects no
//! case builds nothing.

use cpqx_core::{
    cpq_path_partition, normalize_interests, ClassId, ClassSet, CpqxIndex, Executor, PairColumn,
    RefinementBase,
};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, LabelSeq, Pair};
use cpqx_query::ops;
use cpqx_query::plan::Plan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// The power-law graph most cases run on, and its index at k = 2: built
/// once, by the first case that asks.
fn social() -> &'static (Graph, CpqxIndex) {
    static SOCIAL: OnceLock<(Graph, CpqxIndex)> = OnceLock::new();
    SOCIAL.get_or_init(|| {
        let g = random_graph(&RandomGraphConfig::social(2_000, 10_000, 4, 7));
        let idx = CpqxIndex::build(&g, 2);
        (g, idx)
    })
}

fn random_pairs(n: usize, universe: u32, seed: u64) -> Vec<Pair> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut v: Vec<Pair> =
        (0..n).map(|_| Pair::new(rng.gen_range(0..universe), rng.gen_range(0..universe))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_pairs");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let (left, right) = (random_pairs(n, 2_000, 1), random_pairs(n, 2_000, 2));
            b.iter(|| ops::join_pairs(&left, &right));
        });
    }
    group.finish();
}

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("pairs", n), &n, |b, &n| {
            let (a, b_pairs) = (random_pairs(n, 100_000, 3), random_pairs(n, 100_000, 4));
            b.iter(|| ops::intersect_pairs(&a, &b_pairs));
        });
    }
    // ANDed as the executor ANDs them, window by window on their
    // containers: the two densest 2-label postings of a power-law graph,
    // and its two largest cyclic sets (St's operands).
    let conjs: [(&str, SetOf); 2] =
        [("il2c_conj", CpqxIndex::lookup), ("cyclic_conj", CpqxIndex::lookup_cyclic)];
    for (name, set) in conjs {
        group.bench_function(name, |bench| {
            let (g, idx) = social();
            let seqs = sequences_by_density(g, idx, set);
            let (a, b) = (set(idx, &seqs[0]), set(idx, &seqs[1]));
            assert!(a.and(b).iter().eq(a.iter().filter(|&c| b.contains(c))), "{name}");
            bench.iter(|| std::hint::black_box(a).and(std::hint::black_box(b)))
        });
    }
    group.finish();
}

/// One of an index's class sets per sequence: its posting set, or its
/// cyclic set.
type SetOf = for<'i> fn(&'i CpqxIndex, &LabelSeq) -> &'i ClassSet;

/// The 2-label sequences of `g`, the one with the largest set under `set`
/// first.
fn sequences_by_density(g: &Graph, idx: &CpqxIndex, set: SetOf) -> Vec<LabelSeq> {
    let mut seqs: Vec<LabelSeq> = g
        .ext_labels()
        .flat_map(|a| g.ext_labels().map(move |b| LabelSeq::from_slice(&[a, b])))
        .collect();
    seqs.sort_by_key(|s| std::cmp::Reverse(set(idx, s).len()));
    seqs
}

/// C4- and Si-shaped inputs: both operands are 2-label lookups of a
/// power-law graph (hub sources, heavy fan-in), joined open (C4) and
/// closed (Si) — the latter as the pair-level `JOIN-ID` and as the
/// executor runs it, a class-level conjunction with the inverse.
fn bench_cycle(c: &mut Criterion) {
    // The two operands' pairs and the closed cycle's plan, checked once.
    let fixture = OnceLock::new();
    let fixture = || {
        fixture.get_or_init(|| {
            let (g, idx) = social();
            let exec = Executor::new(idx, g);
            let seqs = sequences_by_density(g, idx, CpqxIndex::lookup);
            let (left_seq, right_seq) = (seqs[0], seqs[1]);
            let left = exec.run(&Plan::Lookup(left_seq));
            let right = exec.run(&Plan::Lookup(right_seq));
            let cycle =
                Plan::JoinId(Box::new(Plan::Lookup(left_seq)), Box::new(Plan::Lookup(right_seq)));
            assert_eq!(exec.run(&cycle), ops::join_pairs_id(&left, &right));
            (left, right, cycle)
        })
    };
    let mut group = c.benchmark_group("lookup_join");
    group.bench_function("c4_open", |b| {
        let (left, right, _) = fixture();
        b.iter(|| ops::join_pairs(left, right))
    });
    group.bench_function("si_join_id", |b| {
        let (left, right, _) = fixture();
        b.iter(|| ops::join_pairs_id(left, right))
    });
    group.bench_function("si_conjunction", |b| {
        let ((g, idx), (_, _, cycle)) = (social(), fixture());
        let exec = Executor::new(idx, g);
        b.iter(|| exec.run(cycle))
    });
    group.finish();
}

/// Every 1- and 2-label posting set of a power-law graph expanded into its
/// classes' pair rows, as the executor expands a lookup before a join:
/// the decode of each touched chunk's row ends and packed keys. Checked
/// against the rows read one class at a time first. Then one write's
/// row edits spliced into the chunks they touch.
fn bench_expand(c: &mut Criterion) {
    let mut group = c.benchmark_group("ic2p");
    group.bench_function("expand", |b| {
        let (g, idx) = social();
        let singles = g.ext_labels().map(LabelSeq::single);
        let pairs =
            g.ext_labels().flat_map(|a| g.ext_labels().map(move |b| LabelSeq::from_slice(&[a, b])));
        let postings: Vec<&ClassSet> = singles.chain(pairs).map(|s| idx.lookup(&s)).collect();
        for &cs in &postings {
            let rows: Vec<Pair> = cs.iter().flat_map(|c| idx.class_pairs(c)).collect();
            assert_eq!(idx.gather_rows(cs), rows, "the gathered rows disagree");
        }
        b.iter(|| postings.iter().map(|&cs| idx.gather_rows(cs).len()).sum::<usize>())
    });
    // One write's row edits, as `CpqxIndex::edit_rows` takes them: in
    // eight chunks spread over the index, the first pair of each of eight
    // classes moved to the class after it, and one pair with a vertex id
    // of 17 bits attached, which re-packs its chunk wider. Each touched
    // chunk is copied out of the clone it shares with `idx`.
    group.bench_function("edit", |b| {
        let idx = &social().1;
        let (span, chunks) = (CpqxIndex::class_chunk_span(), idx.class_chunk_count());
        let (mut detached, mut attached) = (Vec::new(), Vec::new());
        for chunk in (0..8).map(|i| i * chunks / 8) {
            let first = (chunk * span) as ClassId;
            let classes = first..first + idx.class_chunk_len(chunk) as ClassId;
            for c in classes.clone().step_by(span / 8).filter(|&c| c + 1 < classes.end) {
                if let Some(p) = idx.class_pairs(c).next() {
                    detached.push((c, p));
                    attached.push((c + 1, p));
                }
            }
        }
        let wide = (attached[0].0, Pair::new(1, 70_000));
        attached.push(wide);
        let mut edited = idx.clone();
        edited.edit_rows(detached.clone(), attached.clone());
        assert!(detached.iter().all(|&(c, p)| edited.class_pairs(c).all(|q| q != p)));
        assert!(attached.iter().all(|&(c, p)| edited.class_pairs(c).any(|q| q == p)));
        b.iter(|| {
            let mut written = idx.clone();
            written.edit_rows(detached.clone(), attached.clone());
            written
        })
    });
    group.finish();
}

/// The pair → class map of a power-law graph: built from the class rows,
/// as the first write builds it, and asked for every indexed pair in pair
/// order, as a write asks for its sorted candidates. Both are checked
/// against the rows first: every pair maps to the class whose row holds it.
fn bench_pair_map(c: &mut Criterion) {
    // Every indexed pair with its class, in pair order, and the index
    // with its map built — checked against each other once.
    let mapped = OnceLock::new();
    let mapped = || {
        mapped.get_or_init(|| {
            let idx = &social().1;
            let mut rows: Vec<(Pair, ClassId)> = (0..idx.class_slots() as ClassId)
                .flat_map(|c| idx.class_pairs(c).map(move |p| (p, c)))
                .collect();
            rows.sort_unstable();
            let mut mapped = idx.clone();
            mapped.build_pair_map();
            assert!(rows.iter().all(|&(p, c)| mapped.class_of(p) == Some(c)), "the map disagrees");
            (rows, mapped)
        })
    };
    let mut group = c.benchmark_group("p2c");
    group.bench_function("build", |b| {
        let idx = &social().1;
        b.iter(|| {
            let mut written = idx.clone();
            written.build_pair_map();
            written
        })
    });
    group.bench_function("class_of", |b| {
        let (rows, mapped) = mapped();
        let candidates: Vec<Pair> = rows.iter().map(|&(p, _)| p).collect();
        b.iter(|| candidates.iter().filter_map(|&p| mapped.class_of(p)).count())
    });
    // One batch as a write hands it over, sorted by pair: every 50th
    // mapped pair re-mapped to the next class, every 50th (offset by 25)
    // removed, and as many absent pairs inserted. It touches every shard,
    // so each is copied out of the clone it shares with `column`.
    group.bench_function("edit", |b| {
        let ((g, idx), (rows, _)) = (social(), mapped());
        let column = PairColumn::from_rows(|| rows.iter().copied());
        let slots = idx.class_slots() as ClassId;
        let mut edits: Vec<(Pair, Option<ClassId>)> = rows
            .iter()
            .enumerate()
            .filter_map(|(i, &(p, c))| match i % 50 {
                0 => Some((p, Some((c + 1) % slots))),
                25 => Some((p, None)),
                _ => None,
            })
            .collect();
        let absent = random_pairs(edits.len(), g.vertex_count(), 5);
        let absent = absent.into_iter().filter(|&p| column.get(p).is_none());
        edits.extend(absent.map(|p| (p, Some(p.src() % slots))));
        edits.sort_unstable();
        let mut edited = column.clone();
        edited.edit(&edits);
        assert!(edits.iter().all(|&(p, class)| edited.get(p) == class), "an edit did not land");
        b.iter(|| {
            let mut written = column.clone();
            written.edit(&edits);
            written
        })
    });
    group.finish();
}

/// The build's partition step (Algorithm 1 and the class assignment) on
/// the Epinions stand-in at 4k edges, k = 2 — the graph the build-peak
/// test counts: the full partition, and the interest-aware one (Sec. V)
/// over every length-2 sequence (the full partition's classes) and over
/// every tenth of them.
fn bench_partition(c: &mut Criterion) {
    static EPINIONS: OnceLock<Graph> = OnceLock::new();
    let g = || EPINIONS.get_or_init(|| Dataset::Epinions.generate(4_000, 20220509));
    let mut group = c.benchmark_group("build");
    group.bench_function("partition", |b| {
        let g = g();
        b.iter(|| cpq_path_partition(g, 2))
    });
    for (name, step) in [("interest_all", 1), ("interest_tenth", 10)] {
        group.bench_function(name, |b| {
            let g = g();
            let length2: Vec<LabelSeq> = g
                .ext_labels()
                .flat_map(|a| g.ext_labels().map(move |b| LabelSeq::from_slice(&[a, b])))
                .collect();
            let interests = normalize_interests(length2.into_iter().step_by(step), 2);
            b.iter(|| RefinementBase::new(g).partition(2, Some(&interests)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_join,
    bench_intersection,
    bench_cycle,
    bench_expand,
    bench_pair_map,
    bench_partition
);
criterion_main!(benches);
