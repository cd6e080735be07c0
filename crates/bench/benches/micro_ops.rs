//! Criterion micro-benchmarks of the physical operators behind Thm. 4.5's
//! cost model: source-major join, pair intersection, class-set
//! intersection (of two posting sets, and of two cyclic sets, on their
//! containers), a closed cycle both ways (pair-level `JOIN-ID` versus
//! the conjunction with the inverse) — the primitives every table cell is
//! made of — the expansion of posting sets into their classes' pair rows,
//! and the writer's pair → class map: its first-write build from the class
//! rows, a lookup per pair in the sorted order a write visits its
//! candidates in, and one batch of edits applied to a clone.
//!
//! `cargo bench -p cpqx-bench --bench micro_ops -- p2c` runs only the
//! cases whose `group/function` name contains `p2c`.

use cpqx_core::{ClassId, ClassSet, CpqxIndex, Executor, PairColumn};
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, LabelSeq, Pair};
use cpqx_query::ops;
use cpqx_query::plan::Plan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

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
        let left = random_pairs(n, 2_000, 1);
        let right = random_pairs(n, 2_000, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ops::join_pairs(&left, &right));
        });
    }
    group.finish();
}

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    for &n in &[1_000usize, 10_000, 100_000] {
        let a = random_pairs(n, 100_000, 3);
        let b_pairs = random_pairs(n, 100_000, 4);
        group.bench_with_input(BenchmarkId::new("pairs", n), &n, |b, _| {
            b.iter(|| ops::intersect_pairs(&a, &b_pairs));
        });
    }
    // ANDed as the executor ANDs them, window by window on their
    // containers: the two densest 2-label postings of a power-law graph,
    // and its two largest cyclic sets (St's operands).
    let g = random_graph(&RandomGraphConfig::social(2_000, 10_000, 4, 7));
    let idx = CpqxIndex::build(&g, 2);
    let largest_two = |set: SetOf| {
        let seqs = sequences_by_density(&g, &idx, set);
        (set(&idx, &seqs[0]), set(&idx, &seqs[1]))
    };
    let conjs = [
        ("il2c_conj", largest_two(CpqxIndex::lookup)),
        ("cyclic_conj", largest_two(CpqxIndex::lookup_cyclic)),
    ];
    for (name, (a, b)) in conjs {
        assert!(a.and(b).iter().eq(a.iter().filter(|&c| b.contains(c))), "{name}");
        group.bench_function(name, |bench| {
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
    let g = random_graph(&RandomGraphConfig::social(2_000, 10_000, 4, 7));
    let idx = CpqxIndex::build(&g, 2);
    let exec = Executor::new(&idx, &g);
    let seqs = sequences_by_density(&g, &idx, CpqxIndex::lookup);
    let (left_seq, right_seq) = (seqs[0], seqs[1]);
    let left = exec.run(&Plan::Lookup(left_seq));
    let right = exec.run(&Plan::Lookup(right_seq));
    let cycle = Plan::JoinId(Box::new(Plan::Lookup(left_seq)), Box::new(Plan::Lookup(right_seq)));
    assert_eq!(exec.run(&cycle), ops::join_pairs_id(&left, &right));
    let mut group = c.benchmark_group("lookup_join");
    group.bench_function("c4_open", |b| b.iter(|| ops::join_pairs(&left, &right)));
    group.bench_function("si_join_id", |b| b.iter(|| ops::join_pairs_id(&left, &right)));
    group.bench_function("si_conjunction", |b| b.iter(|| exec.run(&cycle)));
    group.finish();
}

/// Every 1- and 2-label posting set of a power-law graph expanded into its
/// classes' pair rows, as the executor expands a lookup before a join:
/// the decode of each touched chunk's row ends and packed keys. Checked
/// against the rows read one class at a time first.
fn bench_expand(c: &mut Criterion) {
    let g = random_graph(&RandomGraphConfig::social(2_000, 10_000, 4, 7));
    let idx = CpqxIndex::build(&g, 2);
    let singles = g.ext_labels().map(LabelSeq::single);
    let pairs =
        g.ext_labels().flat_map(|a| g.ext_labels().map(move |b| LabelSeq::from_slice(&[a, b])));
    let postings: Vec<&ClassSet> = singles.chain(pairs).map(|s| idx.lookup(&s)).collect();
    for &cs in &postings {
        let rows: Vec<Pair> = cs.iter().flat_map(|c| idx.class_pairs(c)).collect();
        assert_eq!(idx.gather_rows(cs), rows, "the gathered rows disagree");
    }
    let mut group = c.benchmark_group("ic2p");
    group.bench_function("expand", |b| {
        b.iter(|| postings.iter().map(|&cs| idx.gather_rows(cs).len()).sum::<usize>())
    });
    group.finish();
}

/// The pair → class map of a power-law graph: built from the class rows,
/// as the first write builds it, and asked for every indexed pair in pair
/// order, as a write asks for its sorted candidates. Both are checked
/// against the rows first: every pair maps to the class whose row holds it.
fn bench_pair_map(c: &mut Criterion) {
    let g = random_graph(&RandomGraphConfig::social(2_000, 10_000, 4, 7));
    let idx = CpqxIndex::build(&g, 2);
    let mut rows: Vec<(Pair, ClassId)> = (0..idx.class_slots() as ClassId)
        .flat_map(|c| idx.class_pairs(c).map(move |p| (p, c)))
        .collect();
    rows.sort_unstable();
    let mut mapped = idx.clone();
    mapped.build_pair_map();
    assert!(rows.iter().all(|&(p, c)| mapped.class_of(p) == Some(c)), "the map disagrees");
    let candidates: Vec<Pair> = rows.iter().map(|&(p, _)| p).collect();
    let mut group = c.benchmark_group("p2c");
    group.bench_function("build", |b| {
        b.iter(|| {
            let mut written = idx.clone();
            written.build_pair_map();
            written
        })
    });
    group.bench_function("class_of", |b| {
        b.iter(|| candidates.iter().filter_map(|&p| mapped.class_of(p)).count())
    });
    // One batch as a write hands it over, sorted by pair: every 50th
    // mapped pair re-mapped to the next class, every 50th (offset by 25)
    // removed, and as many absent pairs inserted. It touches every shard,
    // so each is copied out of the clone it shares with `column`.
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
    group.bench_function("edit", |b| {
        b.iter(|| {
            let mut written = column.clone();
            written.edit(&edits);
            written
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_join,
    bench_intersection,
    bench_cycle,
    bench_expand,
    bench_pair_map
);
criterion_main!(benches);
