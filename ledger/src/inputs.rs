//! Seeded input generation: graphs, query sets, request scripts, the
//! delta script, and the digest that pins them.
//!
//! The graph and query generators live in product crates
//! (`cpqx_graph::datasets`, `cpqx_query::workload`), outside this
//! directory; [`Digest`] + `inputs.lock` make a change to either of them
//! a hard failure at the default seed instead of a silent metric move.
//! Everything else (request order, delta script) comes from the
//! benchmark's own [`Rng`], so the product's `rand` shim cannot move it.

use crate::check::{digest_pairs, Expected};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::{Graph, Label, VertexId};
use cpqx_query::ast::Template;
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{cache_key, canonicalize, Cpq};
use std::collections::HashSet;

/// The repo's existing bench seed; `inputs.lock` pins the inputs it makes.
pub const DEFAULT_SEED: u64 = 20220509;

/// Seed of the *populations*: the two stand-in graphs and the query
/// pools drawn on them. `--seed` drives everything made from them — which
/// queries are asked in which order, which edges are written — but not
/// the populations themselves: query cost on these graphs is heavy
/// tailed, so a freshly drawn pool of a few hundred queries moves `qps`
/// by 10–40 % and the index size by 3–4 % between seeds, more than the
/// regression bounds this benchmark is meant to hold (README, "Inputs").
pub const POPULATION_SEED: u64 = 20220509;

/// splitmix64 — small, seedable, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit: the input digest and the answer digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A string with its length, so `["ab","c"]` and `["a","bc"]` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One base edge, by ids.
pub type Edge = (VertexId, VertexId, Label);

/// One DELTA transaction of the write script: edges to delete (present
/// when the delta is applied) and edges to insert (absent then).
#[derive(Clone, Debug)]
pub struct DeltaStep {
    pub delete: Vec<Edge>,
    pub insert: Vec<Edge>,
}

/// Largest answer a generated query may have (256 KiB on the wire).
/// Uncapped, one query in a hundred answers with 10⁵–10⁶ pairs and a
/// handful of them set every mean: the workloads would then measure
/// which giants a seed happened to draw (answer-size mean ±15 % between
/// seeds uncapped, ±2 % capped; README, "Inputs").
pub const MAX_ANSWER_PAIRS: usize = 32 * 1024;

/// Distinct queries (by canonical cache key) with their wire text and
/// the oracle's answer digest.
pub struct QuerySet {
    pub cpqs: Vec<Cpq>,
    pub texts: Vec<String>,
    pub expected: Vec<Expected>,
}

impl QuerySet {
    pub fn len(&self) -> usize {
        self.cpqs.len()
    }

    /// Starts the pool's order `by` places further on.
    pub fn rotate(&mut self, by: usize) {
        self.cpqs.rotate_left(by);
        self.texts.rotate_left(by);
        self.expected.rotate_left(by);
    }
}

/// Instantiates the paper's twelve templates round-robin (non-empty
/// length-2 sub-path filter on) until `per_template` distinct queries
/// per template or `total` overall exist. A template whose label space
/// is exhausted (C2 has at most |L|² instances) is skipped after a
/// bounded number of wasted draws. Each kept query's answer comes from
/// the reference evaluator (untimed) and is at most
/// [`MAX_ANSWER_PAIRS`] long.
pub fn distinct_queries(g: &Graph, per_template: usize, total: usize) -> QuerySet {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, POPULATION_SEED);
    let mut seen = HashSet::new();
    let mut per = [0usize; Template::ALL.len()];
    let mut dry = [0usize; Template::ALL.len()];
    let mut set = QuerySet { cpqs: Vec::new(), texts: Vec::new(), expected: Vec::new() };
    const GIVE_UP_AFTER: usize = 64;
    loop {
        let mut progressed = false;
        for (t, template) in Template::ALL.iter().enumerate() {
            if set.len() >= total || per[t] >= per_template || dry[t] >= GIVE_UP_AFTER {
                continue;
            }
            progressed = true;
            let fresh = gen
                .instantiate(*template, &probe, 300)
                .filter(|q| seen.insert(cache_key(&canonicalize(q))))
                .map(|q| (eval_reference(g, &q), q))
                .filter(|(answer, _)| answer.len() <= MAX_ANSWER_PAIRS);
            match fresh {
                Some((answer, q)) => {
                    per[t] += 1;
                    dry[t] = 0;
                    set.expected.push(digest_pairs(&answer));
                    set.texts.push(q.to_text(g));
                    set.cpqs.push(q);
                }
                None => dry[t] += 1,
            }
        }
        if !progressed {
            return set;
        }
    }
}

/// `n` indices drawn uniformly from `0..distinct`.
pub fn uniform_script(distinct: usize, n: usize, rng: &mut Rng) -> Vec<u32> {
    (0..n).map(|_| rng.below(distinct) as u32).collect()
}

/// `n` indices cycling `0..distinct` in fixed order from `offset`. The
/// warm pass runs `0..distinct` in order, so with `distinct` above the
/// result-cache capacity every request's entry was evicted (LRU) before
/// it comes round again: no request ever hits.
pub fn cyclic_script(distinct: usize, n: usize, offset: usize) -> Vec<u32> {
    (0..n).map(|i| ((offset + i) % distinct) as u32).collect()
}

/// The write script: `steps` deltas, each deleting `ops_each` existing
/// edges and inserting `ops_each` new ones, so the graph's size stays
/// constant. Both ends of a change are drawn per *vertex* (a uniform
/// vertex, then one of its out-edges for a delete; two uniform vertices
/// for an insert) — the updates of ordinary vertices, not of the hubs
/// an edge-uniform draw would favour, whose maintenance costs 10–50× the
/// median and would make a run measure how many hubs its seed drew.
/// Simulated on a shadow adjacency so every delete hits and every
/// insert is new *at the time it is applied*; the returned edge list is
/// the final state.
pub fn delta_script(
    g: &Graph,
    steps: usize,
    ops_each: usize,
    rng: &mut Rng,
) -> (Vec<DeltaStep>, Vec<Edge>) {
    let (nv, nl) = (g.vertex_count() as usize, g.base_label_count() as usize);
    let mut out: Vec<Vec<(VertexId, Label)>> = vec![Vec::new(); nv];
    for (v, u, l) in g.base_edges() {
        out[v as usize].push((u, l));
    }
    for row in &mut out {
        row.sort_unstable();
    }
    let mut script = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut step = DeltaStep { delete: Vec::new(), insert: Vec::new() };
        while step.delete.len() < ops_each {
            let v = rng.below(nv);
            if !out[v].is_empty() {
                let pick = rng.below(out[v].len());
                let (u, l) = out[v].swap_remove(pick);
                step.delete.push((v as VertexId, u, l));
            }
        }
        while step.insert.len() < ops_each {
            let (v, u, l) = (rng.below(nv), rng.below(nv) as VertexId, Label(rng.below(nl) as u16));
            if !out[v].contains(&(u, l)) {
                out[v].push((u, l));
                step.insert.push((v as VertexId, u, l));
            }
        }
        script.push(step);
    }
    let mut edges: Vec<Edge> = out
        .iter()
        .enumerate()
        .flat_map(|(v, row)| row.iter().map(move |&(u, l)| (v as VertexId, u, l)))
        .collect();
    edges.sort_unstable();
    (script, edges)
}

/// FNV-1a over the sorted edge list, the query texts in script order
/// and the delta script — what the program is handed, and nothing else.
pub fn input_digest(g: &Graph, texts: &[String], script: &[u32], deltas: &[DeltaStep]) -> u64 {
    let mut d = Digest::default();
    let mut edges: Vec<Edge> = g.base_edges().collect();
    edges.sort_unstable();
    d.u64(edges.len() as u64);
    let edge = |d: &mut Digest, &(v, u, l): &Edge| {
        d.u64(v as u64);
        d.u64(u as u64);
        d.str(g.label_name(l));
    };
    for e in &edges {
        edge(&mut d, e);
    }
    d.u64(script.len() as u64);
    for &i in script {
        d.str(&texts[i as usize]);
    }
    d.u64(deltas.len() as u64);
    for step in deltas {
        for e in step.delete.iter().chain(&step.insert) {
            edge(&mut d, e);
        }
    }
    d.finish()
}

/// The two stand-in graphs the workloads use.
pub fn epinions(edges: usize) -> Graph {
    Dataset::Epinions.generate(edges, POPULATION_SEED)
}

pub fn yago(edges: usize) -> Graph {
    Dataset::Yago.generate(edges, POPULATION_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Known FNV-1a vectors: a later "optimisation" of the hash must
        // not silently re-pin every input.
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xAF63_DC4C_8601_EC8C);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.finish(), 0x8594_4171_F739_67E8);
        let digest = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_move_with_it() {
        let make = |seed: u64| {
            let g = epinions(600);
            let qs = distinct_queries(&g, 3, 36);
            let mut rng = Rng::new(seed);
            let script = uniform_script(qs.len(), 50, &mut rng);
            let (deltas, _) = delta_script(&g, 4, 2, &mut rng);
            input_digest(&g, &qs.texts, &script, &deltas)
        };
        assert_eq!(make(1), make(1));
        assert_ne!(make(1), make(2));
    }

    #[test]
    fn delta_script_deletes_present_and_inserts_absent_edges() {
        let g = yago(500);
        let (script, fin) = delta_script(&g, 20, 2, &mut Rng::new(3));
        let mut live: HashSet<Edge> = g.base_edges().collect();
        let before = live.len();
        for step in &script {
            for e in &step.delete {
                assert!(live.remove(e), "delete of an absent edge");
            }
            for e in &step.insert {
                assert!(live.insert(*e), "insert of a present edge");
            }
        }
        assert_eq!(live.len(), before, "graph size stays constant");
        let mut live: Vec<Edge> = live.into_iter().collect();
        live.sort_unstable();
        assert_eq!(live, fin);
    }

    #[test]
    fn cold_script_never_repeats_within_a_cache_length() {
        let s = cyclic_script(1100, 3000, 0);
        for w in s.windows(1024) {
            let distinct: HashSet<u32> = w.iter().copied().collect();
            assert_eq!(distinct.len(), 1024);
        }
    }
}
