//! Index construction as the engine runs it, phase by phase.
//!
//! Every engine build — the initial one, [`crate::Engine::rebuild`] and the
//! auto-rebuild inside a write transaction — is the paper's single pass:
//! the partition (Algorithm 1 through [`RefinementBase`], its walk pruned
//! to the interest set for iaCPQx), then [`CpqxIndex::from_partition`].
//! `build_with_report` runs those steps itself only so it can time them:
//! its index is the one [`CpqxIndex::build`] /
//! [`CpqxIndex::build_interest_aware`] return, byte for byte.

use cpqx_core::{CpqxIndex, RefinementBase};
use cpqx_graph::{Graph, LabelSeq};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Has no field: every build is the single pass. Kept only because the
/// benchmark package builds its index with [`build_sharded_with_report`];
/// goes when a `benchmark` PR drops that call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildOptions {}

/// Phase timings of one build (for the benchmark and the engine's stats
/// endpoint).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildReport {
    /// Wall-clock of the level-1 pass ([`RefinementBase::new`]), which
    /// full and interest-aware builds share.
    pub level1: Duration,
    /// Wall-clock of the partition ([`RefinementBase::partition`]):
    /// levels `2..k−1`, then one walk per source that computes each pair's
    /// last-level sequence set and interns its class, then writing out
    /// every class's sequence set and counting-sorting the pairs into
    /// class-major rows. An interest-aware build runs the same walk, keeping
    /// only the keys of its interests and their prefixes.
    pub refine: Duration,
    /// Wall-clock of materializing the index
    /// ([`CpqxIndex::from_partition`]): renumbering the partition's
    /// sequences into the index's dictionary, laying out `Il2c` from the
    /// class sets, and packing the class-major rows into class chunks; it
    /// regroups no pair.
    pub merge: Duration,
    /// End-to-end wall-clock.
    pub total: Duration,
}

/// [`CpqxIndex::build`]`(g, k)` with its phase timings. Kept only for the
/// benchmark package (see [`BuildOptions`]).
pub fn build_sharded_with_report(
    g: &Graph,
    k: usize,
    _opts: BuildOptions,
) -> (CpqxIndex, BuildReport) {
    build_with_report(g, k, None)
}

/// Builds the index of `g` with path parameter `k` — full CPQx, or iaCPQx
/// over `interests` (already normalized, as
/// [`cpqx_core::normalize_interests`] returns them) — timing each phase.
pub(crate) fn build_with_report(
    g: &Graph,
    k: usize,
    interests: Option<BTreeSet<LabelSeq>>,
) -> (CpqxIndex, BuildReport) {
    let t_start = Instant::now();
    let mut report = BuildReport::default();
    let t0 = Instant::now();
    let base = RefinementBase::new(g);
    report.level1 = t0.elapsed();
    let t0 = Instant::now();
    let partition = base.partition(k, interests.as_ref());
    report.refine = t0.elapsed();
    let t0 = Instant::now();
    let index = CpqxIndex::from_partition(k, interests, partition);
    report.merge = t0.elapsed();
    report.total = t_start.elapsed();
    (index, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_core::normalize_interests;
    use cpqx_graph::generate;

    #[test]
    fn report_covers_phases() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(200, 900, 3, 11));
        let (idx, report) = build_with_report(&g, 2, None);
        assert!(idx.pair_count() > 0);
        assert!(report.level1 > Duration::ZERO);
        assert!(report.refine > Duration::ZERO);
        assert!(report.total >= report.level1 + report.refine + report.merge);

        let f = g.labels().next().unwrap();
        let lq = normalize_interests([LabelSeq::from_slice(&[f.fwd(), f.fwd()])], 2);
        let (idx, report) = build_with_report(&g, 2, Some(lq));
        assert!(idx.is_interest_aware());
        assert!(idx.pair_count() > 0);
        assert!(report.level1 > Duration::ZERO);
        assert!(report.refine > Duration::ZERO);
        assert!(report.total >= report.level1 + report.refine + report.merge);
    }

    #[test]
    fn degenerate_graphs() {
        let empty = cpqx_graph::GraphBuilder::new().build();
        let mut b = cpqx_graph::GraphBuilder::new();
        b.ensure_vertices(5);
        b.ensure_labels(1);
        let no_edges = b.build();
        for g in [&empty, &no_edges] {
            for k in [2, 3] {
                assert_eq!(build_with_report(g, k, None).0.pair_count(), 0);
                let (idx, _) = build_with_report(g, k, Some(BTreeSet::new()));
                assert_eq!(idx.pair_count(), 0);
                assert!(idx.is_interest_aware());
            }
        }
    }
}
