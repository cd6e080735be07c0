//! Answer checking: the reference evaluator's digest per distinct query,
//! and the failure tally every phase feeds.

use crate::inputs::Digest;
use cpqx_graph::{Graph, Pair};
use cpqx_net::{ClientError, ErrorCode};
use cpqx_query::eval::eval_reference;
use cpqx_query::Cpq;

/// What a correct answer looks like: its length and a digest of its
/// (sorted) pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub len: u32,
    pub hash: u64,
}

/// FNV-1a taken a pair (one 64-bit word) at a time on four interleaved
/// lanes, the lanes folded bytewise at the end. Checking shares the core
/// with the program it checks: bytewise FNV-1a costs ~2 ns a byte, which
/// on a 32 768-pair answer is 0.5 ms — three times what the server spends
/// answering it from the cache. This costs ~0.5 ns a pair.
pub fn digest_pairs(pairs: &[Pair]) -> Expected {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut lanes = [0xCBF2_9CE4_8422_2325u64; 4];
    let mut quads = pairs.chunks_exact(4);
    for quad in &mut quads {
        for (lane, p) in lanes.iter_mut().zip(quad) {
            *lane = (*lane ^ p.0).wrapping_mul(PRIME);
        }
    }
    let mut d = Digest::default();
    for lane in lanes {
        d.u64(lane);
    }
    for p in quads.remainder() {
        d.u64(p.0);
    }
    Expected { len: pairs.len() as u32, hash: d.finish() }
}

/// The oracle on a graph other than the one the queries were generated
/// on (the shadow graph of `mixed-rw`): `eval_reference`, untimed.
pub fn oracle(g: &Graph, cpqs: &[Cpq]) -> Vec<Expected> {
    cpqs.iter().map(|q| digest_pairs(&eval_reference(g, q))).collect()
}

/// Requests attempted and why some failed. `failed / attempted` is the
/// `fail_ratio` metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Error frames other than BUSY, and mistyped replies.
    pub errors: u64,
    /// BUSY refusals.
    pub busy: u64,
    /// Connection-level failures and requests never answered.
    pub transport: u64,
    /// Answers that differ from the oracle.
    pub mismatched: u64,
    /// Correct open-loop answers later than the workload's limit.
    pub over_limit: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.transport + self.mismatched + self.over_limit
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.busy += other.busy;
        self.transport += other.transport;
        self.mismatched += other.mismatched;
        self.over_limit += other.over_limit;
    }

    /// Files one answer under "ok" or "mismatched".
    pub fn answer(&mut self, expected: &Expected, pairs: &[Pair]) {
        if digest_pairs(pairs) != *expected {
            self.mismatched += 1;
        }
    }

    pub fn wire_error(&mut self, code: ErrorCode) {
        if code == ErrorCode::Busy {
            self.busy += 1;
        } else {
            self.errors += 1;
        }
    }

    pub fn client_error(&mut self, e: &ClientError) {
        match e {
            ClientError::Server(w) => self.wire_error(w.code),
            ClientError::Io(_) => self.transport += 1,
            ClientError::Protocol(_) => self.errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate::gex;
    use cpqx_query::parse_cpq;

    #[test]
    fn a_corrupted_digest_shows_in_fail_ratio() {
        let g = gex();
        let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
        let answer = eval_reference(&g, &q);
        let mut expected = oracle(&g, std::slice::from_ref(&q));
        let mut tally = Tally { attempted: 2, ..Tally::default() };
        tally.answer(&expected[0], &answer);
        assert_eq!(tally.fail_ratio(), 0.0);
        expected[0].hash ^= 1;
        tally.answer(&expected[0], &answer);
        assert_eq!(tally.mismatched, 1);
        assert!(tally.fail_ratio() > 0.0);
    }

    #[test]
    fn the_digest_sees_every_pair_and_their_order() {
        let pairs: Vec<Pair> = (0..11).map(|i| Pair::new(i, i + 1)).collect();
        let whole = digest_pairs(&pairs);
        for i in 0..pairs.len() {
            let mut changed = pairs.clone();
            changed[i] = Pair::new(99, 99);
            assert_ne!(digest_pairs(&changed).hash, whole.hash, "pair {i} is not in the digest");
        }
        let mut swapped = pairs.clone();
        swapped.swap(0, 4); // same lane
        assert_ne!(digest_pairs(&swapped).hash, whole.hash);
        assert_eq!(digest_pairs(&pairs), whole);
    }

    #[test]
    fn a_truncated_answer_is_a_mismatch() {
        let pairs = [Pair::new(1, 2), Pair::new(3, 4)];
        let expected = digest_pairs(&pairs);
        let mut tally = Tally { attempted: 1, ..Tally::default() };
        tally.answer(&expected, &pairs[..1]);
        assert_eq!(tally.failed(), 1);
    }
}
