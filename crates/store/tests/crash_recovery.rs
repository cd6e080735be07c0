//! Crash-consistency differential harness.
//!
//! A durable engine commits a stream of random delta transactions, and
//! the harness then simulates a crash at **every** WAL record boundary
//! — plus mid-record, plus a flipped byte — by truncating/corrupting
//! the log and running read-only recovery ([`recover_state`]) on the
//! result. The recovered state must answer a query workload identically
//! to an in-memory reference engine that applied exactly the committed
//! prefix of transactions: nothing more (no torn tail leaks in),
//! nothing less (no committed transaction is lost).
//!
//! All randomness is seeded, so failures replay deterministically.

use cpqx_core::CpqxIndex;
use cpqx_engine::{Delta, DeltaOp, DurabilitySink, Engine, EngineOptions};
use cpqx_graph::{generate, Graph, Label, LabelSeq};
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{Cpq, Template};
use cpqx_store::{durable_engine, recover_state, wal, FsyncPolicy, RecoverError, StoreOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpqx-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed_graph(seed: u64) -> Graph {
    generate::random_graph(&generate::RandomGraphConfig::social(50, 200, 3, seed))
}

fn engine_options() -> EngineOptions {
    EngineOptions { k: 2, ..EngineOptions::default() }
}

fn workload(g: &Graph, seed: u64) -> Vec<Cpq> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, seed);
    Template::ALL.iter().flat_map(|&t| gen.queries(t, 2, &probe)).collect()
}

/// One random, always-valid transaction against the current graph
/// shape. `vertices` tracks growth across the sequence so later
/// transactions may reference vertices earlier ones added. The first op
/// is always an `AddVertex` — a guaranteed state change — because the
/// engine skips the WAL append for all-no-op transactions and the
/// harness counts one record per transaction.
fn random_delta(rng: &mut StdRng, vertices: &mut u32, labels: u16, txn: usize) -> Delta {
    let n = rng.gen_range(2usize..6);
    let mut ops = Vec::with_capacity(n);
    *vertices += 1;
    ops.push(DeltaOp::AddVertex { name: format!("t{txn}-anchor") });
    for i in 1..n {
        let src = rng.gen_range(0..*vertices);
        let dst = rng.gen_range(0..*vertices);
        let label = Label(rng.gen_range(0..labels));
        ops.push(match rng.gen_range(0u32..12) {
            0..=4 => DeltaOp::InsertEdge { src, dst, label },
            5..=7 => DeltaOp::DeleteEdge { src, dst, label },
            8 => DeltaOp::ChangeEdgeLabel {
                src,
                dst,
                from: label,
                to: Label((label.0 + 1) % labels),
            },
            9 => {
                *vertices += 1;
                DeltaOp::AddVertex { name: format!("t{txn}-v{i}") }
            }
            10 => DeltaOp::DeleteVertex { vertex: src },
            // A no-op on full-CPQx engines, but it still travels the
            // WAL, so replay must tolerate it.
            _ => DeltaOp::InsertInterest {
                seq: cpqx_graph::LabelSeq::from_slice(&[label.fwd(), label.inv()]),
            },
        });
    }
    Delta::from(ops)
}

/// Asserts a recovered `(graph, index)` is indistinguishable from the
/// reference engine: same shape, same names, same answers.
fn assert_equivalent(graph: &Graph, index: &CpqxIndex, reference: &Engine, queries: &[Cpq]) {
    let snap = reference.snapshot();
    assert_eq!(graph.vertex_count(), snap.graph().vertex_count());
    assert_eq!(graph.edge_count(), snap.graph().edge_count());
    for v in 0..graph.vertex_count() {
        assert_eq!(graph.vertex_name(v), snap.graph().vertex_name(v), "name of vertex {v}");
    }
    for q in queries {
        assert_eq!(&index.evaluate(graph, q), &*reference.query(q), "diverged for {q:?}");
    }
}

/// The canonical image of `idx`: equal bytes, equal indexes.
fn saved(idx: &CpqxIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save(&mut bytes).unwrap();
    bytes
}

/// A fresh build of `snap`'s graph under its index's `k` and interests.
fn fresh_build(snap: &cpqx_engine::Snapshot) -> CpqxIndex {
    match snap.index().interests() {
        None => CpqxIndex::build(snap.graph(), snap.index().k()),
        Some(lq) => {
            CpqxIndex::build_interest_aware(snap.graph(), snap.index().k(), lq.iter().copied())
        }
    }
}

/// Label sequence `a · b⁻`, an interest for the tails that register and
/// drop interests.
fn seq(a: u16, b: u16) -> LabelSeq {
    LabelSeq::from_slice(&[Label(a).fwd(), Label(b).inv()])
}

/// [`random_delta`] with one interest op of `pool` inserted at a random
/// position after the anchor: a deletion on even transactions, a
/// registration on odd ones.
fn interest_delta(
    rng: &mut StdRng,
    vertices: &mut u32,
    labels: u16,
    txn: usize,
    pool: &[LabelSeq],
) -> Delta {
    let mut ops = random_delta(rng, vertices, labels, txn).ops().to_vec();
    let seq = pool[rng.gen_range(0..pool.len())];
    let at = rng.gen_range(1..=ops.len());
    ops.insert(
        at,
        if txn.is_multiple_of(2) {
            DeltaOp::DeleteInterest { seq }
        } else {
            DeltaOp::InsertInterest { seq }
        },
    );
    Delta::from(ops)
}

/// The core harness: `TXNS` committed transactions, then a simulated
/// kill at every record boundary and inside every record.
#[test]
fn recovery_matches_committed_prefix_at_every_kill_point() {
    const TXNS: usize = 12;
    let dir = tmp("boundaries");
    let g0 = seed_graph(7);
    let labels = g0.base_label_count();
    let queries = workload(&g0, 0x5eed);
    assert!(queries.len() >= 8, "workload too small to be meaningful");

    // Commit the stream through a durable engine. Fsync policy does not
    // matter for simulated kills (we truncate files, not power): Never
    // keeps the test fast.
    let mut rng = StdRng::seed_from_u64(42);
    let mut vertices = g0.vertex_count();
    let mut deltas = Vec::with_capacity(TXNS);
    let mut boundaries = Vec::with_capacity(TXNS);
    let wal_path = dir.join("wal-1.log");
    {
        let start = durable_engine(
            &dir,
            StoreOptions { fsync: FsyncPolicy::Never },
            engine_options(),
            || g0.clone(),
        )
        .expect("fresh start");
        assert!(start.recovered.is_none());
        for txn in 0..TXNS {
            let delta = random_delta(&mut rng, &mut vertices, labels, txn);
            start.engine.apply_delta(&delta).expect("generated deltas are valid");
            deltas.push(delta);
            boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
        }
    }
    let full = std::fs::read(&wal_path).unwrap();
    assert_eq!(*boundaries.last().unwrap(), full.len() as u64);

    // Kill points, ascending so the reference engine advances in step:
    // each boundary, plus cuts 5 bytes into the following record and 1
    // byte before its end (both recover to the same boundary's prefix).
    let mut kill_points = vec![(0u64, 0usize)];
    for (i, &b) in boundaries.iter().enumerate() {
        let prev = if i == 0 { 0 } else { boundaries[i - 1] };
        for cut in [prev + 5, b - 1] {
            if cut > prev && cut < b {
                kill_points.push((cut, i));
            }
        }
        kill_points.push((b, i + 1));
    }
    kill_points.sort_unstable();
    kill_points.dedup();

    let (reference, _) = Engine::with_options(g0.clone(), engine_options());
    let mut applied = 0usize;
    for (cut, committed) in kill_points {
        while applied < committed {
            reference.apply_delta(&deltas[applied]).unwrap();
            applied += 1;
        }
        std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
        let (graph, index, info) = recover_state(&dir)
            .expect("recovery after a torn tail must succeed")
            .expect("the store exists");
        assert_eq!(
            info.replayed_transactions, committed as u64,
            "kill at byte {cut} must recover exactly the committed prefix"
        );
        assert_eq!(
            info.dropped_wal_bytes,
            cut - boundaries.get(committed.wrapping_sub(1)).copied().unwrap_or(0)
        );
        assert_equivalent(&graph, &index, &reference, &queries);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte mid-log is indistinguishable from a torn tail:
/// recovery serves the prefix before the corrupt record and drops the
/// rest, never erroring and never serving corrupt data.
#[test]
fn recovery_drops_suffix_after_bitflip() {
    const TXNS: usize = 8;
    let dir = tmp("bitflip");
    let g0 = seed_graph(11);
    let labels = g0.base_label_count();
    let queries = workload(&g0, 0xf11);

    let mut rng = StdRng::seed_from_u64(1234);
    let mut vertices = g0.vertex_count();
    let mut deltas = Vec::new();
    let mut boundaries = Vec::new();
    let wal_path = dir.join("wal-1.log");
    {
        let start = durable_engine(
            &dir,
            StoreOptions { fsync: FsyncPolicy::Never },
            engine_options(),
            || g0.clone(),
        )
        .unwrap();
        for txn in 0..TXNS {
            let delta = random_delta(&mut rng, &mut vertices, labels, txn);
            start.engine.apply_delta(&delta).unwrap();
            deltas.push(delta);
            boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
        }
    }
    let full = std::fs::read(&wal_path).unwrap();

    // Flip one byte inside each record in turn (framing byte 0 of the
    // record and a payload byte near its middle).
    for hit in 0..TXNS {
        let rec_start = if hit == 0 { 0 } else { boundaries[hit - 1] } as usize;
        let rec_end = boundaries[hit] as usize;
        for at in [rec_start, rec_start + (rec_end - rec_start) / 2] {
            let mut bytes = full.clone();
            bytes[at] ^= 0x20;
            std::fs::write(&wal_path, &bytes).unwrap();
            let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
            assert_eq!(info.replayed_transactions, hit as u64);
            assert!(info.dropped_wal_bytes > 0);
            let (reference, _) = Engine::with_options(g0.clone(), engine_options());
            for d in &deltas[..hit] {
                reference.apply_delta(d).unwrap();
            }
            assert_equivalent(&graph, &index, &reference, &queries);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end across checkpoints: with a small WAL-bytes threshold the
/// run spans several snapshot generations, each a whole snapshot whose
/// checkpoint collected every older generation, and both a clean restart
/// and a restart through the durable path recover the full committed
/// state.
#[test]
fn recovery_across_checkpoints() {
    const TXNS: usize = 40;
    let dir = tmp("checkpoints");
    // Big enough to span many topology/name chunks.
    let g0 = generate::random_graph(&generate::RandomGraphConfig::social(2000, 8000, 3, 23));
    let labels = g0.base_label_count();
    let queries = workload(&g0, 0xabc);

    let mut options = engine_options();
    options.durability.checkpoint_wal_bytes = Some(512);
    let mut rng = StdRng::seed_from_u64(99);
    let mut vertices = g0.vertex_count();
    let mut deltas = Vec::new();
    let snapshots = {
        let start =
            durable_engine(&dir, StoreOptions::default(), options.clone(), || g0.clone()).unwrap();
        for txn in 0..TXNS {
            let delta = random_delta(&mut rng, &mut vertices, labels, txn);
            start.engine.apply_delta(&delta).unwrap();
            deltas.push(delta);
        }
        let stats = start.engine.stats();
        assert_eq!(stats.wal_appends, TXNS as u64);
        assert!(stats.wal_bytes > 0);
        stats.snapshots_written
    };
    assert!(snapshots >= 2, "threshold of 512 bytes must checkpoint repeatedly, got {snapshots}");
    // The last checkpoint left its own generation alone: one snapshot, and
    // at most its own WAL segment.
    let gen = snapshots + 1;
    let names: Vec<String> = files(&dir).into_keys().collect();
    let own = [format!("snap-{gen}.dat"), format!("wal-{gen}.log")];
    assert!(names.iter().all(|n| own.contains(n)), "{names:?}");

    let (reference, _) = Engine::with_options(g0.clone(), engine_options());
    for d in &deltas {
        reference.apply_delta(d).unwrap();
    }

    // Clean restart.
    let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
    assert_eq!(info.generation, gen);
    assert_equivalent(&graph, &index, &reference, &queries);

    // Restart again *through the full durable path* and keep writing:
    // the recovered engine must accept appends and checkpoint again.
    {
        let start =
            durable_engine(&dir, StoreOptions::default(), options, || unreachable!()).unwrap();
        let recovered = start.recovered.expect("second boot recovers");
        assert_eq!(recovered.edge_count, reference.snapshot().graph().edge_count() as u64);
        // Recovery must leave its span tree in the recorder: the restart
        // path is instrumented like any serving pipeline.
        let traces = start.engine.obs().traces();
        let recovery = traces
            .iter()
            .find(|t| t.kind == cpqx_obs::TraceKind::Recovery)
            .expect("recovery trace recorded");
        for stage in [
            cpqx_obs::Stage::RecoverManifest,
            cpqx_obs::Stage::RecoverChunks,
            cpqx_obs::Stage::RecoverReplay,
        ] {
            assert!(recovery.span(stage).is_some(), "missing {} span", stage.name());
        }
        let extra = random_delta(&mut rng, &mut vertices, labels, TXNS);
        start.engine.apply_delta(&extra).unwrap();
        reference.apply_delta(&extra).unwrap();
        assert_equivalent(
            start.engine.snapshot().graph(),
            start.engine.snapshot().index(),
            &reference,
            &queries,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Interest-aware recovery: an interest deleted before the checkpoint is
/// gone from the recovered index — the header carries the interest set
/// the index was built with, and recovery builds the index afresh under
/// it. The recovered index validates and answers like the live one; the
/// interest registered again indexes its pairs, and answers as the
/// reference semantics does.
#[test]
fn recovery_after_deleting_an_interest_keeps_it_deleted() {
    let dir = tmp("interest");
    let g0 = seed_graph(5);
    let (l0, l1) = (Label(0), Label(1));
    let deleted = cpqx_graph::LabelSeq::from_slice(&[l0.fwd(), l1.fwd()]);
    let kept = cpqx_graph::LabelSeq::from_slice(&[l1.fwd(), l0.inv()]);
    let options = EngineOptions { interests: Some(vec![deleted, kept]), ..engine_options() };
    let start = durable_engine(&dir, StoreOptions::default(), options, || g0.clone()).unwrap();
    assert!(!start.engine.snapshot().index().lookup(&deleted).is_empty());

    let (v, u, l) = generate::sample_edges(&g0, 1, 3)[0];
    let delta = Delta::new().delete_interest(deleted).delete_edge(v, u, l);
    start.engine.apply_delta(&delta).unwrap();
    let snap = start.engine.snapshot();
    start.store.checkpoint(snap.graph(), snap.index()).unwrap();

    let (mut graph, mut index, info) = recover_state(&dir).unwrap().unwrap();
    assert_eq!(info.replayed_transactions, 0, "the checkpoint holds the whole state");
    assert_eq!(index.validate(&graph), Ok(()));
    assert_eq!(index.interests(), snap.index().interests());
    assert!(!index.is_indexed(&deleted));
    assert!(index.lookup(&deleted).is_empty(), "the deleted interest was listed again");
    let join = Cpq::ext(l0.fwd()).join(Cpq::ext(l1.fwd()));
    let mut queries = workload(&g0, 0x1a);
    queries.push(join.clone());
    assert_equivalent(&graph, &index, &start.engine, &queries);

    assert!(index.insert_interest(&mut graph, deleted));
    assert_eq!(index.validate(&graph), Ok(()));
    assert!(!index.lookup(&deleted).is_empty(), "the registered interest lists no class");
    for q in &queries {
        assert_eq!(index.evaluate(&graph, q), eval_reference(&graph, q), "{q:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With an empty WAL tail the recovered index is the build of the
/// recovered graph under the recovered `k` and interests, byte for byte:
/// the store persists no index, so recovery's one build is all there is
/// to it — for a full and an interest-aware engine, after writes and a
/// checkpoint have moved the graph away from its seed.
#[test]
fn recovery_with_an_empty_tail_is_a_build_of_the_recovered_graph() {
    let g0 = seed_graph(13);
    let interest = cpqx_graph::LabelSeq::from_slice(&[Label(0).fwd(), Label(2).inv()]);
    for (name, interests) in [("full", None), ("interest-aware", Some(vec![interest]))] {
        let dir = tmp(&format!("empty-tail-{name}"));
        let options = EngineOptions { interests, ..engine_options() };
        let start = durable_engine(&dir, StoreOptions::default(), options, || g0.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut vertices = g0.vertex_count();
        for txn in 0..4 {
            let delta = random_delta(&mut rng, &mut vertices, g0.base_label_count(), txn);
            start.engine.apply_delta(&delta).unwrap();
        }
        let snap = start.engine.snapshot();
        start.store.checkpoint(snap.graph(), snap.index()).unwrap();

        let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
        assert_eq!(info.replayed_transactions, 0, "{name}");
        assert_eq!(index.k(), 2, "{name}");
        assert_eq!(index.interests(), snap.index().interests(), "{name}");
        let built = match index.interests() {
            None => CpqxIndex::build(&graph, index.k()),
            Some(lq) => CpqxIndex::build_interest_aware(&graph, index.k(), lq.iter().copied()),
        };
        assert!(saved(&index) == saved(&built), "{name}: recovery is not the build");
        assert_equivalent(&graph, &index, &start.engine, &workload(&g0, 0x7e));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every file of `dir` with its bytes.
fn files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// A store directory whose snapshot is of another format version — one
/// written before the snapshot header's version went to 3, say — is
/// refused, with or without a WAL segment beside it: `durable_engine`
/// reports the header's decode error naming the file, never calls the
/// seed closure, and rewrites no file. (Reseeding would overwrite the
/// directory's data.)
#[test]
fn a_store_of_another_format_version_is_refused_not_reseeded() {
    let dir = tmp("old-version");
    let g0 = seed_graph(17);
    {
        let start =
            durable_engine(&dir, StoreOptions::default(), engine_options(), || g0.clone()).unwrap();
        let (v, u, l) = generate::sample_edges(&g0, 1, 5)[0];
        start.engine.apply_delta(&Delta::new().delete_edge(v, u, l)).unwrap();
    }
    // Rewrite snap-1.dat's version as 2: the HEADER record's payload
    // follows the 8-byte frame header, and its version follows the kind
    // byte and the 4-byte magic; the frame's CRC covers the payload.
    let path = dir.join("snap-1.dat");
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[9..13], b"CPQS");
    assert_eq!(bytes[13..17], 3u32.to_le_bytes());
    bytes[13..17].copy_from_slice(&2u32.to_le_bytes());
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = cpqx_store::crc32(&bytes[8..8 + len]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(dir.join("wal-1.log").exists());

    for wal in ["with", "without"] {
        if wal == "without" {
            std::fs::remove_file(dir.join("wal-1.log")).unwrap();
        }
        let before = files(&dir);
        let result = durable_engine(&dir, StoreOptions::default(), engine_options(), || {
            panic!("the seed closure was called ({wal} a WAL segment)")
        });
        match result {
            Err(RecoverError::Corrupt { file, what }) => {
                assert!(file.ends_with("snap-1.dat"), "{wal} a WAL segment: {file}");
                assert!(what.contains("format version 2, expected 3"), "{wal}: {what}");
            }
            Err(other) => panic!("{wal} a WAL segment: {other}"),
            Ok(_) => panic!("{wal} a WAL segment: the directory was opened"),
        }
        assert!(files(&dir) == before, "{wal} a WAL segment: a file was rewritten");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum-valid WAL record that contradicts the snapshot it extends
/// is an error, not a torn tail: recovery names the transaction, for a
/// record that names a vertex past the graph and for one that names a
/// label the graph lacks. The bad record is the second; `recover_state`
/// and `durable_engine` both report `Replay { txn: 1 }`, and no file is
/// rewritten.
#[test]
fn a_record_that_contradicts_its_snapshot_is_a_replay_error() {
    let g0 = seed_graph(19);
    let past = g0.vertex_count() + 3;
    let foreign = {
        let mut b = cpqx_graph::GraphBuilder::new();
        b.add_edge_named("a", "b", "no-such-label");
        b.build()
    };
    let bad_records = [
        ("vertex", wal::encode_ops(&g0, &[DeltaOp::DeleteVertex { vertex: past }])),
        (
            "label",
            wal::encode_ops(&foreign, &[DeltaOp::InsertEdge { src: 0, dst: 1, label: Label(0) }]),
        ),
    ];
    for (what, payload) in bad_records {
        let dir = tmp(&format!("replay-{what}"));
        {
            let start =
                durable_engine(&dir, StoreOptions::default(), engine_options(), || g0.clone())
                    .unwrap();
            let (v, u, l) = generate::sample_edges(&g0, 1, 21)[0];
            start.engine.apply_delta(&Delta::new().delete_edge(v, u, l)).unwrap();
        }
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&cpqx_store::crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let wal_path = dir.join("wal-1.log");
        let mut log = std::fs::read(&wal_path).unwrap();
        log.extend_from_slice(&record);
        std::fs::write(&wal_path, &log).unwrap();

        let before = files(&dir);
        match recover_state(&dir) {
            Err(RecoverError::Replay { txn: 1, .. }) => {}
            Err(other) => panic!("{what}: recover_state: {other}"),
            Ok(_) => panic!("{what}: recover_state accepted the record"),
        }
        let result = durable_engine(&dir, StoreOptions::default(), engine_options(), || {
            panic!("{what}: the seed closure was called")
        });
        match result {
            Err(RecoverError::Replay { txn: 1, .. }) => {}
            Err(other) => panic!("{what}: durable_engine: {other}"),
            Ok(_) => panic!("{what}: durable_engine accepted the record"),
        }
        assert!(files(&dir) == before, "{what}: a file was rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovery leaves the pair → class map unbuilt, with or without a WAL
/// tail: the tail is replayed on the graph, then the index is built once.
/// The first write after recovery builds the map, as on a fresh engine.
#[test]
fn recovery_leaves_the_pair_map_to_the_first_write() {
    let dir = tmp("pair-map");
    let g0 = seed_graph(11);
    let queries = workload(&g0, 0x9a);
    let start =
        durable_engine(&dir, StoreOptions::default(), engine_options(), || g0.clone()).unwrap();
    let recovered = |replayed: u64| {
        let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
        assert_eq!(info.replayed_transactions, replayed);
        assert!(!index.has_pair_map(), "after replaying {replayed} transactions");
        assert_eq!(index.validate(&graph), Ok(()));
        assert_equivalent(&graph, &index, &start.engine, &queries);
    };
    // The bootstrap snapshot and an empty tail.
    recovered(0);
    // One committed deletion in the tail.
    let (v, u, l) = generate::sample_edges(&g0, 1, 9)[0];
    start.engine.apply_delta(&Delta::new().delete_edge(v, u, l)).unwrap();
    assert!(start.engine.snapshot().index().has_pair_map());
    recovered(1);
    drop(start);

    // The engine a restart serves has no map either, until its first write.
    let start =
        durable_engine(&dir, StoreOptions::default(), engine_options(), || unreachable!()).unwrap();
    assert_eq!(start.recovered.as_ref().unwrap().replayed_transactions, 1);
    assert!(!start.engine.snapshot().index().has_pair_map());
    let (v, u, l) = generate::sample_edges(&g0, 1, 10)[0];
    start.engine.apply_delta(&Delta::new().delete_edge(v, u, l)).unwrap();
    let snap = start.engine.snapshot();
    assert!(snap.index().has_pair_map(), "the first write after recovery builds the map");
    assert_eq!(snap.index().validate(snap.graph()), Ok(()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whatever the tail holds, recovery is a graph edit and one build: at
/// every kill point (each record boundary, and a cut into the record
/// after it), for a full and an interest-aware engine whose tails
/// register and drop interests, the recovered index saves the bytes of
/// the build of the live engine's graph under its `k` and interests, and
/// `durable_engine` serves that same index.
#[test]
fn recovery_is_a_build_of_the_replayed_state_at_every_kill_point() {
    const TXNS: usize = 10;
    let g0 = seed_graph(29);
    let labels = g0.base_label_count();
    let pool = [seq(0, 1), seq(1, 2), seq(2, 0), seq(1, 1)];
    for (name, interests) in [("full", None), ("interest-aware", Some(pool[..2].to_vec()))] {
        let dir = tmp(&format!("build-{name}"));
        let options = EngineOptions { interests, ..engine_options() };
        let wal_path = dir.join("wal-1.log");
        let mut rng = StdRng::seed_from_u64(71);
        let mut vertices = g0.vertex_count();
        let mut boundaries = Vec::with_capacity(TXNS);
        let mut deltas = Vec::with_capacity(TXNS);
        {
            let start = durable_engine(
                &dir,
                StoreOptions { fsync: FsyncPolicy::Never },
                options.clone(),
                || g0.clone(),
            )
            .unwrap();
            for txn in 0..TXNS {
                let delta = interest_delta(&mut rng, &mut vertices, labels, txn, &pool);
                start.engine.apply_delta(&delta).unwrap();
                deltas.push(delta);
                boundaries.push(std::fs::metadata(&wal_path).unwrap().len());
            }
        }
        let full = std::fs::read(&wal_path).unwrap();

        let queries = workload(&g0, 0x3c);
        let (reference, _) = Engine::with_options(g0.clone(), options.clone());
        for committed in 0..=TXNS {
            if committed > 0 {
                reference.apply_delta(&deltas[committed - 1]).unwrap();
            }
            let snap = reference.snapshot();
            let expected = saved(&fresh_build(&snap));
            // The boundary after `committed` records, and a cut 5 bytes
            // into the next record (a torn tail that recovers the same).
            let at = if committed == 0 { 0 } else { boundaries[committed - 1] };
            for cut in [at, at + 5].into_iter().filter(|&cut| cut <= full.len() as u64) {
                std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
                let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
                assert_eq!(info.replayed_transactions, committed as u64, "{name} cut at {cut}");
                assert_eq!(index.interests(), snap.index().interests(), "{name} cut at {cut}");
                assert!(!index.has_pair_map(), "{name} cut at {cut}");
                assert!(saved(&index) == expected, "{name}: cut at {cut} is not the build");
                assert_equivalent(&graph, &index, &reference, &queries);
            }
        }
        let start = durable_engine(&dir, StoreOptions::default(), options, || unreachable!())
            .expect("the whole log recovers");
        let served = start.engine.snapshot();
        assert!(saved(served.index()) == saved(&fresh_build(&reference.snapshot())), "{name}");
        drop((served, start));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Leaves exactly `contents` in `dir`: every other file is removed.
fn set_files(dir: &std::path::Path, contents: &BTreeMap<String, Vec<u8>>) {
    for name in files(dir).into_keys() {
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    for (name, bytes) in contents {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// The recovered state of `dir` is `generation` with `replayed` WAL
/// transactions on top, and its index saves `expected`, the bytes of a
/// fresh build of the reference's graph and interests.
fn assert_recovers(
    dir: &std::path::Path,
    (generation, replayed): (u64, usize),
    expected: &[u8],
    reference: &Engine,
    queries: &[Cpq],
    what: &str,
) {
    let (graph, index, info) = recover_state(dir).unwrap().expect("the store exists");
    assert_eq!(
        (info.generation, info.replayed_transactions),
        (generation, replayed as u64),
        "{what}"
    );
    assert!(saved(&index) == expected, "{what}: the recovered index is not the build");
    assert_equivalent(&graph, &index, reference, queries);
}

/// File names of `dir`, sorted.
fn names(dir: &std::path::Path) -> Vec<String> {
    files(dir).into_keys().collect()
}

/// A kill inside the checkpoint protocol recovers one whole generation,
/// for a full and an interest-aware engine whose tail registers and drops
/// interests. Killed after `snap-2.tmp` is written, whole or torn, but
/// before its rename: generation 1 and its whole WAL segment recover, and
/// the next checkpoint writes over the leftover. Killed after the rename
/// but before the log rotates and older generations are collected:
/// generation 2 wins, the stale `snap-1.dat` and `wal-1.log` are ignored,
/// and the next checkpoint collects them. Every recovered index saves the
/// bytes of a fresh build of the reference's graph and interests.
#[test]
fn a_kill_inside_a_checkpoint_recovers_one_whole_generation() {
    const TXNS: usize = 6;
    let g0 = seed_graph(37);
    let labels = g0.base_label_count();
    let queries = workload(&g0, 0xc4);
    let pool = [seq(0, 1), seq(1, 2), seq(2, 0)];
    for (name, interests) in [("full", None), ("interest-aware", Some(pool[..2].to_vec()))] {
        let dir = tmp(&format!("checkpoint-kill-{name}"));
        let options = EngineOptions { interests, ..engine_options() };
        let store_options = StoreOptions { fsync: FsyncPolicy::Never };
        let (reference, _) = Engine::with_options(g0.clone(), options.clone());
        let mut rng = StdRng::seed_from_u64(83);
        let mut vertices = g0.vertex_count();
        let start = durable_engine(&dir, store_options, options.clone(), || g0.clone()).unwrap();
        for txn in 0..TXNS {
            let delta = interest_delta(&mut rng, &mut vertices, labels, txn, &pool);
            start.engine.apply_delta(&delta).unwrap();
            reference.apply_delta(&delta).unwrap();
        }
        let before = files(&dir);
        assert_eq!(before.keys().collect::<Vec<_>>(), ["snap-1.dat", "wal-1.log"], "{name}");
        let snap = start.engine.snapshot();
        start.store.checkpoint(snap.graph(), snap.index()).unwrap();
        drop((snap, start));
        assert_eq!(names(&dir), ["snap-2.dat", "wal-2.log"], "{name}");
        let image = std::fs::read(dir.join("snap-2.dat")).unwrap();
        let expected = saved(&fresh_build(&reference.snapshot()));

        // Killed before the rename: the temporary file, whole or torn, is
        // ignored.
        for cut in [image.len(), image.len() / 2, 3] {
            let mut contents = before.clone();
            contents.insert("snap-2.tmp".into(), image[..cut].to_vec());
            set_files(&dir, &contents);
            let what = format!("{name}: snap-2.tmp of {cut} bytes");
            assert_recovers(&dir, (1, TXNS), &expected, &reference, &queries, &what);
        }
        // The engine a restart serves checkpoints over the leftover.
        let start =
            durable_engine(&dir, store_options, options.clone(), || unreachable!()).unwrap();
        let snap = start.engine.snapshot();
        start.store.checkpoint(snap.graph(), snap.index()).unwrap();
        drop((snap, start));
        assert_eq!(names(&dir), ["snap-2.dat", "wal-2.log"], "{name}");
        assert!(std::fs::read(dir.join("snap-2.dat")).unwrap() == image, "{name}");

        // Killed after the rename, before the rotation: the new generation
        // wins over the stale files beside it.
        let mut contents = before.clone();
        contents.insert("snap-2.dat".into(), image.clone());
        set_files(&dir, &contents);
        let what = format!("{name}: renamed, not rotated");
        assert_recovers(&dir, (2, 0), &expected, &reference, &queries, &what);

        // The next checkpoint collects them.
        let start =
            durable_engine(&dir, store_options, options.clone(), || unreachable!()).unwrap();
        assert_eq!(start.recovered.as_ref().unwrap().generation, 2, "{name}");
        let delta = interest_delta(&mut rng, &mut vertices, labels, TXNS, &pool);
        start.engine.apply_delta(&delta).unwrap();
        reference.apply_delta(&delta).unwrap();
        let snap = start.engine.snapshot();
        start.store.checkpoint(snap.graph(), snap.index()).unwrap();
        drop((snap, start));
        assert_eq!(names(&dir), ["snap-3.dat", "wal-3.log"], "{name}");
        let expected = saved(&fresh_build(&reference.snapshot()));
        assert_recovers(&dir, (3, 0), &expected, &reference, &queries, name);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A kill during the bootstrap leaves only `snap-1.tmp`, whole or torn:
/// the directory counts as fresh. `recover_state` finds no store,
/// `durable_engine` calls the seed and bootstraps over the leftover, and
/// the bootstrapped store recovers the build of the seed — for a full and
/// an interest-aware engine.
#[test]
fn a_kill_during_the_bootstrap_leaves_a_fresh_directory() {
    let g0 = seed_graph(41);
    let queries = workload(&g0, 0xb0);
    for (name, interests) in [("full", None), ("interest-aware", Some(vec![seq(0, 2)]))] {
        let dir = tmp(&format!("bootstrap-kill-{name}"));
        let options = EngineOptions { interests, ..engine_options() };
        let (reference, _) = Engine::with_options(g0.clone(), options.clone());
        let expected = saved(&fresh_build(&reference.snapshot()));
        drop(
            durable_engine(&dir, StoreOptions::default(), options.clone(), || g0.clone()).unwrap(),
        );
        let image = std::fs::read(dir.join("snap-1.dat")).unwrap();
        for cut in [image.len(), image.len() / 2, 0] {
            let what = format!("{name}: snap-1.tmp of {cut} bytes");
            set_files(&dir, &BTreeMap::from([("snap-1.tmp".to_string(), image[..cut].to_vec())]));
            assert!(recover_state(&dir).unwrap().is_none(), "{what}");
            let mut seeded = false;
            let start = durable_engine(&dir, StoreOptions::default(), options.clone(), || {
                seeded = true;
                g0.clone()
            })
            .unwrap();
            assert!(start.recovered.is_none(), "{what}");
            drop(start);
            assert!(seeded, "{what}: the seed was not called");
            assert_eq!(names(&dir), ["snap-1.dat", "wal-1.log"], "{what}");
            assert_recovers(&dir, (1, 0), &expected, &reference, &queries, &what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The newest snapshot decides: one that does not read back whole — a
/// flipped byte, a cut, a trailing byte — is `Corrupt` naming it, even
/// with an intact older generation and its WAL segment beside it (that
/// generation may miss committed transactions), and so is a directory
/// holding a WAL segment but no snapshot. Neither `recover_state` nor
/// `durable_engine` opens such a directory, calls the seed, or rewrites a
/// file.
#[test]
fn a_newest_snapshot_that_does_not_read_back_is_refused_never_skipped() {
    let dir = tmp("bad-newest");
    let g0 = seed_graph(43);
    let start =
        durable_engine(&dir, StoreOptions::default(), engine_options(), || g0.clone()).unwrap();
    let (v, u, l) = generate::sample_edges(&g0, 1, 3)[0];
    start.engine.apply_delta(&Delta::new().delete_edge(v, u, l)).unwrap();
    let older = files(&dir);
    let snap = start.engine.snapshot();
    start.store.checkpoint(snap.graph(), snap.index()).unwrap();
    drop((snap, start));
    let image = std::fs::read(dir.join("snap-2.dat")).unwrap();

    let mut flipped = image.clone();
    flipped[image.len() / 2] ^= 0x04;
    let mut trailing = image.clone();
    trailing.push(0);
    let cases = [
        ("flipped", "snap-2.dat", flipped),
        ("cut", "snap-2.dat", image[..image.len() - 1].to_vec()),
        ("trailing", "snap-2.dat", trailing),
        ("missing", "wal-1.log", older["wal-1.log"].clone()),
    ];
    for (what, name, bytes) in cases {
        let mut contents = if what == "missing" { BTreeMap::new() } else { older.clone() };
        contents.insert(name.to_string(), bytes);
        set_files(&dir, &contents);
        let refused = |result: Result<(), RecoverError>| match result {
            Err(RecoverError::Corrupt { file, .. }) => {
                let expected = if what == "missing" { &dir } else { &dir.join(name) };
                assert_eq!(file, expected.display().to_string(), "{what}");
            }
            Err(other) => panic!("{what}: {other}"),
            Ok(()) => panic!("{what}: the directory was opened"),
        };
        refused(recover_state(&dir).map(drop));
        refused(
            durable_engine(&dir, StoreOptions::default(), engine_options(), || {
                panic!("{what}: the seed closure was called")
            })
            .map(drop),
        );
        assert!(files(&dir) == contents, "{what}: a file was rewritten");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
