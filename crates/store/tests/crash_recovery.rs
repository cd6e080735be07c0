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
use cpqx_graph::{generate, Graph, Label};
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
/// run spans several snapshot generations (each written incrementally),
/// and both a clean restart and a torn-tail restart recover the full
/// committed state.
#[test]
fn recovery_across_incremental_checkpoints() {
    const TXNS: usize = 40;
    let dir = tmp("checkpoints");
    // Big enough to span many topology/name chunks, so a small delta
    // leaves most of them pointer-shared and checkpoints demonstrably
    // incremental.
    let g0 = generate::random_graph(&generate::RandomGraphConfig::social(2000, 8000, 3, 23));
    let labels = g0.base_label_count();
    let queries = workload(&g0, 0xabc);

    let mut options = engine_options();
    options.durability.checkpoint_wal_bytes = Some(512);
    let mut rng = StdRng::seed_from_u64(99);
    let mut vertices = g0.vertex_count();
    let mut deltas = Vec::new();
    let (snapshots, skipped) = {
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
        (stats.snapshots_written, stats.snapshot_chunks_skipped)
    };
    assert!(snapshots >= 2, "threshold of 512 bytes must checkpoint repeatedly, got {snapshots}");
    assert!(skipped > 0, "small deltas must leave most chunks shared across checkpoints");

    let (reference, _) = Engine::with_options(g0.clone(), engine_options());
    for d in &deltas {
        reference.apply_delta(d).unwrap();
    }

    // Clean restart.
    let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
    assert!(info.generation >= 2);
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

/// A store directory whose manifest is of another format version — one
/// written before the manifest's version went to 2, say — is refused,
/// with or without a WAL segment beside it: `durable_engine` reports the
/// manifest's decode error, never calls the seed closure, and rewrites no
/// file. (Reseeding would overwrite the directory's data.)
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
    // Rewrite manifest-1 as version 1: the version follows the 8-byte
    // frame header and the 4-byte magic; the frame's CRC covers the body.
    let path = dir.join("manifest-1");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
    let crc = cpqx_store::crc32(&bytes[8..]);
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
                assert!(file.ends_with("manifest-1"), "{wal} a WAL segment: {file}");
                assert!(what.contains("format version 1, expected 2"), "{wal}: {what}");
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
    let built = |snap: &cpqx_engine::Snapshot| match snap.index().interests() {
        None => CpqxIndex::build(snap.graph(), snap.index().k()),
        Some(lq) => {
            CpqxIndex::build_interest_aware(snap.graph(), snap.index().k(), lq.iter().copied())
        }
    };
    let g0 = seed_graph(29);
    let labels = g0.base_label_count();
    let seq = |a: u16, b: u16| cpqx_graph::LabelSeq::from_slice(&[Label(a).fwd(), Label(b).inv()]);
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
                let mut ops = random_delta(&mut rng, &mut vertices, labels, txn).ops().to_vec();
                let seq = pool[rng.gen_range(0..pool.len())];
                let at = rng.gen_range(1..=ops.len());
                ops.insert(
                    at,
                    if txn % 2 == 0 {
                        DeltaOp::DeleteInterest { seq }
                    } else {
                        DeltaOp::InsertInterest { seq }
                    },
                );
                let delta = Delta::from(ops);
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
            let expected = saved(&built(&snap));
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
        assert!(saved(served.index()) == saved(&built(&reference.snapshot())), "{name}");
        drop((served, start));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Snapshots are incremental: a checkpoint right after one small delta
/// reuses every chunk record the delta left pointer-shared instead of
/// rewriting the image, and the state it persists is the live one.
#[test]
fn checkpoint_after_a_small_delta_writes_only_changed_chunks() {
    let dir = tmp("incremental");
    let g0 = generate::random_graph(&generate::RandomGraphConfig::social(2000, 8000, 3, 23));
    assert!(g0.edge_count() >= 2000);
    let queries = workload(&g0, 0xabc);
    let start =
        durable_engine(&dir, StoreOptions::default(), engine_options(), || g0.clone()).unwrap();
    // Chunk records a full snapshot of `snap` holds — what the bootstrap
    // generation wrote for the seed state: the graph's, as no index is
    // persisted.
    let chunks = |snap: &cpqx_engine::Snapshot| {
        (snap.graph().topology_chunk_count() + snap.graph().name_chunk_count()) as u64
    };
    let bootstrap_chunks = chunks(&start.engine.snapshot());

    let mut delta = Delta::new();
    for (v, u, l) in generate::sample_edges(&g0, 8, 0xd0) {
        delta = delta.delete_edge(v, u, l).insert_edge(v, u, l);
    }
    assert_eq!(delta.len(), 16);
    start.engine.apply_delta(&delta).unwrap();

    let snap = start.engine.snapshot();
    let report = start.store.checkpoint(snap.graph(), snap.index()).unwrap();
    assert_eq!(report.chunks_written + report.chunks_skipped, chunks(&snap));
    assert!(report.chunks_skipped > 0, "no chunk reused: {report:?}");
    assert!(
        report.chunks_written < bootstrap_chunks,
        "wrote {} chunks after a 16-op delta; the full image is {bootstrap_chunks}",
        report.chunks_written
    );

    let (graph, index, info) = recover_state(&dir).unwrap().unwrap();
    assert_eq!((info.generation, info.replayed_transactions), (2, 0));
    assert_equivalent(&graph, &index, &start.engine, &queries);
    let _ = std::fs::remove_dir_all(&dir);
}
