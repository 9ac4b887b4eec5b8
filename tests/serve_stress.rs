//! Concurrency stress for the serving frontend: readers across seals,
//! queries racing checkpoint/restore, deadline expiry under saturation,
//! and shutdown under fire.
//!
//! These tests prove *structural* properties — every request gets exactly
//! one structured reply, held snapshots stay valid across publications,
//! ingestion completes while readers hammer the registry — rather than
//! timing ratios, which are unreliable on shared single-core CI runners.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gsm::core::Engine;
use gsm::dsms::{EngineBuilder, EngineSnapshot, QueryRequest, StreamEngine};
use gsm::serve::{QueryServer, Reply, Request, ServeConfig};

const MEDIAN: QueryRequest = QueryRequest::Quantile { phi: 0.5 };

fn host_engine(n_hint: u64) -> StreamEngine {
    EngineBuilder::new(Engine::Host)
        .n_hint(n_hint)
        .build()
        .expect("valid configuration")
}

/// The stream `0, 1, …` folded into `0..modulus`.
fn cyclic(n: usize, modulus: usize) -> Vec<f32> {
    (0..n).map(|v| (v % modulus) as f32).collect()
}

/// Bit pattern of a snapshot's median for query index `q`.
fn median_bits(snap: &EngineSnapshot, q: usize) -> u32 {
    let answer = snap.request(q, MEDIAN).expect("sealed data");
    answer.into_quantile().to_bits()
}

fn structured(reply: &Reply) -> bool {
    matches!(
        reply,
        Reply::Answer { .. }
            | Reply::Overloaded { .. }
            | Reply::Expired
            | Reply::NotReady
            | Reply::BadQuery(_)
    )
}

/// Many reader threads issue queries continuously while the writer seals
/// hundreds of windows. Every reply must be structured, epochs must
/// advance, and after a drain the reply accounting must balance exactly.
#[test]
fn readers_hammer_across_seals_without_losing_requests() {
    let mut eng = host_engine(200_000);
    let q = eng.register_quantile(0.02);
    let f = eng.register_frequency(0.001);
    let registry = eng.serve();
    let server = QueryServer::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|i| {
            let client = server.client();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut calls = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let reply = if i % 2 == 0 {
                        client.call(Request::Quantile { query: 0, phi: 0.5 })
                    } else {
                        client.call(Request::HeavyHitters {
                            query: 1,
                            support: 0.01,
                        })
                    };
                    assert!(structured(&reply), "unstructured reply {reply:?}");
                    calls += 1;
                }
                calls
            })
        })
        .collect();

    // ~195 seals (window 1024) with publication on every seal.
    eng.push_batch(&cyclic(200_000, 100));
    let writer_epoch = registry.epoch();
    assert!(writer_epoch > 100, "epochs advanced with seals");
    stop.store(true, Ordering::Release);
    let total_calls: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_calls > 0, "readers made progress");

    // Drain and balance the books.
    let client = server.client();
    drop(server);
    let stats = client.stats();
    assert_eq!(stats.submitted, total_calls);
    assert_eq!(stats.lost(), 0, "no silent drops under load: {stats:?}");
    let _ = (q, f);
}

/// A reader that grabs a snapshot early keeps a stable view forever:
/// later publications never mutate or invalidate it, and holding it never
/// prevents the writer from sealing (this test would deadlock otherwise).
#[test]
fn held_snapshots_stay_stable_while_sealing_continues() {
    let mut eng = host_engine(100_000);
    let q = eng.register_quantile(0.02);
    let registry = eng.serve();
    eng.push_batch(&cyclic(4096, 50));
    let held = registry.latest().expect("published");
    let held_epoch = held.epoch();
    let held_median = median_bits(&held, q.index());

    let stop = Arc::new(AtomicBool::new(false));
    let holders: Vec<_> = (0..4)
        .map(|_| {
            let snap = Arc::clone(&held);
            let stop = Arc::clone(&stop);
            let q = q.index();
            thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    assert_eq!(
                        median_bits(&snap, q),
                        held_median,
                        "held snapshot must be immutable"
                    );
                }
            })
        })
        .collect();

    // The writer seals ~94 more windows while the old epoch is held.
    eng.push_batch(&cyclic(96_000, 10));
    assert!(
        registry.epoch() > held_epoch + 50,
        "sealing continued while snapshots were held"
    );
    stop.store(true, Ordering::Release);
    for h in holders {
        h.join().expect("holder");
    }
    // The held view is still answerable and still old.
    assert_eq!(held.epoch(), held_epoch);
    assert_eq!(median_bits(&held, q.index()), held_median);
}

/// Queries keep flowing while the engine checkpoints and a second engine
/// restores from the serialized state; the restored engine's direct
/// answers must match the served answers from the snapshot of the same
/// data.
#[test]
fn queries_race_checkpoint_and_restore() {
    let mut eng = host_engine(50_000);
    let q = eng.register_quantile(0.02);
    let registry = eng.serve();
    let server = QueryServer::start(Arc::clone(&registry), ServeConfig::default());
    eng.push_batch(&cyclic(50_000, 100));

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let client = server.client();
        let stop = Arc::clone(&stop);
        let q = q.index();
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let reply = client.call(Request::Quantile { query: q, phi: 0.5 });
                assert!(structured(&reply), "unstructured reply {reply:?}");
            }
        })
    };

    // Checkpoint / restore repeatedly while queries are in flight.
    let mut last_json = String::new();
    for _ in 0..5 {
        last_json = eng.checkpoint();
        let mut restored = StreamEngine::restore(Engine::Host, &last_json).expect("restore");
        assert_eq!(restored.count(), 50_000);
        let direct = restored.request(q, MEDIAN).into_quantile();
        let snap = registry.latest().expect("published");
        assert_eq!(
            median_bits(&snap, q.index()),
            direct.to_bits(),
            "restored engine and live snapshot agree on the same data"
        );
    }
    assert!(!last_json.is_empty());
    stop.store(true, Ordering::Release);
    reader.join().expect("reader");
    drop(server);
}

/// Under a saturated single-worker queue with zero deadlines, every
/// admitted request expires (never executes stale) and every shed request
/// is told so — the books balance to zero lost.
#[test]
fn saturated_queue_expires_deadlines_and_sheds_structurally() {
    let mut eng = host_engine(10_000);
    let q = eng.register_quantile(0.02);
    let registry = eng.serve();
    eng.push_batch(&cyclic(10_000, 100));
    let server = QueryServer::start(
        registry,
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            default_deadline: Duration::from_secs(1),
            ..ServeConfig::default()
        },
    );
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let client = server.client();
            let q = q.index();
            thread::spawn(move || {
                let mut expired = 0u64;
                let mut overloaded = 0u64;
                for _ in 0..32 {
                    match client
                        .call_within(Request::Quantile { query: q, phi: 0.5 }, Duration::ZERO)
                    {
                        Reply::Expired => expired += 1,
                        Reply::Overloaded { .. } => overloaded += 1,
                        Reply::Answer { .. } => {
                            panic!("zero-deadline request must never execute")
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
                (expired, overloaded)
            })
        })
        .collect();
    let mut expired = 0u64;
    for c in clients {
        let (e, _) = c.join().expect("client thread");
        expired += e;
    }
    assert!(expired > 0, "admitted zero-deadline requests expire");
    let stats = server.stats();
    drop(server);
    assert_eq!(stats.submitted, 128);
    assert_eq!(stats.lost(), 0, "every request got a structured reply");
    assert_eq!(stats.answered, 0);
    assert_eq!(stats.expired + stats.overloaded, 128);
}

/// Dropping the server while clients are mid-call never strands a
/// request: admitted work drains with real replies, later submissions are
/// shed, and the accounting balances.
#[test]
fn shutdown_under_fire_strands_nothing() {
    let mut eng = host_engine(10_000);
    let q = eng.register_quantile(0.02);
    let registry = eng.serve();
    eng.push_batch(&cyclic(10_000, 100));
    let server = QueryServer::start(
        registry,
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let hammer: Vec<_> = (0..3)
        .map(|_| {
            let client = client.clone();
            let q = q.index();
            thread::spawn(move || {
                for _ in 0..200 {
                    let reply = client.call(Request::Quantile { query: q, phi: 0.5 });
                    assert!(structured(&reply), "unstructured reply {reply:?}");
                }
            })
        })
        .collect();
    // Shut down mid-hammer: Drop closes admission, drains, joins.
    thread::sleep(Duration::from_millis(5));
    drop(server);
    for h in hammer {
        h.join().expect("hammer thread");
    }
    let stats = client.stats();
    assert_eq!(
        stats.lost(),
        0,
        "no request stranded by shutdown: {stats:?}"
    );
    assert_eq!(stats.submitted, 600);
}
