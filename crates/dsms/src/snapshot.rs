//! Immutable point-in-time query state, published for concurrent readers.
//!
//! The serving problem is a reader/writer split: ingestion must keep
//! absorbing windows at stream rate while an arbitrary number of query
//! threads read summaries. Letting readers borrow the live pipeline would
//! serialize them behind the writer (and vice versa — a slow reader would
//! stall a window seal). Instead the engine *publishes*: each time enough
//! windows have sealed it clones the absorbed summary state into an
//! [`EngineSnapshot`] — merged across shards, frozen, immutable — and swaps
//! it into a [`SnapshotRegistry`] behind an epoch counter. Readers clone an
//! `Arc` out of the registry (a sub-microsecond pointer copy under a lock
//! held for that copy only, never the ingest path's locks) and then answer
//! any number of queries against state that can no longer change.
//!
//! Two consequences worth naming:
//!
//! * **Snapshots cover sealed windows only.** Publication never flushes —
//!   a flush would absorb the partial tail window and move every
//!   subsequent window boundary, changing answers relative to the
//!   flush-free timeline. A snapshot therefore answers over
//!   [`EngineSnapshot::absorbed`] elements, not everything pushed.
//! * **A held snapshot never blocks a seal.** The registry swap replaces
//!   the `Arc`; readers still holding the previous epoch keep a fully
//!   functional (merely older) view, and the writer never waits for them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gsm_sketch::{OpCounter, WindowSummary};

use crate::engine::StreamEngine;
use crate::query::{QueryAnswer, QueryKind, QueryRequest, QuerySketch};

/// Why a snapshot could not answer a query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The query index is out of range for the registered query set.
    UnknownQuery(usize),
    /// The query exists but answers a different [`QueryKind`].
    WrongKind {
        /// What the caller asked for.
        asked: QueryKind,
        /// What the query actually answers.
        actual: QueryKind,
    },
    /// No window has sealed yet — quantile summaries have no data to rank.
    Empty,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnknownQuery(i) => write!(f, "unknown query index {i}"),
            SnapshotError::WrongKind { asked, actual } => write!(
                f,
                "query answers {} but {} was requested",
                actual.name(),
                asked.name()
            ),
            SnapshotError::Empty => write!(f, "no sealed window yet"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An immutable point-in-time view of every registered query's summary.
///
/// Built by the engine at publication time: per-shard sketches are merged
/// (shard 0 cloned, the rest folded in sketch-by-sketch — byte-identical
/// to the engine's own query-time merge order), and the result is frozen.
/// [`Self::request`] takes `&self`; answers from a snapshot are
/// byte-identical to the engine's direct answers over the same sealed
/// windows, because both run the same query code on the same merged state.
///
/// A quantile answer ranks in the merge of the sketch's live buckets (or
/// sliding blocks). The snapshot cannot change, so that merge is built by
/// the first quantile request that needs it and kept: every later request
/// on this epoch is one binary search. It is built on first use, not at
/// publication, so an epoch nobody queries costs the ingest thread nothing.
pub struct EngineSnapshot {
    pub(crate) epoch: u64,
    pub(crate) pushed: u64,
    pub(crate) absorbed: u64,
    pub(crate) window: usize,
    pub(crate) windows_sealed: u64,
    pub(crate) sketches: Vec<QuerySketch>,
    /// One cell per sketch: the merged view of a quantile kind, empty
    /// until first asked for (and forever for the other kinds).
    pub(crate) merged: Vec<OnceLock<WindowSummary>>,
}

impl EngineSnapshot {
    /// Publication epoch (1-based; monotone per registry).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Elements pushed into the engine when this snapshot was taken
    /// (including any still-buffered partial window the snapshot does
    /// *not* cover).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Elements the snapshot's summaries actually cover (sealed windows
    /// only).
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// The engine's shared window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Sealed windows across all shards at publication time.
    pub fn windows_sealed(&self) -> u64 {
        self.windows_sealed
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.sketches.len()
    }

    /// The kind of query `id`, if it exists.
    pub fn kind(&self, id: usize) -> Option<QueryKind> {
        self.sketches.get(id).map(QuerySketch::kind)
    }

    /// Answers a typed [`QueryRequest`] — the snapshot's only query path,
    /// and the mirror of [`StreamEngine::request`]. Unlike the engine
    /// method, a kind mismatch is an error, not a panic — serving layers
    /// pass requests straight off the wire.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnknownQuery`], [`SnapshotError::WrongKind`], or
    /// [`SnapshotError::Empty`] for quantile kinds before the first sealed
    /// window.
    ///
    /// # Panics
    ///
    /// Panics (in the summary) on out-of-range parameters.
    pub fn request(&self, id: usize, req: QueryRequest) -> Result<QueryAnswer, SnapshotError> {
        let sketch = self
            .sketches
            .get(id)
            .ok_or(SnapshotError::UnknownQuery(id))?;
        // Quantile summaries cannot rank an empty stream. A request of the
        // wrong kind falls through so it is reported as such.
        let kind = sketch.kind();
        let ranks = kind == QueryKind::Quantile || kind == QueryKind::SlidingQuantile;
        if ranks && self.windows_sealed == 0 && req.kind() == kind {
            return Err(SnapshotError::Empty);
        }
        sketch.answer(req, &self.merged[id])
    }
}

/// The epoch-pointer mailbox between one ingesting engine and any number
/// of query readers.
///
/// Internally an `Arc` swap behind a mutex held only for the pointer copy
/// (std has no bare atomic `Arc` swap; the critical section is two pointer
/// moves, so contention is negligible next to query execution). The epoch
/// counter is read lock-free.
pub struct SnapshotRegistry {
    latest: Mutex<Option<Arc<EngineSnapshot>>>,
    epoch: AtomicU64,
}

impl SnapshotRegistry {
    pub(crate) fn new() -> Self {
        SnapshotRegistry {
            latest: Mutex::new(None),
            epoch: AtomicU64::new(0),
        }
    }

    /// The latest published snapshot, or `None` before the first
    /// publication. The returned `Arc` stays valid (and immutable) forever;
    /// holding it never delays the next publication.
    pub fn latest(&self) -> Option<Arc<EngineSnapshot>> {
        self.latest.lock().expect("registry lock").clone()
    }

    /// Epoch of the latest publication (0 before the first). Lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Installs a new snapshot, assigning it the next epoch.
    ///
    /// The pointer is swapped before the epoch counter advances, so a
    /// reader that observes `epoch() == n` is guaranteed `latest()` is at
    /// least epoch `n` — the counter can be used as a publication signal.
    pub(crate) fn publish(&self, mut snap: EngineSnapshot) -> u64 {
        let mut slot = self.latest.lock().expect("registry lock");
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        snap.epoch = epoch;
        *slot = Some(Arc::new(snap));
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }
}

impl StreamEngine {
    /// Turns the engine into a serving source: seals the pipeline, installs
    /// a [`SnapshotRegistry`], publishes the initial snapshot, and returns
    /// the registry handle for readers (e.g. `gsm_serve::QueryServer`).
    /// From here on, every [`crate::EngineBuilder::publish_every`]-th
    /// sealed window publishes a fresh snapshot. Idempotent — repeated
    /// calls return the same registry.
    ///
    /// # Panics
    ///
    /// Panics if no queries are registered.
    pub fn serve(&mut self) -> Arc<SnapshotRegistry> {
        self.seal();
        if let Some(reg) = &self.registry {
            return Arc::clone(reg);
        }
        let reg = Arc::new(SnapshotRegistry::new());
        self.registry = Some(Arc::clone(&reg));
        self.publish_now();
        reg
    }

    /// Publishes a snapshot immediately if serving (no-op otherwise).
    /// Never flushes: the snapshot covers sealed windows only, so
    /// publication cannot move window boundaries or change any answer.
    pub fn publish_now(&mut self) {
        let Some(registry) = self.registry.clone() else {
            return;
        };
        let snap = self.build_snapshot();
        let epoch = registry.publish(snap);
        self.published_windows = self.sealed().windows_sorted();
        if self.obs.is_enabled() {
            self.obs.count("dsms_snapshots_published", 1);
            self.obs.gauge_set("dsms_snapshot_epoch", epoch as i64);
            self.obs.record_event(gsm_obs::EngineEvent::Publish {
                epoch,
                windows_sealed: self.published_windows,
            });
        }
    }

    /// The publication hook: publish when enough windows sealed since the
    /// last snapshot. A single branch when not serving; one more plus a
    /// per-shard counter read per window-boundary chunk while serving.
    pub(crate) fn maybe_publish(&mut self) {
        if self.registry.is_some()
            && self.sealed().windows_sorted() >= self.published_windows + self.publish_every
        {
            self.publish_now();
        }
    }

    /// Clones + merges the absorbed summary state into an immutable
    /// snapshot. Shard 0 is cloned and the remaining shards fold in
    /// sketch-by-sketch — the same merge order as the `merged_sink` behind
    /// [`Self::request`], so snapshot answers are byte-identical to direct
    /// answers over the same sealed windows. Merge work is charged to a
    /// local counter (surfaced as `dsms_snapshot_merge_ops`), not the
    /// pipeline's merge ledger, which continues to meter query-time merges
    /// only.
    fn build_snapshot(&self) -> EngineSnapshot {
        let pipeline = self.sealed();
        let mut sketches = pipeline.shard(0).sink().sketches.clone();
        if pipeline.shard_count() > 1 {
            let mut ops = OpCounter::default();
            for shard in &pipeline.shards()[1..] {
                for (mine, theirs) in sketches.iter_mut().zip(&shard.sink().sketches) {
                    mine.merge_from(theirs, &mut ops);
                }
            }
            if self.obs.is_enabled() {
                self.obs.count("dsms_snapshot_merge_ops", ops.total());
                // Cross-shard merges widen the frequency undercount bound
                // relative to a single-shard run (DESIGN §10) — worth a
                // flight-recorder mark every time it happens.
                self.obs
                    .record_event(gsm_obs::EngineEvent::MergeBoundWidened {
                        queries: sketches.len(),
                        shards: pipeline.shard_count(),
                    });
            }
        }
        EngineSnapshot {
            epoch: 0, // assigned by the registry at publication
            pushed: self.count,
            absorbed: self.count - pipeline.unabsorbed(),
            window: pipeline.window(),
            windows_sealed: pipeline.windows_sorted(),
            merged: sketches.iter().map(|_| OnceLock::new()).collect(),
            sketches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{engine, mixed_stream, ramp};
    use crate::EngineBuilder;
    use gsm_core::{BitPrefixHierarchy, Engine};
    use gsm_obs::Recorder;

    const MEDIAN: QueryRequest = QueryRequest::Quantile { phi: 0.5 };

    #[test]
    fn serving_engine_records_publish_and_merge_flight_events() {
        let rec = Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(8192)
            .shards(2)
            .publish_every(2)
            .recorder(rec.clone())
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.05);
        let registry = eng.serve();
        eng.push_batch(&mixed_stream(8192, 11));
        eng.flush();
        eng.publish_now();
        assert!(registry.epoch() >= 1);

        let events = rec.flight_events();
        let publishes: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                gsm_obs::EngineEvent::Publish { epoch, .. } => Some(epoch),
                _ => None,
            })
            .collect();
        assert!(!publishes.is_empty());
        // Epochs in the ring are strictly increasing and end at the
        // registry's current epoch.
        assert!(publishes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*publishes.last().unwrap(), registry.epoch());
        // Two shards means every published snapshot required a cross-shard
        // merge, which widens the frequency bound — recorded as an event.
        assert!(events.iter().any(|e| matches!(
            e.event,
            gsm_obs::EngineEvent::MergeBoundWidened {
                queries: 1,
                shards: 2
            }
        )));
    }

    #[test]
    fn snapshot_answers_match_direct_answers_byte_for_byte() {
        for engine in Engine::ALL {
            for shards in [1, 3] {
                let mut eng = EngineBuilder::new(engine)
                    .n_hint(30_000)
                    .shards(shards)
                    .build()
                    .expect("valid configuration");
                let q = eng.register_quantile(0.02);
                let f = eng.register_frequency(0.001);
                let h = eng.register_hhh(0.001, BitPrefixHierarchy::new(vec![4, 8]));
                let sq = eng.register_sliding_quantile(0.05, 4_000);
                let sf = eng.register_sliding_frequency(0.05, 4_000);
                let reg = eng.serve();
                eng.push_batch(&mixed_stream(30_000, 41));
                // Flush, then publish so snapshot and direct query cover
                // exactly the same sealed windows.
                eng.flush();
                eng.publish_now();
                let snap = reg.latest().expect("published");
                assert_eq!(snap.pushed(), 30_000);
                assert_eq!(snap.absorbed(), 30_000, "flush sealed everything");
                for (id, req) in [
                    (q, QueryRequest::Quantile { phi: 0.5 }),
                    (f, QueryRequest::HeavyHitters { support: 0.01 }),
                    (h, QueryRequest::Hhh { support: 0.1 }),
                    (sq, QueryRequest::SlidingQuantile { phi: 0.5 }),
                    (sf, QueryRequest::SlidingFrequency { support: 0.2 }),
                ] {
                    let ctx = format!("{engine:?} k={shards} {req:?}");
                    let served = snap.request(id.index(), req).expect("snapshot answers");
                    let direct = eng.request(id, req);
                    if let (QueryAnswer::Quantile(s), QueryAnswer::Quantile(d)) = (&served, &direct)
                    {
                        assert_eq!(s.to_bits(), d.to_bits(), "{ctx}");
                    }
                    assert_eq!(served, direct, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn merged_view_is_built_on_first_use_once_and_answers_as_the_sketch_does() {
        const PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.9, 0.99];
        const READERS: usize = 4;
        for shards in [1, 3] {
            let mut eng = EngineBuilder::new(Engine::Host)
                .n_hint(40_000)
                .shards(shards)
                .build()
                .expect("valid configuration");
            let q = eng.register_quantile(0.02).index();
            let f = eng.register_frequency(0.001).index();
            let sq = eng.register_sliding_quantile(0.05, 4_000).index();
            let reg = eng.serve();
            eng.push_batch(&mixed_stream(40_000, 43));
            eng.flush();
            eng.publish_now();
            let snap = reg.latest().expect("published");
            assert!(
                snap.merged.iter().all(|cell| cell.get().is_none()),
                "publication builds no merged view"
            );
            let expected = |id: usize, phi: f64| match &snap.sketches[id] {
                QuerySketch::Quantile(h) => h.query(phi).to_bits(),
                QuerySketch::SlidingQuantile(s) => s.clone().query(phi).to_bits(),
                _ => unreachable!("a quantile kind"),
            };

            // Every reader's first request races the others' to the cell.
            let barrier = std::sync::Barrier::new(READERS);
            let views: Vec<(usize, usize)> = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..READERS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let mut views = Vec::new();
                            for phi in PHIS {
                                for (id, req) in [
                                    (q, QueryRequest::Quantile { phi }),
                                    (sq, QueryRequest::SlidingQuantile { phi }),
                                ] {
                                    let v = snap.request(id, req).expect("answers").into_quantile();
                                    assert_eq!(
                                        v.to_bits(),
                                        expected(id, phi),
                                        "k={shards} {req:?}"
                                    );
                                    let view = snap.merged[id].get().expect("built by now");
                                    views.push((id, view as *const WindowSummary as usize));
                                }
                            }
                            views
                        })
                    })
                    .collect();
                readers
                    .into_iter()
                    .flat_map(|r| r.join().expect("reader"))
                    .collect()
            });
            // One merged summary per sketch was ever stored: every reader,
            // on every request, ranked in the same one.
            for id in [q, sq] {
                let mut addresses = views.iter().filter(|v| v.0 == id).map(|v| v.1);
                let first = addresses.next().expect("asked");
                assert!(addresses.all(|a| a == first), "k={shards} query {id}");
            }
            // Kinds that rank nothing never fill their cell.
            let _ = snap.request(f, QueryRequest::HeavyHitters { support: 0.01 });
            assert!(snap.merged[f].get().is_none());
        }
    }

    #[test]
    fn publication_follows_window_seals_without_flushing() {
        let mut eng = engine(Engine::Host, 10_000);
        let q = eng.register_quantile(0.02);
        let reg = eng.serve();
        // Initial publication: epoch 1, nothing sealed, quantile empty.
        assert_eq!(reg.epoch(), 1);
        let first = reg.latest().expect("initial snapshot");
        assert_eq!(first.windows_sealed(), 0);
        assert_eq!(
            first.request(q.index(), MEDIAN),
            Err(SnapshotError::Empty),
            "no sealed window yet"
        );

        // 1023 elements: still mid-window, no new publication.
        eng.push_batch(&ramp(1023));
        assert_eq!(reg.epoch(), 1);
        // One more element seals window 1 and publishes epoch 2 — without
        // absorbing the (empty) partial buffer.
        eng.push_batch(&[1023.0]);
        assert_eq!(reg.epoch(), 2);
        let snap = reg.latest().expect("published");
        assert_eq!(snap.windows_sealed(), 1);
        assert_eq!(snap.pushed(), 1024);
        assert_eq!(snap.absorbed(), 1024);
        assert!(snap.request(q.index(), MEDIAN).is_ok());

        // A partial tail is visible in pushed() but not absorbed().
        eng.push_batch(&ramp(100));
        eng.publish_now();
        let snap = reg.latest().expect("published");
        assert_eq!(snap.pushed(), 1124);
        assert_eq!(snap.absorbed(), 1024, "publication never flushes");
    }

    #[test]
    fn publish_cadence_batches_seals() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(10_000)
            .publish_every(4)
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.02);
        let reg = eng.serve();
        eng.push_batch(&ramp(3 * 1024));
        assert_eq!(reg.epoch(), 1, "3 seals < cadence 4");
        eng.push_batch(&ramp(1024));
        assert_eq!(reg.epoch(), 2, "4th seal publishes");
    }

    #[test]
    fn snapshot_rejects_wrong_kind_and_unknown_queries() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let reg = eng.serve();
        eng.push_batch(&ramp(2048));
        let snap = reg.latest().expect("published");
        assert_eq!(
            snap.request(q.index(), QueryRequest::HeavyHitters { support: 0.01 }),
            Err(SnapshotError::WrongKind {
                asked: QueryKind::Frequency,
                actual: QueryKind::Quantile,
            })
        );
        assert_eq!(
            snap.request(99, MEDIAN),
            Err(SnapshotError::UnknownQuery(99))
        );
        assert_eq!(snap.kind(q.index()), Some(QueryKind::Quantile));
        assert_eq!(snap.kind(99), None);
        assert_eq!(snap.query_count(), 1);
    }

    #[test]
    fn held_snapshot_survives_later_publications() {
        let mut eng = engine(Engine::Host, 10_000);
        let q = eng.register_quantile(0.02);
        let reg = eng.serve();
        eng.push_batch(&ramp(1024));
        let old = reg.latest().expect("epoch 2");
        let old_median = old.request(q.index(), MEDIAN).unwrap();
        eng.push_batch(&(0..4096).map(|i| (i % 10) as f32).collect::<Vec<f32>>());
        assert!(reg.epoch() > old.epoch(), "newer snapshots published");
        // The held snapshot still answers, unchanged.
        assert_eq!(old.request(q.index(), MEDIAN).unwrap(), old_median);
        assert!(reg.latest().expect("latest").epoch() > old.epoch());
    }

    #[test]
    fn serve_is_idempotent_and_observable() {
        let rec = Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(10_000)
            .recorder(rec.clone())
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.02);
        let reg1 = eng.serve();
        let reg2 = eng.serve();
        assert!(Arc::ptr_eq(&reg1, &reg2), "serve() returns one registry");
        eng.push_batch(&ramp(2048));
        assert_eq!(rec.counter("dsms_snapshots_published"), 3); // initial + 2 seals
        assert_eq!(rec.gauge("dsms_snapshot_epoch").unwrap().current, 3);
    }
}
