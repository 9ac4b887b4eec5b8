//! The continuous-query engine: many registered queries, one shared
//! window pipeline.
//!
//! Sharing works because every window-based summary in the system consumes
//! the *same input*: a sorted window. The engine picks one window size that
//! satisfies every query (the largest required minimum — lossy counting's
//! guarantee only tightens with bigger buckets, and quantile sampling is
//! window-size agnostic), sorts each window exactly once on the configured
//! device, and fans the sorted run out to all summaries. The sort — 80–95 %
//! of the work (paper §3.2) — is paid once regardless of how many queries
//! are registered.

use std::sync::{Arc, Mutex, OnceLock};

use gsm_core::{BitPrefixHierarchy, Engine, ShardedPipeline, TimeBreakdown};
use gsm_model::SimTime;
use gsm_obs::Recorder;
use gsm_sketch::{MergeableSummary, OpCounter, SinkOps, SummarySink};

use crate::builder::EngineBuilder;
use crate::checkpoint::{Envelope, SCHEMA};
use crate::durable::DurableState;
use crate::query::{QueryAnswer, QueryRequest, QuerySketch, QuerySpec};
use crate::snapshot::SnapshotRegistry;

/// Handle to a registered continuous query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryId(usize);

impl QueryId {
    /// The query's registration index — stable across
    /// checkpoint/restore, and the identifier wire protocols and
    /// [`crate::EngineSnapshot`] readers use to name the query without
    /// holding a `QueryId`.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// An observer of every sealed (sorted) window the shared pipeline absorbs.
///
/// Installed via [`EngineBuilder::window_tap`]; the verification harness
/// uses it to collect the *admitted* sub-stream under load shedding, so
/// the degraded bounds can be certified against an exact oracle over
/// exactly what the engine saw.
pub type WindowTap = Box<dyn FnMut(&[f32]) + Send>;

/// Broadcast sink: fans every sorted run out to all registered queries'
/// summaries, so the shared sort is paid once regardless of query count.
///
/// Under sharding every shard owns one fan; the fans share the audit tap
/// (behind a mutex — shards seal windows from the ingest thread, so the
/// lock is uncontended) and merge sketch-by-sketch at query time.
#[derive(Clone)]
pub(crate) struct QueryFan {
    pub(crate) sketches: Vec<QuerySketch>,
    /// Audit tap, called on every sorted window before the sketches absorb
    /// it. Not part of the checkpointed state; shared across shard fans.
    tap: Option<Arc<Mutex<WindowTap>>>,
}

impl SummarySink for QueryFan {
    fn push_sorted_window(&mut self, sorted: &[f32]) {
        if let Some(tap) = &self.tap {
            (tap.lock().expect("window tap lock"))(sorted);
        }
        for sketch in &mut self.sketches {
            sketch.push_sorted_window(sorted);
        }
    }

    fn ops(&self) -> SinkOps {
        let mut total = SinkOps::default();
        for sketch in &self.sketches {
            total.absorb(sketch.ops());
        }
        total
    }
}

impl MergeableSummary for QueryFan {
    fn merge_from(&mut self, other: &Self, ops: &mut OpCounter) {
        assert_eq!(
            self.sketches.len(),
            other.sketches.len(),
            "shard fans must carry the same query set"
        );
        for (mine, theirs) in self.sketches.iter_mut().zip(&other.sketches) {
            mine.merge_from(theirs, ops);
        }
    }
}

/// A registry of continuous queries over one input stream, sharing a single
/// engine-offloaded sorting pipeline.
///
/// Built by [`EngineBuilder`]; fed by [`Self::push_batch`]; asked through
/// [`Self::request`].
///
/// ```
/// use gsm_core::Engine;
/// use gsm_dsms::{EngineBuilder, QueryRequest};
///
/// let mut eng = EngineBuilder::new(Engine::Host)
///     .n_hint(10_000)
///     .build()
///     .expect("valid configuration");
/// let q = eng.register_quantile(0.02);
/// let f = eng.register_frequency(0.005);
/// let stream: Vec<f32> = (0..10_000).map(|i| (i % 100) as f32).collect();
/// eng.push_batch(&stream);
/// let median = eng.request(q, QueryRequest::Quantile { phi: 0.5 });
/// assert!((40.0..60.0).contains(&median.into_quantile()));
/// let hot = eng.request(f, QueryRequest::HeavyHitters { support: 0.009 });
/// assert_eq!(hot.into_heavy_hitters().len(), 100); // each value is 1%
/// ```
pub struct StreamEngine {
    pub(crate) engine: Engine,
    pub(crate) n_hint: u64,
    pub(crate) shards: usize,
    pub(crate) specs: Vec<QuerySpec>,
    pub(crate) pipeline: Option<ShardedPipeline<QueryFan>>,
    pub(crate) count: u64,
    pub(crate) obs: Recorder,
    /// Audit tap waiting to be installed into the shard fans at seal time.
    pub(crate) tap: Option<WindowTap>,
    /// Snapshot mailbox, installed by [`Self::serve`]. `None` means the
    /// engine is not serving and the publication hook is a single branch.
    pub(crate) registry: Option<Arc<SnapshotRegistry>>,
    /// Publish a fresh snapshot every this many newly sealed windows.
    pub(crate) publish_every: u64,
    /// Sealed-window count as of the last publication.
    pub(crate) published_windows: u64,
    /// WAL + checkpoint store, installed by [`EngineBuilder::durability`]
    /// or [`Self::recover_from`]. `None` means the engine is not durable
    /// and the ingest hook is a single branch.
    pub(crate) dur: Option<DurableState>,
}

impl StreamEngine {
    /// The shard count configured via [`EngineBuilder::shards`].
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The engine's recorder (disabled unless installed via
    /// [`EngineBuilder::recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Registers an ε-approximate quantile query.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already started.
    pub fn register_quantile(&mut self, eps: f64) -> QueryId {
        self.register(QuerySpec::Quantile { eps })
    }

    /// Registers an ε-approximate frequency / heavy-hitter query.
    pub fn register_frequency(&mut self, eps: f64) -> QueryId {
        self.register(QuerySpec::Frequency { eps })
    }

    /// Registers an ε-approximate hierarchical heavy-hitter query.
    pub fn register_hhh(&mut self, eps: f64, hierarchy: BitPrefixHierarchy) -> QueryId {
        self.register(QuerySpec::Hhh { eps, hierarchy })
    }

    /// Registers an ε-approximate quantile query over a sliding window of
    /// the last `width` elements. The summary consumes the shared sorted
    /// windows re-chunked into its own block size, so it coexists with
    /// whole-stream queries on one pipeline. Under sharding the window
    /// covers the shard-concatenated tail (see
    /// [`gsm_sketch::SlidingQuantile::merge_from`]).
    ///
    /// # Panics
    ///
    /// Panics if the stream has already started, or (in the summary) if
    /// `width < 2/eps`.
    pub fn register_sliding_quantile(&mut self, eps: f64, width: usize) -> QueryId {
        self.register(QuerySpec::SlidingQuantile { eps, width })
    }

    /// Registers an ε-approximate frequency query over a sliding window of
    /// the last `width` elements.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already started.
    pub fn register_sliding_frequency(&mut self, eps: f64, width: usize) -> QueryId {
        self.register(QuerySpec::SlidingFrequency { eps, width })
    }

    fn register(&mut self, spec: QuerySpec) -> QueryId {
        assert!(
            self.pipeline.is_none(),
            "register all queries before pushing stream data"
        );
        self.specs.push(spec);
        QueryId(self.specs.len() - 1)
    }

    /// The shared window size (available after sealing — i.e. after the
    /// first push or an explicit [`Self::seal`]).
    pub fn window(&self) -> usize {
        self.pipeline.as_ref().map_or(0, ShardedPipeline::window)
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.specs.len()
    }

    /// Elements pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sealed pipeline; every caller seals first.
    pub(crate) fn sealed(&self) -> &ShardedPipeline<QueryFan> {
        self.pipeline.as_ref().expect("sealed")
    }

    /// Builds the shared pipeline and sketches. Called automatically by the
    /// first [`Self::push_batch`].
    ///
    /// # Panics
    ///
    /// Panics if no queries are registered.
    pub fn seal(&mut self) {
        if self.pipeline.is_some() {
            return;
        }
        let window = self
            .specs
            .iter()
            .map(QuerySpec::min_window)
            .max()
            .expect("register at least one query");
        let tap = self.tap.take().map(|t| Arc::new(Mutex::new(t)));
        // Every shard carries the full query set over its partition.
        let mut pipeline = ShardedPipeline::new(self.engine, window, self.shards, |_| QueryFan {
            sketches: self
                .specs
                .iter()
                .map(|spec| spec.sketch(window, self.n_hint))
                .collect(),
            tap: tap.clone(),
        });
        if self.obs.is_enabled() {
            pipeline = pipeline.with_recorder(self.obs.clone());
            self.obs.count("dsms_seals", 1);
            self.obs
                .count("dsms_queries_registered", self.specs.len() as u64);
            self.obs.record_event(gsm_obs::EngineEvent::Seal {
                window,
                shards: self.shards,
            });
        }
        self.pipeline = Some(pipeline);
        // A durable engine writes its base checkpoint (horizon 0) here, so
        // recovery always finds an envelope carrying the query set, even
        // if the process dies before the first periodic checkpoint.
        // (Recovered engines arrive sealed and never reach this line.)
        self.write_durable_checkpoint();
    }

    /// Pushes a columnar batch of stream elements into every registered
    /// query — the engine's only ingest path; a single element is a batch
    /// of one.
    ///
    /// The batch is split once at global window boundaries instead of
    /// checking per element. Each chunk is routed in one
    /// [`gsm_core::ShardRouter::route_batch`] pass and memcpy'd into the
    /// per-shard window buffers, and WAL/checkpoint bookkeeping runs once
    /// per chunk. Window-boundary chunking is what makes the result
    /// independent of how the caller partitions the stream into batches:
    /// the chunk boundary is simultaneously the durable record boundary
    /// (the pending WAL buffer fills exactly at `count % window == 0`)
    /// and, with one shard, the seal boundary — so seal sequences,
    /// checkpoints, WAL bytes, and answers are byte-identical for every
    /// partition of the same values. With several shards, snapshot
    /// publication is evaluated at chunk boundaries, so coarser batches
    /// can coalesce publications but never change any published answer.
    pub fn push_batch(&mut self, values: &[f32]) {
        if values.is_empty() {
            return;
        }
        self.seal();
        self.obs
            .observe("ingest_batch_elements", values.len() as u64);
        let _span = self.obs.span("ingest_batch");
        let window = self.sealed().window() as u64;
        let mut rest = values;
        while !rest.is_empty() {
            // Distance to the next global window boundary; the pending WAL
            // buffer holds exactly `count % window` elements, so a chunk
            // never overfills it.
            let room = (window - self.count % window) as usize;
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            rest = tail;
            self.count += chunk.len() as u64;
            self.pipeline.as_mut().expect("sealed").push_batch(chunk);
            self.durable_ingest_chunk(chunk);
            self.maybe_publish();
        }
    }

    /// Forces buffered data through the shared pipeline.
    pub fn flush(&mut self) {
        self.seal();
        let pipeline = self.pipeline.as_mut().expect("sealed");
        pipeline.flush();
        if self.obs.is_enabled() {
            // Current value = windows the shared sort has fully sealed.
            self.obs
                .gauge_set("dsms_windows_sealed", pipeline.windows_sorted() as i64);
        }
        self.maybe_publish();
    }

    /// Answers a typed [`QueryRequest`] against the live engine — the
    /// engine's only query path. Flushes first, then reads the query's
    /// (possibly merged) sketch through the same dispatch a published
    /// [`crate::EngineSnapshot`] uses.
    ///
    /// With one shard the sole fan is borrowed in place — no clone, no
    /// merge, byte-identical to the unsharded engine. With `k > 1` the
    /// shard fans merge into a transient answer fan; the merge work lands
    /// in the sharded pipeline's merge ledger, never the ingest ledgers.
    /// The call is timed as a `dsms_answer{kind=...}` span labelled with
    /// the request's kind.
    ///
    /// # Panics
    ///
    /// Panics if the request variant does not match the query's kind, if
    /// `id` is unknown, or (in the summary) on out-of-range parameters.
    pub fn request(&mut self, id: QueryId, req: QueryRequest) -> QueryAnswer {
        let _span = self
            .obs
            .span_labeled("dsms_answer", ("kind", req.kind().name()));
        self.flush();
        let pipeline = self.pipeline.as_mut().expect("sealed");
        let merged = OnceLock::new();
        let answer = if pipeline.shard_count() == 1 {
            pipeline.shard(0).sink().sketches[id.0].answer(req, &merged)
        } else {
            pipeline.merged_sink().sketches[id.0].answer(req, &merged)
        };
        answer.unwrap_or_else(|e| panic!("query {id:?}: {e}"))
    }

    /// Where the simulated time went, across the shared sort and every
    /// query's summary maintenance (the fan-out sink folds all queries'
    /// counters before the ledger prices them into phases).
    pub fn breakdown(&self) -> TimeBreakdown {
        self.pipeline
            .as_ref()
            .map(|p| p.ledger().breakdown())
            .unwrap_or_default()
    }

    /// Total simulated time.
    pub fn total_time(&self) -> SimTime {
        self.breakdown().total()
    }

    /// Sustained service rate so far, in elements per simulated second.
    ///
    /// Returns `f64::INFINITY` before any time has been charged.
    pub fn service_rate(&self) -> f64 {
        let t = self.total_time().as_secs();
        if t == 0.0 {
            f64::INFINITY
        } else {
            self.count as f64 / t
        }
    }

    /// Serializes the engine's query state to JSON as a schema-3
    /// multi-shard envelope: one sketch list per shard, plus the shard
    /// layout, routing policy, the WAL horizon (0 when durability is off),
    /// and explicit flags for the two process-side observers (recorder,
    /// window tap) that checkpoints cannot carry.
    ///
    /// Flushes first, so partially buffered shard windows are absorbed —
    /// at exact record boundaries (where the durable checkpoints land)
    /// this is the same flush the reference run performs, keeping window
    /// chunking and therefore every answer byte-identical across recovery.
    ///
    /// # Panics
    ///
    /// Panics if no queries are registered.
    pub fn checkpoint(&mut self) -> String {
        self.flush();
        let pipeline = self.sealed();
        Envelope {
            schema: SCHEMA,
            window: pipeline.window(),
            count: self.count,
            n_hint: self.n_hint,
            shards: pipeline.shard_count(),
            router: pipeline.router_name().to_string(),
            recorder_enabled: self.obs.is_enabled(),
            window_tap_installed: pipeline.shard(0).sink().tap.is_some(),
            wal_seq: self.dur.as_ref().map_or(0, DurableState::horizon),
            specs: self.specs.clone(),
            shard_sketches: pipeline
                .shards()
                .iter()
                .map(|shard| shard.sink().sketches.clone())
                .collect(),
        }
        .encode()
    }

    /// Restores an engine from a [`Self::checkpoint`] string onto fresh
    /// pipelines for `engine`. Summaries resume exactly where they left
    /// off; the simulated-time ledger restarts at zero, and the restored
    /// engine starts without a recorder or window tap regardless of the
    /// envelope's observer flags (both are process state).
    ///
    /// Accepts the current schema-3 envelope and both retired layouts
    /// (the schema-2 envelope and the schema-1 flat checkpoint, which
    /// restores as a single shard); the codec upgrades the old ones.
    ///
    /// # Errors
    ///
    /// The JSON error for input matching no schema, or an error naming
    /// the inconsistency in an envelope that parses but contradicts itself
    /// (zero window, shard list disagreeing with the declared shard count,
    /// sketches not one per registered query of the matching kind).
    pub fn restore(engine: Engine, json: &str) -> Result<Self, serde_json::Error> {
        let cp = Envelope::decode(json)?;
        let mut eng = EngineBuilder::new(engine)
            .n_hint(cp.n_hint)
            .shards(cp.shards)
            .build()
            .expect("a decoded envelope has at least one shard");
        eng.specs = cp.specs;
        eng.count = cp.count;
        let mut fans = cp.shard_sketches.into_iter().map(|sketches| QueryFan {
            sketches,
            tap: None,
        });
        eng.pipeline = Some(ShardedPipeline::new(engine, cp.window, cp.shards, |_| {
            fans.next().expect("one fan per shard")
        }));
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{engine, heavy_hitters, mixed_stream, quantile};
    use gsm_sketch::LossyCounting;

    #[test]
    fn shared_pipeline_serves_all_query_kinds() {
        let data = mixed_stream(60_000, 1);
        let mut eng = engine(Engine::GpuSim, 60_000);
        let q = eng.register_quantile(0.01);
        let f = eng.register_frequency(0.001);
        let h = eng.register_hhh(0.001, BitPrefixHierarchy::new(vec![4, 8]));
        eng.push_batch(&data);

        let median = quantile(&mut eng, q, 0.5);
        assert!(median.is_finite());
        let hot = heavy_hitters(&mut eng, f, 0.01);
        assert!(!hot.is_empty(), "the 16 hot values are ~1.25% each");
        let hhh = eng
            .request(h, QueryRequest::Hhh { support: 0.1 })
            .into_hhh();
        assert!(
            hhh.iter().any(|e| e.level > 0),
            "hot values share a 4-bit prefix (20% total): {hhh:?}"
        );
        assert_eq!(eng.count(), 60_000);
        assert_eq!(eng.query_count(), 3);
    }

    #[test]
    fn answers_match_standalone_estimators() {
        // Sharing must not change any answer: compare against the
        // standalone estimators at the same window size.
        let data = mixed_stream(40_000, 2);
        let mut eng = engine(Engine::Host, 40_000);
        let q = eng.register_quantile(0.01);
        let f = eng.register_frequency(0.001);
        eng.push_batch(&data);
        let window = eng.window();

        let mut q_alone = gsm_core::QuantileEstimator::builder(0.01)
            .engine(Engine::Host)
            .n_hint(40_000)
            .window(window)
            .build();
        q_alone.push_all(data.iter().copied());
        assert_eq!(quantile(&mut eng, q, 0.5), q_alone.query(0.5));

        let mut f_alone = LossyCounting::with_window(0.001, window);
        for chunk in data.chunks(window) {
            let mut w = chunk.to_vec();
            w.sort_by(f32::total_cmp);
            f_alone.push_sorted_window(&w);
        }
        assert_eq!(
            heavy_hitters(&mut eng, f, 0.01),
            f_alone.heavy_hitters(0.01)
        );
    }

    #[test]
    fn shared_sort_amortizes_across_queries() {
        // Adding queries must increase total time sublinearly: the sort is
        // shared, only summary maintenance grows.
        let data = mixed_stream(50_000, 3);
        let time_with = |kinds: usize| {
            let mut eng = engine(Engine::CpuSim, 50_000);
            let _ = eng.register_frequency(0.001);
            if kinds >= 2 {
                let _ = eng.register_quantile(0.01);
            }
            if kinds >= 3 {
                let _ = eng.register_hhh(0.001, BitPrefixHierarchy::new(vec![8]));
            }
            eng.push_batch(&data);
            eng.flush();
            eng.total_time().as_secs()
        };
        let one = time_with(1);
        let three = time_with(3);
        assert!(
            three < 1.6 * one,
            "3 queries must cost far less than 3x one query: {one:.4}s -> {three:.4}s"
        );
    }

    #[test]
    fn window_is_max_of_query_minimums() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let _ = eng.register_frequency(0.01); // needs >= 100
        let _ = eng.register_frequency(0.0005); // needs >= 2000
        let _ = eng.register_quantile(0.1); // needs >= 1024
        eng.seal();
        assert_eq!(eng.window(), 2000);
    }

    #[test]
    fn engines_agree() {
        let data = mixed_stream(30_000, 4);
        let answers: Vec<_> = [Engine::GpuSim, Engine::CpuSim, Engine::Host]
            .into_iter()
            .map(|e| {
                let mut eng = engine(e, 30_000);
                let f = eng.register_frequency(0.001);
                eng.push_batch(&data);
                heavy_hitters(&mut eng, f, 0.01)
            })
            .collect();
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let data = mixed_stream(40_000, 9);
        let mut eng = engine(Engine::Host, 80_000);
        let q = eng.register_quantile(0.01);
        let f = eng.register_frequency(0.001);
        eng.push_batch(&data[..20_000]);
        let json = eng.checkpoint();

        // Restore on a different engine and continue the stream.
        let mut restored = StreamEngine::restore(Engine::GpuSim, &json).expect("restore");
        assert_eq!(restored.count(), 20_000);
        eng.push_batch(&data[20_000..]);
        restored.push_batch(&data[20_000..]);
        assert_eq!(quantile(&mut eng, q, 0.5), quantile(&mut restored, q, 0.5));
        assert_eq!(
            heavy_hitters(&mut eng, f, 0.01),
            heavy_hitters(&mut restored, f, 0.01)
        );
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(StreamEngine::restore(Engine::Host, "not json").is_err());
    }

    #[test]
    #[should_panic(expected = "before pushing")]
    fn late_registration_rejected() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.05);
        eng.push_batch(&[1.0]);
        let _ = eng.register_frequency(0.01);
    }

    #[test]
    #[should_panic(expected = "before pushing")]
    fn registration_after_explicit_seal_rejected() {
        // seal() builds the shared pipeline even before any push; the query
        // set must be frozen from that point on.
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let _ = eng.register_quantile(0.05);
        eng.seal();
        let _ = eng.register_frequency(0.01);
    }

    #[test]
    fn checkpoint_with_partial_window_keeps_every_element() {
        // Checkpoint mid-window: the partial buffer must be flushed into
        // the summaries, not dropped — and not double-counted on restore.
        let data = mixed_stream(5_003, 11); // window = 1024, 907 stragglers
        let mut eng = engine(Engine::Host, 10_000);
        let q = eng.register_quantile(0.02);
        let f = eng.register_frequency(0.001);
        eng.push_batch(&data);
        assert_eq!(eng.window(), 1024);
        assert_ne!(
            data.len() % eng.window(),
            0,
            "checkpoint must land mid-window"
        );

        let json = eng.checkpoint();
        let mut restored = StreamEngine::restore(Engine::Host, &json).expect("restore");
        assert_eq!(restored.count(), eng.count());
        assert_eq!(restored.count(), 5_003);
        assert_eq!(quantile(&mut eng, q, 0.5), quantile(&mut restored, q, 0.5));
        assert_eq!(
            heavy_hitters(&mut eng, f, 0.01),
            heavy_hitters(&mut restored, f, 0.01)
        );

        // The original engine must also answer identically after the
        // checkpoint (its buffer was flushed, not stolen).
        let before = quantile(&mut eng, q, 0.25);
        let after = quantile(&mut eng, q, 0.25);
        assert_eq!(before, after);
    }

    #[test]
    fn recorder_observes_answers_and_windows() {
        let rec = Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(20_000)
            .recorder(rec.clone())
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let f = eng.register_frequency(0.001);
        eng.push_batch(&mixed_stream(20_000, 7));
        let _ = eng.request(q, QueryRequest::Quantile { phi: 0.5 });
        let _ = eng.request(f, QueryRequest::HeavyHitters { support: 0.01 });
        assert_eq!(rec.counter("dsms_seals"), 1);
        assert_eq!(rec.counter("dsms_queries_registered"), 2);
        // window = 1024 → 19 full windows + the flushed partial.
        assert_eq!(rec.gauge("dsms_windows_sealed").unwrap().current, 20);
        let quantile_answers = rec
            .histogram_labeled("dsms_answer", ("kind", "quantile"))
            .unwrap();
        assert_eq!(quantile_answers.count, 1);
        assert_eq!(
            rec.histogram_labeled("dsms_answer", ("kind", "frequency"))
                .unwrap()
                .count,
            1
        );
        assert!(
            rec.histogram_labeled("dsms_answer", ("kind", "generic"))
                .is_none(),
            "every answer is attributed to its request's kind"
        );
        assert_eq!(rec.counter("windows_absorbed"), 20);
        // The seal leaves a structured flight-recorder event too.
        assert!(rec.flight_events().iter().any(|e| matches!(
            e.event,
            gsm_obs::EngineEvent::Seal {
                window: 1024,
                shards: 1
            }
        )));
    }

    #[test]
    fn window_tap_sees_every_sealed_window_without_changing_answers() {
        let data = mixed_stream(10_000, 13);

        let run = |tap: Option<WindowTap>| {
            let mut builder = EngineBuilder::new(Engine::Host).n_hint(10_000);
            if let Some(t) = tap {
                builder = builder.window_tap(t);
            }
            let mut eng = builder.build().expect("valid configuration");
            let q = eng.register_quantile(0.02);
            eng.push_batch(&data);
            quantile(&mut eng, q, 0.5)
        };

        let seen: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let tapped = run(Some(Box::new(move |w: &[f32]| {
            sink.lock().expect("tap lock").extend_from_slice(w);
        })));
        assert_eq!(tapped, run(None), "the tap must never change answers");

        let seen = seen.lock().expect("tap lock");
        assert_eq!(seen.len(), data.len(), "the tap sees every element");
        // The tap sees sorted windows: same multiset, window-sorted order.
        let mut expected = data.clone();
        expected.sort_by(f32::total_cmp);
        let mut observed = seen.clone();
        observed.sort_by(f32::total_cmp);
        assert_eq!(observed, expected);
    }

    #[test]
    fn sharded_engine_agrees_with_single_shard_within_eps() {
        let data = mixed_stream(40_000, 21);
        let answers = |k: usize| {
            let mut eng = EngineBuilder::new(Engine::Host)
                .n_hint(40_000)
                .shards(k)
                .build()
                .expect("valid configuration");
            let q = eng.register_quantile(0.02);
            let f = eng.register_frequency(0.001);
            eng.push_batch(&data);
            assert_eq!(eng.shard_count(), k);
            (quantile(&mut eng, q, 0.5), heavy_hitters(&mut eng, f, 0.01))
        };
        let (median_1, hot_1) = answers(1);
        for k in [2, 4] {
            let (median_k, hot_k) = answers(k);
            // Both medians are ε-approximate, so they sit within 2ε ranks
            // of each other; over ~65k distinct uniform values that is a
            // wide value window.
            assert!(
                (median_k - median_1).abs() <= 0.05 * 65_536.0,
                "k={k}: median {median_k} vs {median_1}"
            );
            // The 16 hot values (~1.25% each at 1% support) must all
            // survive sharding: undercount grows only by k − 1 per value.
            let ids = |hh: &[(f32, u64)]| {
                let mut v: Vec<u32> = hh.iter().map(|(x, _)| x.to_bits()).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(ids(&hot_k), ids(&hot_1), "k={k}");
        }
    }

    #[test]
    fn sharded_checkpoint_round_trips_exactly() {
        let data = mixed_stream(30_000, 23);
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(60_000)
            .shards(4)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let f = eng.register_frequency(0.001);
        eng.push_batch(&data[..15_000]);
        let json = eng.checkpoint();

        let mut restored = StreamEngine::restore(Engine::GpuSim, &json).expect("restore");
        assert_eq!(restored.shard_count(), 4);
        assert_eq!(restored.count(), 15_000);
        eng.push_batch(&data[15_000..]);
        restored.push_batch(&data[15_000..]);
        assert_eq!(quantile(&mut eng, q, 0.5), quantile(&mut restored, q, 0.5));
        assert_eq!(
            heavy_hitters(&mut eng, f, 0.01),
            heavy_hitters(&mut restored, f, 0.01)
        );
    }

    #[test]
    fn sharded_recorder_attributes_windows_per_shard() {
        let rec = Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(20_000)
            .recorder(rec.clone())
            .shards(2)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        eng.push_batch(&mixed_stream(20_000, 29));
        let _ = eng.request(q, QueryRequest::Quantile { phi: 0.5 });
        let s0 = rec.counter_labeled("windows_absorbed", ("shard", "0"));
        let s1 = rec.counter_labeled("windows_absorbed", ("shard", "1"));
        assert!(s0 > 0 && s1 > 0, "both shards absorb windows: {s0}/{s1}");
        assert_eq!(rec.counter_total("windows_absorbed"), s0 + s1);
        assert_eq!(rec.counter("shard_merges"), 1, "one merge per answer");
        assert!(rec.counter("shard_merge_ops") > 0);
    }

    #[test]
    fn sharded_window_tap_sees_every_element() {
        let data = mixed_stream(10_000, 31);
        let seen: Arc<Mutex<Vec<f32>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(10_000)
            .window_tap(Box::new(move |w: &[f32]| {
                sink.lock().expect("tap lock").extend_from_slice(w);
            }))
            .shards(4)
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        eng.push_batch(&data);
        let _ = eng.request(q, QueryRequest::Quantile { phi: 0.5 });
        let mut observed = seen.lock().expect("tap lock").clone();
        assert_eq!(
            observed.len(),
            data.len(),
            "tap sees every admitted element"
        );
        let mut expected = data.clone();
        expected.sort_by(f32::total_cmp);
        observed.sort_by(f32::total_cmp);
        assert_eq!(observed, expected);
    }

    #[test]
    fn sharded_parallel_host_serves_queries() {
        // All four shards submit to one worker pool (the pool-width
        // invariant is asserted at the pipeline layer); here the engine
        // path over it must answer correctly end to end.
        let data = mixed_stream(20_000, 37);
        let mut eng = EngineBuilder::new(Engine::ParallelHost)
            .n_hint(20_000)
            .shards(4)
            .build()
            .expect("valid configuration");
        let f = eng.register_frequency(0.001);
        eng.push_batch(&data);
        let hot = heavy_hitters(&mut eng, f, 0.01);
        assert!(!hot.is_empty(), "the 16 hot values are ~1.25% each");
    }

    #[test]
    fn sliding_queries_ride_the_shared_pipeline() {
        // Phase 1 near 0, phase 2 near 100: the sliding median must track
        // the recent window while the whole-stream median stays between.
        let mut eng = engine(Engine::Host, 40_000);
        let sq = eng.register_sliding_quantile(0.05, 4_000);
        let sf = eng.register_sliding_frequency(0.05, 4_000);
        let q = eng.register_quantile(0.02);
        eng.push_batch(&(0..20_000).map(|i| (i % 7) as f32).collect::<Vec<f32>>());
        eng.push_batch(
            &(0..20_000)
                .map(|i| 100.0 + (i % 3) as f32)
                .collect::<Vec<f32>>(),
        );
        assert!(
            eng.request(sq, QueryRequest::SlidingQuantile { phi: 0.5 })
                .into_quantile()
                >= 100.0
        );
        // The stream is an exact 50/50 split, so the whole-stream median
        // sits at the phase boundary (within ε ranks of it).
        let whole = quantile(&mut eng, q, 0.5);
        assert!(
            (0.0..=100.0).contains(&whole),
            "whole-stream median {whole}"
        );
        let hot = eng
            .request(sf, QueryRequest::SlidingFrequency { support: 0.2 })
            .into_heavy_hitters();
        let values: Vec<u32> = hot.iter().map(|(v, _)| *v as u32).collect();
        assert!(
            values.iter().all(|v| (100..103).contains(v)),
            "sliding heavy hitters must come from the recent window: {hot:?}"
        );
    }

    #[test]
    fn checkpoint_round_trips_sliding_queries() {
        let data = mixed_stream(20_000, 43);
        let mut eng = engine(Engine::Host, 40_000);
        let sq = eng.register_sliding_quantile(0.05, 4_000);
        let sf = eng.register_sliding_frequency(0.05, 4_000);
        eng.push_batch(&data[..10_000]);
        let json = eng.checkpoint();
        let mut restored = StreamEngine::restore(Engine::GpuSim, &json).expect("restore");
        eng.push_batch(&data[10_000..]);
        restored.push_batch(&data[10_000..]);
        assert_eq!(
            eng.request(sq, QueryRequest::SlidingQuantile { phi: 0.5 })
                .into_quantile()
                .to_bits(),
            restored
                .request(sq, QueryRequest::SlidingQuantile { phi: 0.5 })
                .into_quantile()
                .to_bits()
        );
        assert_eq!(
            eng.request(sf, QueryRequest::SlidingFrequency { support: 0.2 })
                .into_heavy_hitters(),
            restored
                .request(sf, QueryRequest::SlidingFrequency { support: 0.2 })
                .into_heavy_hitters()
        );
    }

    #[test]
    #[should_panic(expected = "answers frequency but quantile was requested")]
    fn wrong_query_kind_panics() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .build()
            .expect("valid configuration");
        let f = eng.register_frequency(0.01);
        eng.push_batch(&(0..500).map(|i| (i % 50) as f32).collect::<Vec<f32>>());
        let _ = eng.request(f, QueryRequest::Quantile { phi: 0.5 });
    }
}
