//! Crash safety for the stream engine: [`DurableOptions`] attaches a
//! `gsm-durable` WAL + checkpoint store to a [`StreamEngine`] (see
//! [`crate::EngineBuilder::durability`]), the hooks here log every sealed
//! window, and [`StreamEngine::recover_from`] rebuilds an engine after a
//! crash and describes what it found in a [`RecoveryReport`].
//!
//! The unit of logging is the engine's shared window: every `window`
//! pushed elements become one WAL record (sequence numbers start at 1),
//! appended *after* the elements entered the pipeline — the log is a
//! redo log of arrival order, not an undo log. Every
//! `CheckpointPolicy::EveryWindows(n)` records the engine snapshots its
//! full envelope (schema 3, which carries the WAL horizon) and truncates
//! log segments below it. Recovery restores the newest checkpoint that
//! validates and replays the WAL tail through the ordinary ingest path
//! (one `push_batch` per record), reproducing the crashed run's flush
//! schedule so answers are byte-identical to an uncrashed run over the
//! same recovered prefix.

use std::path::PathBuf;

use gsm_core::Engine;
use gsm_durable::{CheckpointPolicy, CheckpointStore, FsyncPolicy, Wal, WalOptions};
use gsm_obs::Recorder;

use crate::engine::StreamEngine;

/// Configuration for a durable engine: where the log lives and how
/// aggressively it is fsynced, checkpointed, and truncated.
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// Directory holding WAL segments and checkpoint snapshots.
    pub dir: PathBuf,
    /// When appended records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// How often the engine snapshots its envelope and (optionally)
    /// truncates the log below the snapshot's horizon.
    pub checkpoint: CheckpointPolicy,
    /// WAL records per segment file.
    pub records_per_segment: u64,
    /// Whether a checkpoint truncates WAL segments below its horizon.
    /// Disabling this models the crash-between-checkpoint-and-truncate
    /// window permanently: stale records accumulate and recovery must
    /// skip them.
    pub truncate_on_checkpoint: bool,
}

impl DurableOptions {
    /// Defaults: fsync every seal, checkpoint every 8 windows, 64 records
    /// per segment, truncate on checkpoint.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            dir: dir.into(),
            fsync: FsyncPolicy::EverySeal,
            checkpoint: CheckpointPolicy::EveryWindows(8),
            records_per_segment: 64,
            truncate_on_checkpoint: true,
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the checkpoint policy.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Sets the WAL segment size in records.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn records_per_segment(mut self, n: u64) -> Self {
        assert!(n >= 1, "segments hold at least one record");
        self.records_per_segment = n;
        self
    }

    /// Enables or disables WAL truncation at checkpoint time.
    pub fn truncate_on_checkpoint(mut self, yes: bool) -> Self {
        self.truncate_on_checkpoint = yes;
        self
    }

    pub(crate) fn wal_options(&self) -> WalOptions {
        WalOptions {
            fsync: self.fsync,
            records_per_segment: self.records_per_segment,
        }
    }
}

/// The engine's live durability state: the open WAL, the checkpoint
/// store, and the buffer accumulating the in-flight window.
pub(crate) struct DurableState {
    pub(crate) wal: Wal,
    pub(crate) store: CheckpointStore,
    pub(crate) opts: DurableOptions,
    /// Elements of the current (not yet sealed, not yet logged) window.
    pub(crate) pending: Vec<f32>,
    /// Sequence number the next appended record will carry.
    pub(crate) next_seq: u64,
}

impl DurableState {
    /// Opens a fresh WAL + store for a new durable engine.
    pub(crate) fn create(opts: DurableOptions) -> std::io::Result<Self> {
        let store = CheckpointStore::open(&opts.dir)?;
        let wal = Wal::create(&opts.dir, opts.wal_options())?;
        Ok(DurableState {
            wal,
            store,
            opts,
            pending: Vec::new(),
            next_seq: 1,
        })
    }

    /// The WAL horizon: the sequence number of the last appended record.
    pub(crate) fn horizon(&self) -> u64 {
        self.next_seq - 1
    }
}

/// What [`StreamEngine::recover_from`] found and did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// WAL horizon of the checkpoint the engine was restored from (0 for
    /// the seal-time base checkpoint).
    pub checkpoint_wal_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Stream elements those records carried.
    pub replayed_elements: u64,
    /// Valid records skipped because they sat at or below the checkpoint
    /// horizon (stale segments kept by `truncate_on_checkpoint = false`,
    /// or whole-segment truncation granularity).
    pub skipped_records: u64,
    /// The recovered engine's element count.
    pub recovered_count: u64,
    /// The highest WAL sequence actually applied (the checkpoint horizon
    /// when nothing was replayed).
    pub last_applied_seq: u64,
    /// The log ended in a torn final record (crash artifact); the valid
    /// prefix was recovered and the tail discarded.
    pub torn_tail: bool,
    /// Detected log corruption (CRC mismatch, mid-log truncation,
    /// sequence gap), if any. Recovery stopped at the last valid record;
    /// the damage was never applied.
    pub corruption: Option<String>,
    /// Segment files the recovery scan examined.
    pub segments_scanned: usize,
}

impl RecoveryReport {
    /// Whether the scan saw any damage at all (torn tail or corruption).
    pub fn damaged(&self) -> bool {
        self.torn_tail || self.corruption.is_some()
    }
}

impl StreamEngine {
    /// The WAL hook on the ingest path: buffer the chunk and, once a full
    /// window has accumulated, append it as one record (redo logging — the
    /// elements already entered the pipeline) and run the checkpoint
    /// policy. [`Self::push_batch`] chunks at window boundaries, so the
    /// pending buffer fills exactly and every record holds one window.
    ///
    /// # Panics
    ///
    /// Panics on WAL I/O errors — durability cannot silently degrade.
    pub(crate) fn durable_ingest_chunk(&mut self, chunk: &[f32]) {
        let window = self.sealed().window();
        let Some(st) = self.dur.as_mut() else {
            return;
        };
        st.pending.extend_from_slice(chunk);
        debug_assert!(
            st.pending.len() <= window,
            "window-boundary chunking bounds the pending fill"
        );
        if st.pending.len() < window {
            return;
        }
        let fsynced = st
            .wal
            .append(st.next_seq, &st.pending)
            .unwrap_or_else(|e| panic!("durability: WAL append failed: {e}"));
        st.pending.clear();
        st.next_seq += 1;
        self.obs.count("wal_appends", 1);
        if fsynced {
            self.obs.count("wal_fsyncs", 1);
        }
        // Checkpoints land on horizons that are multiples of the cadence —
        // the rule recovery's replay uses to reproduce their flushes.
        let every = st.opts.checkpoint.every();
        if every.is_some_and(|n| st.horizon() % n == 0) {
            self.write_durable_checkpoint();
        }
    }

    /// Writes an incremental checkpoint: snapshot the envelope at the
    /// current WAL horizon, then (policy permitting) truncate log segments
    /// below it. Only called with an empty pending buffer — at seal time
    /// and right after an append — so the snapshot never covers elements
    /// the log hasn't sealed.
    ///
    /// # Panics
    ///
    /// Panics on checkpoint-store or WAL I/O errors.
    pub(crate) fn write_durable_checkpoint(&mut self) {
        if self.dur.is_none() {
            return;
        }
        let json = self.checkpoint();
        let st = self.dur.as_mut().expect("checked above");
        debug_assert!(
            st.pending.is_empty(),
            "checkpoint only at record boundaries"
        );
        let wal_seq = st.horizon();
        st.store
            .save(wal_seq, &json)
            .unwrap_or_else(|e| panic!("durability: checkpoint save failed: {e}"));
        if st.opts.truncate_on_checkpoint {
            st.wal
                .truncate_below(wal_seq)
                .unwrap_or_else(|e| panic!("durability: WAL truncation failed: {e}"));
        }
        self.obs.count("wal_checkpoints", 1);
    }

    /// Rebuilds an engine from a durable directory after a crash: restores
    /// the newest checkpoint that decodes and validates (falling back to
    /// the next-older one otherwise), repairs the WAL tail (discarding a
    /// torn final record and everything after detected corruption — never
    /// applying it), replays the surviving records above the checkpoint
    /// horizon through the ordinary ingest path — reproducing the crashed
    /// run's checkpoint-time flush schedule, so the recovered engine
    /// answers byte-identically to an uncrashed run over the same prefix —
    /// and reopens the log so ingestion continues durably.
    ///
    /// Records at or below the checkpoint horizon (stale segments left by
    /// whole-segment truncation granularity, or by a crash between
    /// checkpoint and truncate) are skipped, never replayed twice. The
    /// recovered engine reports to `recorder` (pass
    /// [`Recorder::disabled`] for none); as with [`Self::restore`], window
    /// taps and simulated-time ledgers are not recovered.
    ///
    /// # Errors
    ///
    /// * [`std::io::ErrorKind::NotFound`] — no checkpoint in `opts.dir`
    ///   (no durable engine ever sealed there).
    /// * [`std::io::ErrorKind::InvalidData`] — checkpoints exist but none
    ///   restores.
    /// * Other I/O errors from scanning or repairing the log.
    pub fn recover_from(
        engine: Engine,
        opts: DurableOptions,
        recorder: Recorder,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let store = CheckpointStore::open(&opts.dir)?;
        let ckpts = store.load_all_desc()?;
        if ckpts.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no checkpoint in {}", opts.dir.display()),
            ));
        }
        let restored = ckpts.iter().find_map(|(wal_seq, json)| {
            let eng = StreamEngine::restore(engine, json).ok()?;
            Some((*wal_seq, eng))
        });
        let Some((ckpt_seq, mut eng)) = restored else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{} checkpoint(s) in {} but none restores",
                    ckpts.len(),
                    opts.dir.display()
                ),
            ));
        };
        eng.obs = recorder;
        let (wal, scanned) = Wal::open_for_append(&opts.dir, opts.wal_options())?;
        let every = opts.checkpoint.every();
        let mut report = RecoveryReport {
            checkpoint_wal_seq: ckpt_seq,
            replayed_records: 0,
            replayed_elements: 0,
            skipped_records: 0,
            recovered_count: eng.count,
            last_applied_seq: ckpt_seq,
            torn_tail: scanned.torn_tail,
            corruption: scanned.corruption.clone(),
            segments_scanned: scanned.segments,
        };
        for rec in &scanned.records {
            if rec.seq <= ckpt_seq {
                report.skipped_records += 1;
                continue;
            }
            if rec.seq != report.last_applied_seq + 1 {
                // Only reachable when the newest checkpoint was rejected
                // and the log was already truncated past the older one we
                // fell back to: the tail cannot be applied contiguously,
                // so stop — never apply out of order.
                report.corruption = Some(format!(
                    "replay gap: expected record seq {}, found {}",
                    report.last_applied_seq + 1,
                    rec.seq
                ));
                break;
            }
            eng.push_batch(&rec.payload);
            if every.is_some_and(|n| rec.seq % n == 0) {
                // The crashed run flushed here when it checkpointed;
                // reproduce it so shard window chunking — and therefore
                // every answer — matches byte for byte.
                eng.flush();
            }
            report.replayed_records += 1;
            report.replayed_elements += rec.payload.len() as u64;
            report.last_applied_seq = rec.seq;
        }
        report.recovered_count = eng.count;
        let wal = if scanned.last_seq() == report.last_applied_seq {
            wal
        } else {
            // The usable history ends at `last_applied_seq` but the log on
            // disk does not (a stale-only tail below the checkpoint, or an
            // inapplicable one from a replay gap onwards). Appending after it
            // would leave a sequence gap a later scan must reject, so
            // rebuild the log and restart in a fresh segment.
            drop(wal);
            gsm_durable::wal::clear(&opts.dir)?;
            Wal::create(&opts.dir, opts.wal_options())?
        };
        eng.dur = Some(DurableState {
            wal,
            store,
            next_seq: report.last_applied_seq + 1,
            pending: Vec::new(),
            opts,
        });
        if eng.obs.is_enabled() {
            eng.obs.count("dsms_recoveries", 1);
            eng.obs.record_event(gsm_obs::EngineEvent::Recovery {
                checkpoint_wal_seq: report.checkpoint_wal_seq,
                replayed_records: report.replayed_records,
                replayed_elements: report.replayed_elements,
                torn_tail: report.torn_tail,
                corruption: report.corruption.clone().unwrap_or_default(),
            });
        }
        Ok((eng, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{engine, heavy_hitters, mixed_stream, quantile};
    use crate::EngineBuilder;

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gsm-dsms-durable-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn durable_opts(dir: &std::path::Path) -> crate::DurableOptions {
        use gsm_durable::{CheckpointPolicy, FsyncPolicy};
        crate::DurableOptions::new(dir)
            .fsync(FsyncPolicy::Off)
            .checkpoint(CheckpointPolicy::EveryWindows(2))
            .records_per_segment(3)
    }

    #[test]
    fn durable_recovery_is_byte_identical_after_clean_kill() {
        let data = mixed_stream(10_000, 91);
        let dir = durable_dir("clean");
        let rec = Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(20_000)
            .recorder(rec.clone())
            .durability(durable_opts(&dir))
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        let f = eng.register_frequency(0.005);
        eng.push_batch(&data);
        assert!(rec.counter("wal_appends") > 0, "seals were logged");
        assert!(rec.counter("wal_checkpoints") > 0, "policy checkpointed");
        drop(eng); // simulated kill: no shutdown hook, no final flush

        let rec2 = Recorder::enabled();
        let (mut back, report) =
            StreamEngine::recover_from(Engine::Host, durable_opts(&dir), rec2.clone())
                .expect("recovery");
        assert!(!report.damaged(), "clean log: no tear, no corruption");
        assert_eq!(rec2.counter("dsms_recoveries"), 1);
        // The final partial window (pending, never sealed) is lost by
        // design; everything sealed survives.
        let window = back.window() as u64;
        assert_eq!(
            report.recovered_count,
            (data.len() as u64 / window) * window
        );
        assert_eq!(report.recovered_count, back.count());

        // Byte-identical to an uncrashed run over the recovered prefix
        // (k = 1: checkpoint flushes are no-ops at record boundaries, so a
        // plain engine is a valid reference).
        let mut reference = engine(Engine::Host, 20_000);
        let _ = reference.register_quantile(0.02);
        let _ = reference.register_frequency(0.005);
        reference.push_batch(&data[..back.count() as usize]);
        for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(
                quantile(&mut back, q, phi).to_bits(),
                quantile(&mut reference, q, phi).to_bits(),
                "phi={phi}"
            );
        }
        assert_eq!(
            heavy_hitters(&mut back, f, 0.01),
            heavy_hitters(&mut reference, f, 0.01)
        );

        // And the recovered engine keeps ingesting durably.
        back.push_batch(&data);
        assert!(rec2.counter("wal_appends") > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_skips_stale_records_without_truncation() {
        // Crash-between-checkpoint-and-truncate, held open permanently:
        // every checkpoint leaves its pre-horizon records in place, and
        // recovery must skip them rather than replay them twice.
        let data = mixed_stream(9_000, 92);
        let dir = durable_dir("stale");
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(18_000)
            .durability(durable_opts(&dir).truncate_on_checkpoint(false))
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        eng.push_batch(&data);
        drop(eng);

        let (mut back, report) = StreamEngine::recover_from(
            Engine::Host,
            durable_opts(&dir).truncate_on_checkpoint(false),
            Recorder::disabled(),
        )
        .expect("recovery");
        assert!(report.skipped_records > 0, "stale records were present");
        assert_eq!(
            report.checkpoint_wal_seq, report.skipped_records,
            "exactly the records at or below the horizon are skipped"
        );
        let mut reference = engine(Engine::Host, 18_000);
        let _ = reference.register_quantile(0.02);
        reference.push_batch(&data[..back.count() as usize]);
        assert_eq!(
            quantile(&mut back, q, 0.5).to_bits(),
            quantile(&mut reference, q, 0.5).to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_of_empty_dir_is_not_found() {
        let dir = durable_dir("empty");
        let err = match StreamEngine::recover_from(
            Engine::Host,
            durable_opts(&dir),
            Recorder::disabled(),
        ) {
            Ok(_) => panic!("recovery of an empty directory must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_durable_recovery_matches_sharded_durable_reference() {
        // k = 2: checkpoint flushes change shard window chunking, so the
        // reference must be a durable engine with the same cadence; replay
        // reproduces the flush schedule.
        let data = mixed_stream(12_000, 93);
        let dir = durable_dir("shard");
        let ref_dir = durable_dir("shard-ref");
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(24_000)
            .shards(2)
            .durability(durable_opts(&dir))
            .build()
            .expect("valid configuration");
        let q = eng.register_quantile(0.02);
        eng.push_batch(&data);
        drop(eng);

        let (mut back, report) =
            StreamEngine::recover_from(Engine::Host, durable_opts(&dir), Recorder::disabled())
                .expect("recovery");
        assert_eq!(back.shard_count(), 2, "shard layout recovered");

        let mut reference = EngineBuilder::new(Engine::Host)
            .n_hint(24_000)
            .shards(2)
            .durability(durable_opts(&ref_dir))
            .build()
            .expect("valid configuration");
        let _ = reference.register_quantile(0.02);
        reference.push_batch(&data[..report.recovered_count as usize]);
        assert_eq!(
            quantile(&mut back, q, 0.5).to_bits(),
            quantile(&mut reference, q, 0.5).to_bits()
        );
        assert_eq!(
            quantile(&mut back, q, 0.99).to_bits(),
            quantile(&mut reference, q, 0.99).to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}
