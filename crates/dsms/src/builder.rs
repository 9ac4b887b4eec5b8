//! Validated construction of [`StreamEngine`]s.
//!
//! [`EngineBuilder`] is the only way to make a fresh engine. Every
//! setting is taken before the engine exists, so "configure before the
//! stream starts" is enforced by the type rather than by runtime asserts.
//! Setter order is irrelevant: the whole configuration is validated at
//! [`EngineBuilder::build`], problems are a typed [`BuildError`] instead
//! of a panic, and the one side effect — opening the durable directory —
//! happens last, after every validation has passed.

use std::fmt;

use gsm_core::Engine;
use gsm_obs::Recorder;

use crate::durable::{DurableOptions, DurableState};
use crate::engine::{StreamEngine, WindowTap};

/// Why [`EngineBuilder::build`] rejected a configuration.
#[derive(Debug)]
pub enum BuildError {
    /// `shards(0)`: at least one shard pipeline is required.
    ZeroShards,
    /// `publish_every(0)`: the publication cadence is measured in sealed
    /// windows and must be at least 1.
    ZeroPublishCadence,
    /// Opening the durable directory failed — including refusing a dirty
    /// directory that already holds WAL segments (recover instead of
    /// overwriting).
    Durability(std::io::Error),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroShards => write!(f, "shard count must be at least 1"),
            BuildError::ZeroPublishCadence => {
                write!(f, "publication cadence must be at least 1 window")
            }
            BuildError::Durability(e) => write!(f, "durability setup failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Durability(e) => Some(e),
            _ => None,
        }
    }
}

/// Builds a [`StreamEngine`] with build-time validation.
///
/// ```
/// use gsm_core::Engine;
/// use gsm_dsms::{EngineBuilder, QueryRequest};
///
/// let mut eng = EngineBuilder::new(Engine::Host)
///     .n_hint(10_000)
///     .shards(2)
///     .build()
///     .expect("valid configuration");
/// let q = eng.register_quantile(0.02);
/// let stream: Vec<f32> = (0..10_000).map(|i| (i % 100) as f32).collect();
/// eng.push_batch(&stream);
/// let median = eng.request(q, QueryRequest::Quantile { phi: 0.5 });
/// assert!((40.0..60.0).contains(&median.into_quantile()));
/// ```
pub struct EngineBuilder {
    /// The engine under construction; unreachable until [`Self::build`]
    /// has validated it.
    eng: StreamEngine,
    durability: Option<DurableOptions>,
}

impl EngineBuilder {
    /// Starts a configuration for the given sort backend: one shard, no
    /// observers, not durable.
    pub fn new(engine: Engine) -> Self {
        EngineBuilder {
            eng: StreamEngine {
                engine,
                n_hint: 100_000_000,
                shards: 1,
                specs: Vec::new(),
                pipeline: None,
                count: 0,
                obs: Recorder::disabled(),
                tap: None,
                registry: None,
                publish_every: 1,
                published_windows: 0,
                dur: None,
            },
            durability: None,
        }
    }

    /// Hints the expected stream length (affects quantile level budgets).
    /// Default: 10⁸.
    pub fn n_hint(mut self, n: u64) -> Self {
        self.eng.n_hint = n;
        self
    }

    /// Partitions ingestion across `k` shard pipelines (value-hash routed,
    /// each with its own sort backend and summaries); queries merge the
    /// shard summaries on demand ([`gsm_sketch::MergeableSummary`]), with
    /// merged error ≤ each query's registered ε plus an additive `k − 1`
    /// on frequency undercounts (surfaced by the summaries' own bounds).
    /// With `k = 1` — the default — the engine is byte-identical to the
    /// unsharded pipeline. On [`Engine::ParallelHost`] all shards submit
    /// to one worker pool, so the thread count stays the configured width.
    ///
    /// Validated at [`Self::build`]: `k = 0` is [`BuildError::ZeroShards`].
    pub fn shards(mut self, k: usize) -> Self {
        self.eng.shards = k;
        self
    }

    /// Installs an observability recorder; it propagates into the shared
    /// pipeline when the engine seals. The engine then emits per-answer
    /// latency spans (`dsms_answer{kind=...}`), a `dsms_windows_sealed`
    /// gauge, and the pipeline's per-window spans and phase counters.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.eng.obs = rec;
        self
    }

    /// Installs an audit tap invoked with every sealed (sorted) window
    /// before the query sketches absorb it. Under load shedding the tap
    /// sees exactly the admitted sub-stream, which is what the degraded
    /// bounds must be certified against. The tap is observational state: it
    /// is not serialized by [`StreamEngine::checkpoint`] and a restored
    /// engine starts without one.
    pub fn window_tap(mut self, tap: WindowTap) -> Self {
        self.eng.tap = Some(tap);
        self
    }

    /// Sets the snapshot publication cadence of a serving engine
    /// ([`StreamEngine::serve`]): a fresh snapshot every `n` newly sealed
    /// windows (default 1). Raising it amortizes the per-publication
    /// clone+merge over more ingested data at the cost of reader
    /// staleness.
    ///
    /// Validated at [`Self::build`]: `n = 0` is
    /// [`BuildError::ZeroPublishCadence`].
    pub fn publish_every(mut self, n: u64) -> Self {
        self.eng.publish_every = n;
        self
    }

    /// Attaches crash-safe durability (see [`DurableOptions`]): every
    /// sealed window is appended to a segmented, CRC-checksummed WAL in
    /// `opts.dir`, and every `CheckpointPolicy::EveryWindows` records the
    /// engine snapshots its envelope and truncates the log below the
    /// snapshot's horizon. Reopen the directory after a crash with
    /// [`StreamEngine::recover_from`].
    ///
    /// The directory and log are created at [`Self::build`]; failures
    /// there — including refusing a directory that already holds WAL
    /// segments (recover instead of overwriting) — surface as
    /// [`BuildError::Durability`]. Durability I/O failures *after* build
    /// (a failed append, fsync, or checkpoint save) panic rather than
    /// silently degrade the guarantee.
    pub fn durability(mut self, opts: DurableOptions) -> Self {
        self.durability = Some(opts);
        self
    }

    /// Validates the configuration and constructs the engine. Nothing is
    /// created on disk unless every check has passed.
    ///
    /// # Errors
    ///
    /// [`BuildError::ZeroShards`], [`BuildError::ZeroPublishCadence`], or
    /// [`BuildError::Durability`] for I/O failures opening the durable
    /// directory.
    pub fn build(self) -> Result<StreamEngine, BuildError> {
        let mut eng = self.eng;
        if eng.shards == 0 {
            return Err(BuildError::ZeroShards);
        }
        if eng.publish_every == 0 {
            return Err(BuildError::ZeroPublishCadence);
        }
        if let Some(opts) = self.durability {
            eng.dur = Some(DurableState::create(opts).map_err(BuildError::Durability)?);
        }
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_zero_shards() {
        let Err(err) = EngineBuilder::new(Engine::Host).shards(0).build() else {
            panic!("zero shards must be rejected");
        };
        assert!(matches!(err, BuildError::ZeroShards), "{err}");
    }

    #[test]
    fn builder_rejects_zero_publish_cadence() {
        let Err(err) = EngineBuilder::new(Engine::Host).publish_every(0).build() else {
            panic!("zero cadence must be rejected");
        };
        assert!(matches!(err, BuildError::ZeroPublishCadence), "{err}");
    }

    #[test]
    fn builder_surfaces_durability_io_errors() {
        // A dirty durable directory is refused with AlreadyExists — the
        // builder converts that into a typed error instead of a panic.
        let dir = std::env::temp_dir().join(format!("gsm-builder-dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut eng = EngineBuilder::new(Engine::Host)
                .durability(DurableOptions::new(&dir))
                .build()
                .expect("fresh directory");
            eng.register_quantile(0.02);
            let data: Vec<f32> = (0..2048).map(|i| i as f32).collect();
            eng.push_batch(&data);
        }
        let Err(err) = EngineBuilder::new(Engine::Host)
            .durability(DurableOptions::new(&dir))
            .build()
        else {
            panic!("dirty durable directory must be refused");
        };
        match err {
            BuildError::Durability(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists)
            }
            other => panic!("expected Durability error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
