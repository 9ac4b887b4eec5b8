#![warn(missing_docs)]

//! A miniature data-stream management layer (DSMS).
//!
//! The paper opens with the systems problem its algorithms serve (§1):
//! *"the underlying data stream management system (DSMS) can become
//! resource limited. This problem is mainly due to insufficient time for
//! the underlying CPU to process each stream element … In such cases, some
//! DSMS resort to load-shedding, i.e. dropping excess data items. … Ideally,
//! we would like to develop new hardware-accelerated solutions that can
//! offer improved processing power … to keep up with the update rate."*
//!
//! This crate supplies that surrounding system, with one door per job:
//! [`EngineBuilder`] constructs, [`StreamEngine::push_batch`] ingests,
//! [`StreamEngine::request`] / [`EngineSnapshot::request`] answer.
//!
//! * [`engine`] — [`StreamEngine`], a registry of **continuous queries**
//!   (quantiles, heavy hitters, hierarchical heavy hitters, and their
//!   sliding-window forms) that all feed from **one shared window
//!   pipeline**: the stream is sorted once per window on the configured
//!   engine and every registered summary folds in the same sorted run.
//!   Sharing is what makes the co-processor pay off system-wide — the
//!   expensive phase is common to every query.
//! * [`builder`], [`query`] and the private `checkpoint` codec — validated
//!   construction, the [`QueryRequest`] → [`QueryAnswer`] vocabulary with
//!   its single (request × sketch) dispatch, and the one written envelope
//!   schema (older ones upgraded, every one validated on decode).
//! * [`snapshot`] — immutable **published snapshots** of the absorbed
//!   summary state behind an epoch-pointer registry, so concurrent query
//!   readers (the `gsm-serve` frontend) never contend with ingestion.
//! * [`durable`] — **crash safety**: [`DurableOptions`] attaches a
//!   segmented write-ahead log and incremental checkpoints (via
//!   `gsm-durable`) to an engine, and [`StreamEngine::recover_from`]
//!   rebuilds one after a crash, byte-identical to an uncrashed run up to
//!   the last durable seal.
//! * [`shedding`] — arrival-rate modeling and **load shedding**: given an
//!   offered rate and the engine's measured (simulated) service rate, a
//!   uniform decimating shedder drops the excess, and the report quantifies
//!   both the shed fraction and the statistical price.
//!
//! Everything runs in simulated time, so "can this configuration keep up
//! with 10 M elements/s?" is answerable on a laptop.

pub mod builder;
mod checkpoint;
pub mod durable;
pub mod engine;
pub mod query;
pub mod shedding;
pub mod snapshot;

pub use builder::{BuildError, EngineBuilder};
pub use durable::{DurableOptions, RecoveryReport};
pub use engine::{QueryId, StreamEngine, WindowTap};
pub use query::{QueryAnswer, QueryKind, QueryRequest};
pub use shedding::{run_at_rate, LoadShedder, ShedReport};
pub use snapshot::{EngineSnapshot, SnapshotError, SnapshotRegistry};

#[cfg(test)]
/// Fixtures shared by the crate's inline test modules.
mod test_support {
    use crate::{EngineBuilder, QueryId, QueryRequest, StreamEngine};
    use gsm_core::Engine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A one-shard engine with no observers.
    pub(crate) fn engine(engine: Engine, n_hint: u64) -> StreamEngine {
        EngineBuilder::new(engine)
            .n_hint(n_hint)
            .build()
            .expect("valid configuration")
    }

    /// The φ-quantile answer of quantile query `q`.
    pub(crate) fn quantile(eng: &mut StreamEngine, q: QueryId, phi: f64) -> f32 {
        eng.request(q, QueryRequest::Quantile { phi })
            .into_quantile()
    }

    /// The heavy hitters of frequency query `f` at `support`.
    pub(crate) fn heavy_hitters(
        eng: &mut StreamEngine,
        f: QueryId,
        support: f64,
    ) -> Vec<(f32, u64)> {
        eng.request(f, QueryRequest::HeavyHitters { support })
            .into_heavy_hitters()
    }

    /// A seeded stream with 16 hot values (~1.25 % each) over a 65 536-value
    /// uniform background.
    pub(crate) fn mixed_stream(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.random_range(0..5) == 0 {
                    rng.random_range(0..16) as f32
                } else {
                    rng.random_range(0..65_536) as f32
                }
            })
            .collect()
    }

    /// The stream `0, 1, …, n − 1`.
    pub(crate) fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }
}
