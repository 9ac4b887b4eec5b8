//! The five workload configurations and the one way the harness builds an
//! engine from them.

use std::sync::Arc;

use gsm_core::Engine;
use gsm_dsms::{DurableOptions, EngineBuilder, QueryId, SnapshotRegistry, StreamEngine};
use gsm_obs::Recorder;
use gsm_serve::ServeConfig;
use gsm_sketch::BitPrefixHierarchy;

use crate::input::{Kind, Stream};

/// One registered continuous query.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    Quantile { eps: f64 },
    Frequency { eps: f64 },
    Hhh { eps: f64 },
    SlidingQuantile { eps: f64, width: usize },
    SlidingFrequency { eps: f64, width: usize },
}

impl Query {
    pub fn kind(self) -> Kind {
        match self {
            Query::Quantile { .. } => Kind::Quantile,
            Query::Frequency { .. } => Kind::Hh,
            Query::Hhh { .. } => Kind::Hhh,
            Query::SlidingQuantile { .. } => Kind::Squant,
            Query::SlidingFrequency { .. } => Kind::Shh,
        }
    }
}

/// A workload whose phases together exceed this fails operations instead
/// of running on (the driver's own limit is 180 s).
pub const WALL_CAP: std::time::Duration = std::time::Duration::from_secs(120);

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The recorder of a traced (`on`) or untraced run.
pub fn recorder(on: bool) -> Recorder {
    if on {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// The query server every workload's readers go through.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 256,
        default_deadline: std::time::Duration::from_secs(1),
        ..ServeConfig::default()
    }
}

/// Bit shifts of the hierarchy every hhh query uses.
pub const HHH_SHIFTS: [u32; 3] = [4, 8, 12];

/// A workload's fixed parameters. Sizes are stated per second of
/// `--seconds` so the work done is a function of the arguments alone: a
/// faster program finishes sooner, it is not handed more work (publish and
/// query costs grow with stream length, so the length must not float).
pub struct Config {
    pub name: &'static str,
    pub shards: usize,
    pub batch: usize,
    pub queries: &'static [Query],
    pub stream: Stream,
    /// Largest buffer generated; longer streams cycle it in whole passes.
    pub buffer_cap: usize,
    /// Elements one repeat ingests per second of `--seconds`.
    pub elems_per_second: usize,
    /// `Some(n)`: the engine serves, publishing every `n` sealed windows.
    pub publish_every: Option<u64>,
    /// WAL + periodic checkpoints in a scratch directory.
    pub durable: bool,
    /// Support of the (hierarchical) heavy-hitter requests and checks.
    pub hh_support: f64,
}

pub const INGEST_SORT: Config = Config {
    name: "ingest_sort",
    shards: 1,
    batch: 8192,
    queries: &[
        Query::Quantile { eps: 0.001 },
        Query::Frequency { eps: 1.0 / 65536.0 },
    ],
    stream: Stream::Dict,
    buffer_cap: 1 << 23,
    elems_per_second: 6_700_000,
    publish_every: None,
    durable: false,
    // Every dictionary value holds 1/4096 of the stream: at 1/8192 all of
    // them are heavy, which makes the frequency oracle check 4096 counts.
    hh_support: 1.0 / 8192.0,
};

pub const INGEST_ABSORB: Config = Config {
    name: "ingest_absorb",
    shards: 1,
    batch: 8192,
    queries: &[
        Query::Quantile { eps: 0.0005 },
        Query::Frequency { eps: 1.0 / 2048.0 },
        Query::Hhh { eps: 1.0 / 2048.0 },
        Query::SlidingQuantile {
            eps: 0.01,
            width: 65536,
        },
        Query::SlidingFrequency {
            eps: 0.001,
            width: 65536,
        },
    ],
    stream: Stream::Zipf,
    buffer_cap: 1 << 22,
    elems_per_second: 400_000,
    publish_every: None,
    durable: false,
    hh_support: 0.01,
};

pub const SHARDED_PUBLISH: Config = Config {
    name: "sharded_publish",
    shards: 4,
    batch: 1024,
    queries: &[
        Query::Quantile { eps: 0.001 },
        Query::Frequency { eps: 1.0 / 16384.0 },
    ],
    stream: Stream::Zipf,
    buffer_cap: 1 << 22,
    elems_per_second: 800_000,
    publish_every: Some(4),
    durable: false,
    hh_support: 0.01,
};

pub const DURABLE: Config = Config {
    name: "durable",
    shards: 1,
    batch: 8192,
    queries: &[Query::Frequency { eps: 1.0 / 4096.0 }],
    stream: Stream::Zipf,
    buffer_cap: 1 << 22,
    elems_per_second: 1_250_000,
    publish_every: None,
    durable: true,
    hh_support: 0.01,
};

/// `serve_mixed` ingests on a schedule, not per repeat: see `serve.rs`.
pub const SERVE_MIXED: Config = Config {
    name: "serve_mixed",
    shards: 2,
    batch: 8192,
    queries: &[
        Query::Quantile { eps: 0.001 },
        Query::Frequency { eps: 1.0 / 8192.0 },
        Query::Hhh { eps: 1.0 / 8192.0 },
        Query::SlidingQuantile {
            eps: 0.05,
            width: 16384,
        },
        Query::SlidingFrequency {
            eps: 0.01,
            width: 16384,
        },
    ],
    stream: Stream::Zipf,
    buffer_cap: 1 << 21,
    elems_per_second: 1_000_000,
    publish_every: Some(4),
    durable: false,
    hh_support: 0.01,
};

pub const ALL: [&Config; 5] = [
    &INGEST_SORT,
    &INGEST_ABSORB,
    &SHARDED_PUBLISH,
    &DURABLE,
    &SERVE_MIXED,
];

/// Buffer lengths are whole multiples of this: every batch size and every
/// shared window divides it, so a pass ends on a batch, a window and a WAL
/// record boundary at once.
pub const SIZE_UNIT: usize = 1 << 16;

impl Config {
    /// `(buffer length, passes)` of one repeat at `seconds`.
    pub fn sizing(&self, seconds: u64) -> (usize, usize) {
        let target = self.elems_per_second * seconds as usize;
        let n = (target.min(self.buffer_cap) / SIZE_UNIT).max(1) * SIZE_UNIT;
        let passes = ((target + n / 2) / n).max(1);
        (n, passes)
    }

    /// The kinds this workload registers, in registration order.
    pub fn kinds(&self) -> Vec<Kind> {
        self.queries.iter().map(|q| q.kind()).collect()
    }

    /// Registration index of the first query of `kind` (what the wire
    /// protocol and snapshots address queries by).
    pub fn index_of(&self, kind: Kind) -> usize {
        self.queries
            .iter()
            .position(|q| q.kind() == kind)
            .expect("kind registered by this workload")
    }

    /// Builds an engine the way every workload does: `ParallelHost`,
    /// validated by [`EngineBuilder`], queries registered in order, sealed,
    /// and — with `serve`, for a workload that publishes — serving.
    pub fn build(
        &self,
        n_hint: u64,
        recorder: Recorder,
        durability: Option<DurableOptions>,
        serve: bool,
    ) -> Built {
        let mut builder = EngineBuilder::new(Engine::ParallelHost)
            .n_hint(n_hint)
            .shards(self.shards)
            .recorder(recorder);
        if let Some(n) = self.publish_every.filter(|_| serve) {
            builder = builder.publish_every(n);
        }
        if let Some(opts) = durability {
            builder = builder.durability(opts);
        }
        let mut eng = builder.build().expect("valid benchmark configuration");
        let ids = self
            .queries
            .iter()
            .map(|&q| {
                let id = match q {
                    Query::Quantile { eps } => eng.register_quantile(eps),
                    Query::Frequency { eps } => eng.register_frequency(eps),
                    Query::Hhh { eps } => {
                        eng.register_hhh(eps, BitPrefixHierarchy::new(HHH_SHIFTS.to_vec()))
                    }
                    Query::SlidingQuantile { eps, width } => {
                        eng.register_sliding_quantile(eps, width)
                    }
                    Query::SlidingFrequency { eps, width } => {
                        eng.register_sliding_frequency(eps, width)
                    }
                };
                (q, id)
            })
            .collect();
        eng.seal();
        assert_eq!(SIZE_UNIT % eng.window(), 0, "window must divide a pass");
        let registry = (serve && self.publish_every.is_some()).then(|| eng.serve());
        Built { eng, ids, registry }
    }
}

/// An engine with the handles of its registered queries.
pub struct Built {
    pub eng: StreamEngine,
    pub ids: Vec<(Query, QueryId)>,
    /// The snapshot mailbox, if the engine serves.
    pub registry: Option<Arc<SnapshotRegistry>>,
}

impl Built {
    /// The handle of the first registered query of `kind`.
    pub fn id_of(&self, kind: Kind) -> QueryId {
        self.ids
            .iter()
            .find(|(q, _)| q.kind() == kind)
            .map(|&(_, id)| id)
            .expect("kind registered by this workload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_is_whole_units_and_whole_passes() {
        assert_eq!(INGEST_SORT.sizing(10), (1 << 23, 8));
        assert_eq!(DURABLE.sizing(10), (1 << 22, 3));
        assert_eq!(SHARDED_PUBLISH.sizing(10), (1 << 22, 2));
        let (n, passes) = INGEST_ABSORB.sizing(10);
        assert_eq!((n % SIZE_UNIT, passes), (0, 1));
        assert!((3_900_000..=4_000_000).contains(&n));
        for cfg in ALL {
            let (n, passes) = cfg.sizing(1);
            assert!(n >= SIZE_UNIT && n % SIZE_UNIT == 0 && passes >= 1);
            assert_eq!(n % cfg.batch, 0);
        }
    }
}
