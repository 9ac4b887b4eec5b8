//! The checkpoint codec: the one place the engine's serialized form is
//! written, parsed, upgraded and validated.
//!
//! Exactly one layout is ever *written* — the schema-3 [`Envelope`]. The
//! two older generations (schema 2: the same envelope without a WAL
//! horizon; schema 1: one flat sketch list, no envelope) are read-only:
//! [`Envelope::decode`] parses them with decode-only structs and upgrades
//! them to schema 3, so [`crate::StreamEngine::restore`] sees one shape.
//! Decoding also checks the envelope's internal consistency and reports a
//! violation as an error — a checkpoint is bytes from a disk that may have
//! been damaged or doctored, and recovery's fallback to the next-older
//! checkpoint only works if a bad one is *rejected* rather than trusted.

use crate::query::{QuerySketch, QuerySpec};

/// Envelope schema written by [`crate::StreamEngine::checkpoint`].
pub(crate) const SCHEMA: u32 = 3;

/// The versioned multi-shard checkpoint envelope (schema 3).
///
/// Device ledgers (simulated time) are *not* checkpointed — they describe
/// the process, not the stream — so a restored engine's clock starts at
/// zero while its answers carry the full history. The same split is why
/// `recorder_enabled` and `window_tap_installed` are carried as explicit
/// flags rather than payload: both are process-side observers that cannot
/// be serialized, and the envelope records whether the source engine had
/// them so a restorer knows observation (not stream state) was dropped.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct Envelope {
    /// Envelope schema version; this layout is [`SCHEMA`].
    pub(crate) schema: u32,
    pub(crate) window: usize,
    pub(crate) count: u64,
    pub(crate) n_hint: u64,
    /// Shard count the engine ran with; restore rebuilds the same layout.
    pub(crate) shards: usize,
    /// The routing policy's stable name (`ShardRouter::name`); the engine
    /// always routes by value hash, which is stateless, so no router
    /// state accompanies it.
    pub(crate) router: String,
    /// Whether the source engine had a recorder installed (the recorder
    /// itself is process state and is not restored).
    pub(crate) recorder_enabled: bool,
    /// Whether the source engine had a window tap installed (taps are
    /// process state; a restored engine explicitly starts without one).
    pub(crate) window_tap_installed: bool,
    /// Sequence number of the last WAL record covered by this snapshot
    /// (0 = nothing logged yet, or durability disabled). Recovery replays
    /// only records above it. Written whether or not durability is
    /// enabled, so there is exactly one current layout.
    pub(crate) wal_seq: u64,
    pub(crate) specs: Vec<QuerySpec>,
    /// Per-shard sketch lists, indexed `[shard][query]`.
    pub(crate) shard_sketches: Vec<Vec<QuerySketch>>,
}

/// Schema 2, decode-only: the schema-3 layout before the WAL existed.
#[derive(serde::Deserialize)]
struct EnvelopeV2 {
    window: usize,
    count: u64,
    n_hint: u64,
    shards: usize,
    router: String,
    recorder_enabled: bool,
    window_tap_installed: bool,
    specs: Vec<QuerySpec>,
    shard_sketches: Vec<Vec<QuerySketch>>,
}

/// Schema 1, decode-only: the single-shard engine's flat state, from
/// before the envelope existed.
#[derive(serde::Deserialize)]
struct FlatV1 {
    window: usize,
    count: u64,
    n_hint: u64,
    specs: Vec<QuerySpec>,
    sketches: Vec<QuerySketch>,
}

impl From<EnvelopeV2> for Envelope {
    /// A pre-WAL envelope covers no log records: horizon 0.
    fn from(v2: EnvelopeV2) -> Self {
        Envelope {
            schema: SCHEMA,
            window: v2.window,
            count: v2.count,
            n_hint: v2.n_hint,
            shards: v2.shards,
            router: v2.router,
            recorder_enabled: v2.recorder_enabled,
            window_tap_installed: v2.window_tap_installed,
            wal_seq: 0,
            specs: v2.specs,
            shard_sketches: v2.shard_sketches,
        }
    }
}

impl From<FlatV1> for EnvelopeV2 {
    /// A flat checkpoint is one hash-routed shard with no observers.
    fn from(v1: FlatV1) -> Self {
        EnvelopeV2 {
            window: v1.window,
            count: v1.count,
            n_hint: v1.n_hint,
            shards: 1,
            router: "hash".to_string(),
            recorder_enabled: false,
            window_tap_installed: false,
            specs: v1.specs,
            shard_sketches: vec![v1.sketches],
        }
    }
}

impl Envelope {
    /// The envelope as compact JSON.
    pub(crate) fn encode(&self) -> String {
        serde_json::to_string(self).expect("summaries serialize infallibly")
    }

    /// Parses a checkpoint of any schema generation into the current
    /// envelope and validates it (see [`crate::StreamEngine::restore`] for
    /// the error contract). Schema 3 is tried first: it is a strict
    /// superset of schema 2, which would otherwise parse a schema-3
    /// document and silently drop its WAL horizon.
    pub(crate) fn decode(json: &str) -> Result<Self, serde_json::Error> {
        let env = serde_json::from_str::<Envelope>(json).or_else(|v3_err| {
            serde_json::from_str::<EnvelopeV2>(json)
                .or_else(|_| serde_json::from_str::<FlatV1>(json).map(EnvelopeV2::from))
                .map(Envelope::from)
                .map_err(|_| v3_err)
        })?;
        env.validate().map_err(serde_json::Error::msg)?;
        Ok(env)
    }

    /// Everything `restore` and later queries rely on without checking.
    fn validate(&self) -> Result<(), String> {
        let one_sketch_per_spec = |sketches: &Vec<QuerySketch>| {
            sketches.len() == self.specs.len()
                && (self.specs.iter().zip(sketches)).all(|(spec, sk)| spec.kind() == sk.kind())
        };
        if self.window == 0 {
            Err("checkpoint declares a zero-element window".to_string())
        } else if self.shards == 0 || self.shard_sketches.len() != self.shards {
            Err(format!(
                "checkpoint declares {} shard(s) but carries {} sketch list(s)",
                self.shards,
                self.shard_sketches.len()
            ))
        } else if !self.shard_sketches.iter().all(one_sketch_per_spec) {
            Err("checkpoint sketches do not match its registered queries".to_string())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, QueryId, QueryRequest, StreamEngine};
    use gsm_core::Engine;
    use gsm_obs::Recorder;

    /// An engine with a quantile and a frequency query (ids in that
    /// order) over a short cyclic stream, and its checkpoint.
    fn sample(shards: usize) -> (StreamEngine, [QueryId; 2], String) {
        let mut eng = EngineBuilder::new(Engine::Host)
            .n_hint(10_000)
            .shards(shards)
            .build()
            .expect("valid configuration");
        let ids = [eng.register_quantile(0.02), eng.register_frequency(0.01)];
        let data: Vec<f32> = (0..5_000).map(|i| (i % 64) as f32).collect();
        eng.push_batch(&data);
        let json = eng.checkpoint();
        (eng, ids, json)
    }

    #[test]
    fn envelope_is_versioned_and_flags_observers() {
        let mut eng = EngineBuilder::new(Engine::Host)
            .recorder(Recorder::enabled())
            .window_tap(Box::new(|_| {}))
            .shards(2)
            .build()
            .expect("valid configuration");
        let _ = eng.register_frequency(0.01);
        let data: Vec<f32> = (0..5_000).map(|i| (i % 64) as f32).collect();
        eng.push_batch(&data);
        let cp = Envelope::decode(&eng.checkpoint()).expect("v3 envelope");
        assert_eq!(cp.schema, SCHEMA);
        assert_eq!(cp.shards, 2);
        assert_eq!(cp.router, "hash");
        assert!(cp.recorder_enabled, "envelope records the recorder");
        assert!(cp.window_tap_installed, "envelope records the tap");
        assert_eq!(cp.wal_seq, 0, "no WAL horizon without durability");
        assert_eq!(cp.shard_sketches.len(), 2);

        // A bare engine's envelope states the observers' *absence*.
        let cp = Envelope::decode(&sample(1).2).expect("v3 envelope");
        assert!(!cp.recorder_enabled);
        assert!(!cp.window_tap_installed);
    }

    #[test]
    fn encode_decode_round_trips_byte_for_byte() {
        let (_, _, json) = sample(2);
        assert_eq!(Envelope::decode(&json).expect("decodes").encode(), json);
    }

    #[test]
    fn older_schemas_upgrade_to_the_current_envelope() {
        // Hand-assemble the two retired layouts from a current envelope:
        // schema 2 is the same document minus the WAL horizon; schema 1 is
        // the single shard's flat sketch list with no envelope fields.
        let (mut eng, ids, json) = sample(1);
        let v2 = json
            .replacen("\"schema\":3", "\"schema\":2", 1)
            .replacen("\"wal_seq\":0,", "", 1);
        assert_ne!(v2, json);
        let specs_at = json.find("\"specs\":").expect("specs field");
        let flat_tail = json[specs_at..]
            .replacen("\"shard_sketches\":[[", "\"sketches\":[", 1)
            .strip_suffix("]]}")
            .expect("single shard list closes the document")
            .to_string();
        let v1 = format!(
            "{{\"window\":{},\"count\":{},\"n_hint\":10000,{flat_tail}]}}",
            eng.window(),
            eng.count()
        );
        for (name, old) in [("schema 2", v2), ("schema 1", v1)] {
            let cp = Envelope::decode(&old).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(cp.schema, SCHEMA, "{name}");
            assert_eq!(cp.encode(), json, "{name} upgrades to the same envelope");
            let mut restored = StreamEngine::restore(Engine::Host, &old).expect("restores");
            assert_eq!(restored.shard_count(), 1, "{name}");
            assert_eq!(restored.count(), eng.count(), "{name}");
            for (id, req) in [
                (ids[0], QueryRequest::Quantile { phi: 0.5 }),
                (ids[1], QueryRequest::HeavyHitters { support: 0.012 }),
            ] {
                assert_eq!(restored.request(id, req), eng.request(id, req), "{name}");
            }
        }
    }

    #[test]
    fn inconsistent_envelopes_are_errors_not_panics() {
        let (_, _, json) = sample(2);
        let doctored = [
            ("shard count above the list", "\"shards\":2", "\"shards\":3"),
            ("shard count below the list", "\"shards\":2", "\"shards\":1"),
            ("zero shards", "\"shards\":2", "\"shards\":0"),
            ("zero window", "\"window\":1024", "\"window\":0"),
            (
                "spec kinds swapped against the sketches",
                "[{\"Quantile\":{\"eps\":0.02}},{\"Frequency\":{\"eps\":0.01}}]",
                "[{\"Frequency\":{\"eps\":0.01}},{\"Quantile\":{\"eps\":0.02}}]",
            ),
            (
                "a spec without sketches",
                "\"specs\":[",
                "\"specs\":[{\"Quantile\":{\"eps\":0.5}},",
            ),
        ];
        for (what, from, to) in doctored {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "{what}: the edit must apply");
            assert!(Envelope::decode(&bad).is_err(), "{what}");
            assert!(StreamEngine::restore(Engine::Host, &bad).is_err(), "{what}");
        }
        assert!(Envelope::decode("not json").is_err());
    }
}
