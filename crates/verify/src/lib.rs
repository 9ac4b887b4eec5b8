//! # gsm-verify
//!
//! ε-guarantee auditor and adversarial differential fuzzer for the gsm
//! estimators.
//!
//! The paper's whole value proposition is *bounded* approximation — lossy
//! counting never overestimates and undercounts by at most εN with zero
//! false negatives above the support threshold; the GK/exponential-histogram
//! quantile summaries answer within ε rank error; summaries stay inside the
//! `O((1/ε)·log(εN))` space envelope. This crate mechanically certifies all
//! of that:
//!
//! - [`gen`] — deterministic, seeded adversarial stream generators
//!   (sorted/reversed/organ-pipe, heavy duplicates, Zipf skew,
//!   epoch-aligned bursts, totalOrder edge values, window ±1 off-by-one),
//!   shared by tests and benches.
//! - [`audit`] — bound auditors that compare finished answers against the
//!   [`gsm_sketch::exact`] oracles and return a structured [`AuditReport`]
//!   (per-check worst-case error, bound headroom, space usage), not a bare
//!   pass/fail.
//! - [`diff`] — the differential driver: one stream fans out across every
//!   [`gsm_core::Engine`] × every estimator, answers are fingerprinted and
//!   cross-checked, and the agreed answers are audited against the oracles.
//! - [`durable`] — the crash-recovery driver: every family is ingested
//!   durably (WAL + incremental checkpoints), killed at configured crash
//!   points, damaged by a seeded [`gsm_durable::FaultPlan`], and
//!   recovered; recovered answers must fingerprint byte-identically to an
//!   uncrashed run over the recovered prefix, and every injected
//!   corruption must be detected, never silently replayed.
//! - [`batch`] — the batch-partition ingest driver: the same stream is
//!   ingested element-at-a-time and in boundary-adversarial batch lengths
//!   across engines × shard counts, and answers plus checkpoint envelopes
//!   must match byte for byte (`StreamEngine::push_batch`'s identity
//!   contract).
//! - [`serve`] — the served-vs-direct driver: every query kind is asked
//!   through the `gsm-serve` frontend and byte-compared against the same
//!   query run directly on the engine and its published snapshot, plus
//!   the structural reply accounting (no request lost without a reply).
//! - [`shard`] — the shard-parallel driver: the same streams fan across
//!   shard counts, pinning k = 1 to the unsharded baseline byte-for-byte
//!   and auditing shard-merged answers against the per-query ε bounds
//!   (undercount within the surfaced `⌈εN⌉ + k − 1`, space within `k ×`
//!   one summary's envelope).
//!
//! Frequency-class estimators are audited on the canonical integer-id
//! projection of each stream ([`StreamSpec::integer_ids`]): the sketches
//! merge `-0.0 == 0.0` while lookups and oracles distinguish the two bit
//! patterns, so raw totalOrder edge streams are only legal input for the
//! quantile-class audits.

#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod diff;
pub mod durable;
pub mod gen;
pub mod serve;
pub mod shard;

pub use audit::{
    audit_frequency, audit_hhh, audit_quantile, audit_sharded_frequency, audit_sharded_hhh,
    audit_sharded_quantile, audit_sliding_frequency, audit_sliding_quantile,
    frequency_space_envelope, quantile_space_envelope, AuditCheck, AuditReport,
};
pub use batch::{canonical_batch_sizes, verify_family_batched, BatchRun, BatchedFamilyOutcome};
pub use diff::{verify_family, EngineRun, FamilyOutcome, VerifyConfig};
pub use durable::{
    verify_family_recovered, DurableFamilyOutcome, DurableVerifyConfig, RecoveredRun,
};
pub use gen::{Family, SplitMix, StreamSpec};
pub use serve::{verify_family_served, ServeFamilyOutcome, ServeRun};
pub use shard::{verify_family_sharded, ShardRun, ShardedFamilyOutcome};

/// Records every failure in `outcome` into the recorder's flight ring as
/// [`gsm_obs::EngineEvent::AuditViolation`] events and returns how many
/// were recorded.
///
/// Each failure line from [`FamilyOutcome::failures`] is split at its
/// first `": "` into the failing check's identity (`family/estimator`)
/// and the bound-versus-observed detail, so a postmortem dump names
/// exactly which guarantee broke. A passing outcome records nothing.
pub fn record_violations(rec: &gsm_obs::Recorder, outcome: &FamilyOutcome) -> usize {
    record_failure_lines(rec, &outcome.failures())
}

/// Records pre-rendered failure lines (the `failures()` format shared by
/// every driver outcome in this crate: `check: detail`) into the
/// recorder's flight ring as [`gsm_obs::EngineEvent::AuditViolation`]
/// events and returns how many were recorded.
pub fn record_failure_lines(rec: &gsm_obs::Recorder, failures: &[String]) -> usize {
    for line in failures {
        let (check, detail) = line
            .split_once(": ")
            .unwrap_or((line.as_str(), "unparsed failure"));
        rec.record_event(gsm_obs::EngineEvent::AuditViolation {
            check: check.to_string(),
            detail: detail.to_string(),
        });
    }
    failures.len()
}

#[cfg(test)]
mod flight_tests {
    use super::*;

    #[test]
    fn violations_land_in_the_flight_ring() {
        // Borrow the fabricated failing outcome shape from diff's tests:
        // a passing run records nothing, a broken fingerprint records one
        // engines-disagree violation.
        let cfg = VerifyConfig {
            engines: vec![gsm_core::Engine::Host],
            ..VerifyConfig::default()
        };
        let spec = StreamSpec {
            family: Family::ZipfSkew,
            seed: 7,
            n: 4096,
            window: 1024,
        };
        let mut outcome = verify_family(&spec, &cfg);
        assert!(outcome.passed(), "failures: {:?}", outcome.failures());

        let rec = gsm_obs::Recorder::enabled();
        assert_eq!(record_violations(&rec, &outcome), 0);
        assert!(rec.flight_events().is_empty());

        outcome.cross_backend_agree = false;
        assert_eq!(record_violations(&rec, &outcome), 1);
        let events = rec.flight_events();
        assert_eq!(events.len(), 1);
        match &events[0].event {
            gsm_obs::EngineEvent::AuditViolation { check, detail } => {
                assert_eq!(check, "zipf_skew");
                assert!(detail.starts_with("engines disagree"), "{detail}");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
