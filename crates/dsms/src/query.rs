//! The query vocabulary: what can be registered (the private `QuerySpec`),
//! what is maintained per query (the private `QuerySketch`), what can be
//! asked ([`QueryRequest`]) and what comes back ([`QueryAnswer`]).
//!
//! Every answer — from the live engine ([`crate::StreamEngine::request`])
//! or a published snapshot ([`crate::EngineSnapshot::request`]) — goes
//! through the one (request × sketch) dispatch in `QuerySketch::answer`,
//! so snapshot answers are byte-identical to direct ones.

use std::sync::OnceLock;

use gsm_core::{BitPrefixHierarchy, HhhEntry};
use gsm_sketch::{
    ExpHistogram, HhhSummary, LossyCounting, OpCounter, SinkOps, SlidingFrequency, SlidingQuantile,
    SummarySink, WindowSummary,
};

use crate::snapshot::SnapshotError;

/// What a registered continuous query answers — the public mirror of the
/// engine's (private) query specs, exposed so serving layers can validate
/// and route requests without holding an engine reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// ε-approximate quantiles over the whole stream.
    Quantile,
    /// ε-approximate frequencies / heavy hitters over the whole stream.
    Frequency,
    /// Hierarchical heavy hitters over the whole stream.
    Hhh,
    /// ε-approximate quantiles over a fixed-width sliding window.
    SlidingQuantile,
    /// ε-approximate frequencies over a fixed-width sliding window.
    SlidingFrequency,
}

impl QueryKind {
    /// Stable lower-case name (used by wire protocols and metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Quantile => "quantile",
            QueryKind::Frequency => "frequency",
            QueryKind::Hhh => "hhh",
            QueryKind::SlidingQuantile => "sliding_quantile",
            QueryKind::SlidingFrequency => "sliding_frequency",
        }
    }
}

/// A typed continuous-query request: the parameter carries its meaning in
/// the variant, and the variant must match the addressed query's
/// registered [`QueryKind`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum QueryRequest {
    /// Whole-stream φ-quantile.
    Quantile {
        /// Quantile fraction in `[0, 1]`.
        phi: f64,
    },
    /// Whole-stream heavy hitters at a support threshold.
    HeavyHitters {
        /// Support threshold in `(ε, 1]`.
        support: f64,
    },
    /// Hierarchical heavy hitters at a support threshold.
    Hhh {
        /// Support threshold in `(ε, 1]`.
        support: f64,
    },
    /// Sliding-window φ-quantile.
    SlidingQuantile {
        /// Quantile fraction in `[0, 1]`.
        phi: f64,
    },
    /// Sliding-window heavy hitters at a support threshold.
    SlidingFrequency {
        /// Support threshold in `(ε, 1]`.
        support: f64,
    },
}

impl QueryRequest {
    /// The query kind this request addresses.
    pub fn kind(&self) -> QueryKind {
        match self {
            QueryRequest::Quantile { .. } => QueryKind::Quantile,
            QueryRequest::HeavyHitters { .. } => QueryKind::Frequency,
            QueryRequest::Hhh { .. } => QueryKind::Hhh,
            QueryRequest::SlidingQuantile { .. } => QueryKind::SlidingQuantile,
            QueryRequest::SlidingFrequency { .. } => QueryKind::SlidingFrequency,
        }
    }
}

/// The answer to a [`QueryRequest`]. Both quantile kinds answer
/// [`QueryAnswer::Quantile`] and both frequency kinds
/// [`QueryAnswer::HeavyHitters`]; the `into_*` projections unwrap the
/// variant a caller already knows it asked for.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryAnswer {
    /// A φ-quantile value.
    Quantile(f32),
    /// Heavy hitters at a support threshold.
    HeavyHitters(Vec<(f32, u64)>),
    /// Hierarchical heavy hitters at a support threshold.
    Hhh(Vec<HhhEntry>),
}

impl QueryAnswer {
    /// The quantile value; panics if the answer is another variant.
    pub fn into_quantile(self) -> f32 {
        match self {
            QueryAnswer::Quantile(v) => v,
            other => panic!("expected a quantile answer, got {other:?}"),
        }
    }

    /// The `(value, estimated count)` heavy-hitter list; panics if the
    /// answer is another variant.
    pub fn into_heavy_hitters(self) -> Vec<(f32, u64)> {
        match self {
            QueryAnswer::HeavyHitters(hh) => hh,
            other => panic!("expected a heavy-hitters answer, got {other:?}"),
        }
    }

    /// The hierarchical heavy-hitter entries; panics if the answer is
    /// another variant.
    pub fn into_hhh(self) -> Vec<HhhEntry> {
        match self {
            QueryAnswer::Hhh(entries) => entries,
            other => panic!("expected a hierarchical answer, got {other:?}"),
        }
    }
}

/// A registered query's definition — the part of a query that exists
/// before the stream starts and is checkpointed verbatim.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub(crate) enum QuerySpec {
    Quantile {
        eps: f64,
    },
    Frequency {
        eps: f64,
    },
    Hhh {
        eps: f64,
        hierarchy: BitPrefixHierarchy,
    },
    SlidingQuantile {
        eps: f64,
        width: usize,
    },
    SlidingFrequency {
        eps: f64,
        width: usize,
    },
}

impl QuerySpec {
    /// The smallest shared window this query can accept.
    pub(crate) fn min_window(&self) -> usize {
        match self {
            // Quantile sampling works at any window size; 1024 keeps the
            // sort phase dominant (see gsm-core). Sliding summaries
            // re-chunk each sorted window into their own block size, so
            // they are window-size agnostic too.
            QuerySpec::Quantile { .. }
            | QuerySpec::SlidingQuantile { .. }
            | QuerySpec::SlidingFrequency { .. } => 1024,
            QuerySpec::Frequency { eps } | QuerySpec::Hhh { eps, .. } => {
                (1.0 / eps).ceil() as usize
            }
        }
    }

    /// The kind of query this spec registers.
    pub(crate) fn kind(&self) -> QueryKind {
        match self {
            QuerySpec::Quantile { .. } => QueryKind::Quantile,
            QuerySpec::Frequency { .. } => QueryKind::Frequency,
            QuerySpec::Hhh { .. } => QueryKind::Hhh,
            QuerySpec::SlidingQuantile { .. } => QueryKind::SlidingQuantile,
            QuerySpec::SlidingFrequency { .. } => QueryKind::SlidingFrequency,
        }
    }

    /// An empty summary for this query over `window`-element sorted runs.
    /// `n_hint` is the expected length of the *whole* stream, which keeps
    /// quantile level budgets valid for the post-merge summary when the
    /// sketch only sees one shard's partition.
    pub(crate) fn sketch(&self, window: usize, n_hint: u64) -> QuerySketch {
        match self {
            QuerySpec::Quantile { eps } => {
                QuerySketch::Quantile(ExpHistogram::new(*eps, window, n_hint.max(window as u64)))
            }
            QuerySpec::Frequency { eps } => {
                QuerySketch::Frequency(LossyCounting::with_window(*eps, window))
            }
            QuerySpec::Hhh { eps, hierarchy } => {
                QuerySketch::Hhh(HhhSummary::with_window(*eps, window, hierarchy.clone()))
            }
            QuerySpec::SlidingQuantile { eps, width } => {
                QuerySketch::SlidingQuantile(SlidingQuantile::new(*eps, *width))
            }
            QuerySpec::SlidingFrequency { eps, width } => {
                QuerySketch::SlidingFrequency(SlidingFrequency::new(*eps, *width))
            }
        }
    }
}

/// A registered query's running summary.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub(crate) enum QuerySketch {
    Quantile(ExpHistogram),
    Frequency(LossyCounting),
    Hhh(HhhSummary),
    SlidingQuantile(SlidingQuantile),
    SlidingFrequency(SlidingFrequency),
}

impl QuerySketch {
    /// The kind of query this sketch answers.
    pub(crate) fn kind(&self) -> QueryKind {
        match self {
            QuerySketch::Quantile(_) => QueryKind::Quantile,
            QuerySketch::Frequency(_) => QueryKind::Frequency,
            QuerySketch::Hhh(_) => QueryKind::Hhh,
            QuerySketch::SlidingQuantile(_) => QueryKind::SlidingQuantile,
            QuerySketch::SlidingFrequency(_) => QueryKind::SlidingFrequency,
        }
    }

    /// Answers `req` from this sketch — the single (request × sketch)
    /// dispatch behind both the engine's and the snapshot's `request`.
    /// Both quantile kinds rank in the merge of their live buckets or
    /// blocks, as `ExpHistogram::query` and `SlidingQuantile::query` do,
    /// but build that merge in `merged` only if the cell is empty: a
    /// published snapshot passes the cell it keeps for this sketch, so the
    /// merge runs once per epoch; the live engine, whose sketches change
    /// under it, passes a fresh one. A request of another kind than the
    /// sketch's is [`SnapshotError::WrongKind`]; out-of-range parameters
    /// panic in the summary.
    pub(crate) fn answer(
        &self,
        req: QueryRequest,
        merged: &OnceLock<WindowSummary>,
    ) -> Result<QueryAnswer, SnapshotError> {
        Ok(match (req, self) {
            (QueryRequest::Quantile { phi }, QuerySketch::Quantile(q)) => {
                QueryAnswer::Quantile(merged.get_or_init(|| q.snapshot()).query(phi))
            }
            (QueryRequest::HeavyHitters { support }, QuerySketch::Frequency(f)) => {
                QueryAnswer::HeavyHitters(f.heavy_hitters(support))
            }
            (QueryRequest::Hhh { support }, QuerySketch::Hhh(h)) => {
                QueryAnswer::Hhh(h.query(support))
            }
            (QueryRequest::SlidingQuantile { phi }, QuerySketch::SlidingQuantile(s)) => {
                QueryAnswer::Quantile(merged.get_or_init(|| s.snapshot()).query(phi))
            }
            (QueryRequest::SlidingFrequency { support }, QuerySketch::SlidingFrequency(f)) => {
                QueryAnswer::HeavyHitters(f.heavy_hitters(support))
            }
            (req, sketch) => {
                return Err(SnapshotError::WrongKind {
                    asked: req.kind(),
                    actual: sketch.kind(),
                })
            }
        })
    }

    /// Folds another shard's sketch for the *same* query into this one.
    ///
    /// # Panics
    ///
    /// Panics if the sketches answer different query kinds — shard fans are
    /// built from one spec list, so a mismatch is a construction bug.
    pub(crate) fn merge_from(&mut self, other: &Self, ops: &mut OpCounter) {
        match (self, other) {
            (QuerySketch::Quantile(a), QuerySketch::Quantile(b)) => a.merge_from(b, ops),
            (QuerySketch::Frequency(a), QuerySketch::Frequency(b)) => a.merge_from(b, ops),
            (QuerySketch::Hhh(a), QuerySketch::Hhh(b)) => a.merge_from(b, ops),
            (QuerySketch::SlidingQuantile(a), QuerySketch::SlidingQuantile(b)) => {
                a.merge_from(b, ops)
            }
            (QuerySketch::SlidingFrequency(a), QuerySketch::SlidingFrequency(b)) => {
                a.merge_from(b, ops)
            }
            _ => panic!("cannot merge sketches of different query kinds"),
        }
    }
}

impl SummarySink for QuerySketch {
    fn push_sorted_window(&mut self, sorted: &[f32]) {
        match self {
            QuerySketch::Quantile(q) => q.push_sorted_window(sorted),
            QuerySketch::Frequency(f) => f.push_sorted_window(sorted),
            QuerySketch::Hhh(h) => h.push_sorted_window(sorted),
            // Sliding summaries consume fixed-size blocks, which are
            // smaller than the shared window; chunks of a sorted run are
            // themselves sorted, so re-chunking preserves the contract.
            QuerySketch::SlidingQuantile(s) => {
                for block in sorted.chunks(s.block_size()) {
                    s.push_sorted_block(block);
                }
            }
            QuerySketch::SlidingFrequency(s) => {
                for block in sorted.chunks(s.block_size()) {
                    s.push_sorted_block(block);
                }
            }
        }
    }

    fn ops(&self) -> SinkOps {
        match self {
            QuerySketch::Quantile(q) => SummarySink::ops(q),
            QuerySketch::Frequency(f) => SummarySink::ops(f),
            QuerySketch::Hhh(h) => SummarySink::ops(h),
            QuerySketch::SlidingQuantile(s) => SummarySink::ops(s),
            QuerySketch::SlidingFrequency(s) => SummarySink::ops(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_a_sketch_of_its_own_kind_that_answers_only_that_kind() {
        let specs = [
            QuerySpec::Quantile { eps: 0.05 },
            QuerySpec::Frequency { eps: 0.01 },
            QuerySpec::Hhh {
                eps: 0.01,
                hierarchy: BitPrefixHierarchy::new(vec![4]),
            },
            QuerySpec::SlidingQuantile {
                eps: 0.05,
                width: 2048,
            },
            QuerySpec::SlidingFrequency {
                eps: 0.05,
                width: 2048,
            },
        ];
        let requests = [
            QueryRequest::Quantile { phi: 0.5 },
            QueryRequest::HeavyHitters { support: 0.2 },
            QueryRequest::Hhh { support: 0.2 },
            QueryRequest::SlidingQuantile { phi: 0.5 },
            QueryRequest::SlidingFrequency { support: 0.2 },
        ];
        let window: Vec<f32> = (0..1024).map(|i| (i / 256) as f32).collect();
        for spec in &specs {
            let mut sketch = spec.sketch(1024, 4096);
            assert_eq!(sketch.kind(), spec.kind());
            sketch.push_sorted_window(&window);
            for req in requests {
                let wrong = SnapshotError::WrongKind {
                    asked: req.kind(),
                    actual: sketch.kind(),
                };
                match sketch.answer(req, &OnceLock::new()) {
                    Ok(_) => assert_eq!(req.kind(), sketch.kind()),
                    Err(e) => assert!(req.kind() != sketch.kind() && e == wrong, "{e}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "expected a quantile answer")]
    fn projection_of_the_wrong_variant_panics() {
        let _ = QueryAnswer::HeavyHitters(Vec::new()).into_quantile();
    }
}
