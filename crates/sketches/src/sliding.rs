//! Fixed-width sliding-window summaries (paper §5.3).
//!
//! Queries over the *last `W` elements* of the stream. Both structures keep
//! a deque of per-block summaries; blocks are small enough (`Θ(εW)`) that
//! the one partially-expired block at the tail of the window costs at most
//! half the error budget, and the per-block summarization costs the other
//! half:
//!
//! * [`SlidingQuantile`] — blocks of `⌈εW/2⌉` elements, each summarized by a
//!   GK04 [`WindowSummary`] at ε/2; queries merge the live blocks. Rank
//!   error ≤ `εW`.
//! * [`SlidingFrequency`] — blocks of `⌈εW/4⌉` elements, each reduced to a
//!   pruned histogram (entries with count > `⌊εw/2⌋` survive); estimates
//!   sum the live blocks. Frequency error ≤ `εW`.
//!
//! As everywhere in this crate, blocks arrive *sorted* — the sorting engine
//! (the GPU co-processor in the paper) lives upstream.

use std::collections::VecDeque;

use crate::gk_window::WindowSummary;
use crate::histogram::histogram;
use crate::summary::OpCounter;

/// ε-approximate quantiles over a sliding window of the last `width`
/// elements.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct SlidingQuantile {
    eps: f64,
    width: usize,
    block: usize,
    deque: VecDeque<WindowSummary>,
    covered: u64,
    ops: OpCounter,
}

impl SlidingQuantile {
    /// Creates a sliding summary with rank error ≤ `eps · width`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1` and `width ≥ 2/eps` (smaller windows can
    /// simply be stored exactly).
    pub fn new(eps: f64, width: usize) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1), got {eps}");
        assert!(
            width as f64 >= 2.0 / eps,
            "width {width} too small for eps {eps}; store the window exactly instead"
        );
        let block = ((eps * width as f64) / 2.0).ceil() as usize;
        SlidingQuantile {
            eps,
            width,
            block: block.max(1),
            deque: VecDeque::new(),
            covered: 0,
            ops: OpCounter::default(),
        }
    }

    /// Error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Window width in elements.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The block size callers must deliver (the final block of a stream may
    /// be shorter).
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Elements currently covered by live blocks (∈ `[width, width+block)`
    /// once the stream is long enough).
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Operation counters for the merge work.
    pub fn ops(&self) -> OpCounter {
        self.ops
    }

    /// Stored entries across all blocks (memory footprint).
    pub fn entry_count(&self) -> usize {
        self.deque.iter().map(|s| s.entries().len()).sum()
    }

    /// Pushes one sorted block of up to [`Self::block_size`] elements.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or oversized.
    pub fn push_sorted_block(&mut self, sorted: &[f32]) {
        assert!(!sorted.is_empty(), "block must be non-empty");
        assert!(
            sorted.len() <= self.block,
            "block of {} exceeds {}",
            sorted.len(),
            self.block
        );
        self.deque
            .push_back(WindowSummary::from_sorted(sorted, self.eps / 2.0));
        self.covered += sorted.len() as u64;
        // Expire whole blocks no longer intersecting the window.
        while let Some(front) = self.deque.front() {
            if self.covered - front.count() >= self.width as u64 {
                self.covered -= front.count();
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// Merges another sliding summary into this one by treating `other`'s
    /// blocks as the *continuation* of this stream: they are appended in
    /// order and expiry re-runs, so `merge(a, b)` is byte-identical to
    /// pushing `b`'s blocks into `a`. A sharded sliding window is therefore
    /// a window over the shard-concatenated tail, not an interleaving —
    /// callers that need true arrival order should route sliding sketches
    /// to a single shard.
    ///
    /// # Panics
    ///
    /// Panics if the two summaries have different `eps`, width, or block
    /// size.
    pub fn merge_from(&mut self, other: &Self, ops: &mut OpCounter) {
        assert!(
            self.eps == other.eps && self.width == other.width && self.block == other.block,
            "cannot merge sliding summaries with different configurations"
        );
        for s in &other.deque {
            self.deque.push_back(s.clone());
            self.covered += s.count();
            ops.moves += 1;
            while let Some(front) = self.deque.front() {
                ops.comparisons += 1;
                if self.covered - front.count() >= self.width as u64 {
                    self.covered -= front.count();
                    self.deque.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Answers a φ-quantile query over (approximately) the last `width`
    /// elements.
    ///
    /// Merges the live blocks as a balanced tree: a sequential fold would
    /// re-copy the accumulated summary once per block (quadratic in the
    /// block count); the tree costs `O(total entries · log blocks)`.
    ///
    /// # Panics
    ///
    /// Panics if no block has been pushed.
    pub fn query(&mut self, phi: f64) -> f32 {
        let mut ops = self.ops;
        let answer = self.merged(&mut ops).query(phi);
        self.ops = ops;
        answer
    }

    /// Merges the live blocks into one summary (no pruning — no extra
    /// error) **without mutating this one**: the merge work is charged to
    /// a throwaway counter instead of [`Self::ops`]. This is the *frozen*
    /// form behind immutable published snapshots, which merge once and
    /// answer many reads from the result: `snapshot().query(phi)` is
    /// byte-identical to [`Self::query`] on the same state.
    ///
    /// # Panics
    ///
    /// Panics if no block has been pushed.
    pub fn snapshot(&self) -> WindowSummary {
        self.merged(&mut OpCounter::default())
    }

    /// Balanced-tree merge of the live blocks, charging merge work to
    /// `ops`.
    fn merged(&self, ops: &mut OpCounter) -> WindowSummary {
        assert!(
            !self.deque.is_empty(),
            "cannot query an empty sliding window"
        );
        let mut layer: Vec<WindowSummary> = self.deque.iter().cloned().collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => WindowSummary::merge(a, b, ops),
                    [a] => a.clone(),
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
        }
        layer.swap_remove(0)
    }
}

/// One frequency block: the block's element count and its pruned histogram.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct FreqBlock {
    total: u64,
    entries: Vec<(f32, u64)>,
}

/// ε-approximate frequencies over a sliding window of the last `width`
/// elements.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct SlidingFrequency {
    eps: f64,
    width: usize,
    block: usize,
    deque: VecDeque<FreqBlock>,
    covered: u64,
}

impl SlidingFrequency {
    /// Creates a sliding frequency summary with error ≤ `eps · width`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1` and `width ≥ 4/eps`.
    pub fn new(eps: f64, width: usize) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1), got {eps}");
        assert!(
            width as f64 >= 4.0 / eps,
            "width {width} too small for eps {eps}; store the window exactly instead"
        );
        let block = ((eps * width as f64) / 4.0).ceil() as usize;
        SlidingFrequency {
            eps,
            width,
            block: block.max(1),
            deque: VecDeque::new(),
            covered: 0,
        }
    }

    /// Error bound.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Window width in elements.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The block size callers must deliver.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Elements currently covered by live blocks.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Stored histogram entries across blocks (memory footprint).
    pub fn entry_count(&self) -> usize {
        self.deque.iter().map(|b| b.entries.len()).sum()
    }

    /// Pushes one sorted block of up to [`Self::block_size`] elements.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or oversized.
    pub fn push_sorted_block(&mut self, sorted: &[f32]) {
        assert!(!sorted.is_empty(), "block must be non-empty");
        assert!(
            sorted.len() <= self.block,
            "block of {} exceeds {}",
            sorted.len(),
            self.block
        );
        // Histogram, pruned: entries with count ≤ ⌊εw/2⌋ are dropped, so a
        // value loses at most εw/2 counts per block.
        let drop = ((self.eps * self.block as f64) / 2.0).floor() as u64;
        let entries: Vec<(f32, u64)> = histogram(sorted)
            .into_iter()
            .filter(|&(_, c)| c > drop)
            .collect();
        self.deque.push_back(FreqBlock {
            total: sorted.len() as u64,
            entries,
        });
        self.covered += sorted.len() as u64;
        while let Some(front) = self.deque.front() {
            if self.covered - front.total >= self.width as u64 {
                self.covered -= front.total;
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// Merges another sliding frequency summary into this one by appending
    /// `other`'s blocks as the continuation of this stream and re-running
    /// expiry — byte-identical to pushing `other`'s blocks here (see
    /// [`SlidingQuantile::merge_from`] for the ordering caveat).
    ///
    /// # Panics
    ///
    /// Panics if the two summaries have different `eps`, width, or block
    /// size.
    pub fn merge_from(&mut self, other: &Self, ops: &mut OpCounter) {
        assert!(
            self.eps == other.eps && self.width == other.width && self.block == other.block,
            "cannot merge sliding summaries with different configurations"
        );
        for b in &other.deque {
            self.deque.push_back(b.clone());
            self.covered += b.total;
            ops.moves += 1;
            while let Some(front) = self.deque.front() {
                ops.comparisons += 1;
                if self.covered - front.total >= self.width as u64 {
                    self.covered -= front.total;
                    self.deque.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// The estimated frequency of `value` in (approximately) the last
    /// `width` elements. Error ≤ `eps · width` in either direction.
    pub fn estimate(&self, value: f32) -> u64 {
        self.deque
            .iter()
            .map(|b| {
                b.entries
                    .binary_search_by(|e| e.0.total_cmp(&value))
                    .map(|i| b.entries[i].1)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// All values with estimated frequency ≥ `(s − eps) · width`, ascending.
    /// Contains every value with true window frequency ≥ `s · width`.
    ///
    /// # Panics
    ///
    /// Panics unless `eps < s ≤ 1`.
    pub fn heavy_hitters(&self, s: f64) -> Vec<(f32, u64)> {
        assert!(
            s > self.eps && s <= 1.0,
            "support must satisfy eps < s <= 1"
        );
        // One gather, one sort, one run-sum: a run of `total_cmp`-equal
        // (bit-equal) values sums to exactly what `estimate` finds block by
        // block.
        let mut entries: Vec<(f32, u64)> = Vec::with_capacity(self.entry_count());
        entries.extend(self.deque.iter().flat_map(|b| &b.entries));
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let threshold = (s - self.eps) * self.width as f64;
        let mut hits: Vec<(f32, u64)> = Vec::new();
        let mut prev: Option<f32> = None;
        let mut rest = entries.as_slice();
        while let Some(&(v, _)) = rest.first() {
            let run = rest
                .iter()
                .take_while(|e| e.0.to_bits() == v.to_bits())
                .count();
            let c: u64 = rest[..run].iter().map(|e| e.1).sum();
            // Distinct values are distinct under `==`: where blocks hold
            // both zeros, `-0.0` (sorted first) answers with its own count
            // and `0.0` is not reported.
            if prev != Some(v) && c as f64 >= threshold {
                hits.push((v, c));
            }
            prev = Some(v);
            rest = &rest[run..];
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactStats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Pushes `data` in sorted blocks; returns the sliding structures.
    fn feed_quantile(sq: &mut SlidingQuantile, data: &[f32]) {
        for chunk in data.chunks(sq.block_size()) {
            let mut b = chunk.to_vec();
            b.sort_by(f32::total_cmp);
            sq.push_sorted_block(&b);
        }
    }

    #[test]
    fn quantiles_track_the_recent_window() {
        let eps = 0.05;
        let width = 2000;
        let mut sq = SlidingQuantile::new(eps, width);
        // Phase 1: values near 0; phase 2: values near 100. After phase 2
        // fills the window, the median must be near 100, not 50.
        let mut rng = StdRng::seed_from_u64(1);
        let phase1: Vec<f32> = (0..5000).map(|_| rng.random_range(0.0..1.0)).collect();
        let phase2: Vec<f32> = (0..5000).map(|_| rng.random_range(100.0..101.0)).collect();
        feed_quantile(&mut sq, &phase1);
        assert!(sq.query(0.5) < 1.0);
        feed_quantile(&mut sq, &phase2);
        assert!(sq.query(0.5) > 100.0, "window must have fully turned over");
    }

    #[test]
    fn snapshot_answers_as_query_does_and_leaves_state_untouched() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<f32> = (0..8_000).map(|_| rng.random_range(0.0..1.0)).collect();
        let mut sq = SlidingQuantile::new(0.05, 3000);
        feed_quantile(&mut sq, &data);
        let before = serde_json::to_string(&sq).unwrap();
        let frozen = sq.snapshot();
        for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(
                frozen.query(phi).to_bits(),
                sq.clone().query(phi).to_bits(),
                "frozen answer must be byte-identical at phi={phi}"
            );
        }
        assert_eq!(
            serde_json::to_string(&sq).unwrap(),
            before,
            "snapshot must not mutate the summary"
        );
    }

    #[test]
    fn quantile_error_within_eps_of_window() {
        let eps = 0.02;
        let width = 5000;
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<f32> = (0..20_000).map(|_| rng.random_range(0.0..1.0)).collect();
        let mut sq = SlidingQuantile::new(eps, width);
        feed_quantile(&mut sq, &data);
        // Oracle over the elements the deque actually covers (within one
        // block of the ideal window).
        let covered = sq.covered() as usize;
        assert!(covered >= width && covered < width + sq.block_size());
        let oracle = ExactStats::new(&data[data.len() - width..]);
        for phi in [0.1, 0.5, 0.9] {
            let err = oracle.quantile_rank_error(phi, sq.query(phi));
            assert!(err <= eps + 1e-9, "phi={phi} err={err}");
        }
    }

    #[test]
    fn quantile_memory_depends_on_eps_not_width() {
        // The deque holds ~(2/ε) blocks of ~(2/ε) entries: Θ(1/ε²)
        // regardless of the window width.
        let eps = 0.02;
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = Vec::new();
        for width in [50_000usize, 200_000] {
            let data: Vec<f32> = (0..2 * width).map(|_| rng.random_range(0.0..1.0)).collect();
            let mut sq = SlidingQuantile::new(eps, width);
            feed_quantile(&mut sq, &data);
            counts.push(sq.entry_count());
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "counts {counts:?} must not scale with width"
        );
        assert!(
            counts[1] < (8.0 / (eps * eps)) as usize,
            "counts {counts:?} exceed Θ(1/ε²)"
        );
    }

    #[test]
    fn query_before_window_fills() {
        let mut sq = SlidingQuantile::new(0.1, 1000);
        let block: Vec<f32> = (0..sq.block_size()).map(|i| i as f32).collect();
        sq.push_sorted_block(&block);
        // Queries work over whatever has arrived.
        let q = sq.query(0.5);
        assert!((0.0..block.len() as f32).contains(&q));
    }

    fn feed_frequency(sf: &mut SlidingFrequency, data: &[f32]) {
        for chunk in data.chunks(sf.block_size()) {
            let mut b = chunk.to_vec();
            b.sort_by(f32::total_cmp);
            sf.push_sorted_block(&b);
        }
    }

    #[test]
    fn frequency_error_within_eps_of_window() {
        let eps = 0.02;
        let width = 10_000;
        let mut rng = StdRng::seed_from_u64(4);
        // Skewed stream over a small domain so frequencies are meaningful.
        let data: Vec<f32> = (0..40_000)
            .map(|_| {
                if rng.random_range(0..4) == 0 {
                    rng.random_range(0..5) as f32
                } else {
                    rng.random_range(0..200) as f32
                }
            })
            .collect();
        let mut sf = SlidingFrequency::new(eps, width);
        feed_frequency(&mut sf, &data);
        let oracle = ExactStats::new(&data[data.len() - width..]);
        let bound = (eps * width as f64).ceil() as i64 + sf.block_size() as i64;
        for v in 0..10 {
            let v = v as f32;
            let est = sf.estimate(v) as i64;
            let truth = oracle.frequency(v) as i64;
            assert!(
                (est - truth).abs() <= bound,
                "value {v}: est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn frequency_heavy_hitters_no_false_negatives() {
        let eps = 0.01;
        let width = 20_000;
        let s = 0.05;
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..60_000)
            .map(|_| {
                if rng.random_range(0..10) < 4 {
                    rng.random_range(0..5) as f32 // hot values: ~8% each
                } else {
                    rng.random_range(100..50_000) as f32
                }
            })
            .collect();
        let mut sf = SlidingFrequency::new(eps, width);
        feed_frequency(&mut sf, &data);
        let oracle = ExactStats::new(&data[data.len() - width..]);
        let truth = oracle.heavy_hitters((s * width as f64) as u64);
        let answer: Vec<f32> = sf.heavy_hitters(s).iter().map(|&(v, _)| v).collect();
        for (v, _) in truth {
            assert!(answer.contains(&v), "missing heavy hitter {v}");
        }
    }

    /// What `heavy_hitters` computed before it became one sort and one
    /// run-sum: the distinct stored values (`dedup`, so under `==`), each
    /// looked up block by block through [`SlidingFrequency::estimate`].
    fn heavy_hitters_by_estimate(sf: &SlidingFrequency, s: f64) -> Vec<(f32, u64)> {
        let mut values: Vec<f32> = sf
            .deque
            .iter()
            .flat_map(|b| b.entries.iter().map(|&(v, _)| v))
            .collect();
        values.sort_by(f32::total_cmp);
        values.dedup();
        let threshold = (s - sf.eps) * sf.width as f64;
        values
            .into_iter()
            .map(|v| (v, sf.estimate(v)))
            .filter(|&(_, c)| c as f64 >= threshold)
            .collect()
    }

    #[test]
    fn heavy_hitters_equal_the_per_value_estimates() {
        let bits = |hits: Vec<(f32, u64)>| -> Vec<(u32, u64)> {
            hits.into_iter().map(|(v, c)| (v.to_bits(), c)).collect()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let n = 30_000;
        let zipf: Vec<f32> = (0..n)
            .map(|_| (1.0 / rng.random_range(0.0005f32..1.0)).floor())
            .collect();
        let duplicates = vec![7.0f32; n];
        // Both zeros, by stretches and mixed: a sorted block keeps a run of
        // zeros under whichever sign came first, so blocks disagree.
        let zeros: Vec<f32> = (0..n)
            .map(|i| match (i / 500 % 3, rng.random_range(0..4)) {
                (0, _) | (2, 0) => 0.0,
                (1, _) | (2, 1) => -0.0,
                _ => rng.random_range(-2..3) as f32,
            })
            .collect();
        for (name, data) in [
            ("zipf", &zipf),
            ("duplicates", &duplicates),
            ("zeros", &zeros),
        ] {
            for (eps, width) in [(0.01, 20_000), (0.05, 2_000), (0.1, 400), (0.002, 25_000)] {
                let mut sf = SlidingFrequency::new(eps, width);
                feed_frequency(&mut sf, data);
                for s in [eps * 1.01, 2.0 * eps, 0.3, 1.0] {
                    let hits = sf.heavy_hitters(s);
                    assert_eq!(
                        bits(hits.clone()),
                        bits(heavy_hitters_by_estimate(&sf, s)),
                        "{name} eps={eps} width={width} s={s}"
                    );
                    if name == "duplicates" && s < 1.0 {
                        assert_eq!(hits.len(), 1, "{name} eps={eps} width={width} s={s}");
                    }
                }
            }
        }
        // The zeros stream must have exercised what it is there for.
        let mut sf = SlidingFrequency::new(0.05, 2_000);
        feed_frequency(&mut sf, &zeros);
        let stored = |z: f32| {
            sf.deque
                .iter()
                .flat_map(|b| &b.entries)
                .any(|e| e.0.to_bits() == z.to_bits())
        };
        assert!(stored(0.0) && stored(-0.0), "both zeros are stored");
    }

    #[test]
    fn frequency_window_turnover() {
        let eps = 0.05;
        let width = 2000;
        let mut sf = SlidingFrequency::new(eps, width);
        let hot_then_gone: Vec<f32> = vec![7.0; 3000];
        let cold: Vec<f32> = (0..3000).map(|i| (100 + i % 500) as f32).collect();
        feed_frequency(&mut sf, &hot_then_gone);
        assert!(sf.estimate(7.0) as usize >= width - sf.block_size());
        feed_frequency(&mut sf, &cold);
        assert_eq!(sf.estimate(7.0), 0, "expired value must vanish");
    }

    #[test]
    fn frequency_memory_depends_on_eps_not_width() {
        // ~(4/ε) blocks each pruned to ≤ 2/ε surviving entries: Θ(1/ε²)
        // regardless of width (once blocks are large enough to prune).
        let eps = 0.02;
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = Vec::new();
        for width in [100_000usize, 400_000] {
            // Skewed stream: hot values survive pruning, the uniform tail
            // is dropped block-by-block.
            let data: Vec<f32> = (0..2 * width)
                .map(|_| {
                    if rng.random_range(0..10) < 3 {
                        rng.random_range(0..20) as f32
                    } else {
                        rng.random_range(100..100_000) as f32
                    }
                })
                .collect();
            let mut sf = SlidingFrequency::new(eps, width);
            feed_frequency(&mut sf, &data);
            counts.push(sf.entry_count());
        }
        assert!(counts[0] > 0, "hot values must survive pruning");
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "counts {counts:?} must not scale with width"
        );
        assert!(
            counts[1] < (16.0 / (eps * eps)) as usize,
            "counts {counts:?} exceed Θ(1/ε²)"
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_window_rejected() {
        let _ = SlidingQuantile::new(0.001, 100);
    }

    #[test]
    fn quantile_merge_equals_sequential_push() {
        let (eps, width) = (0.05, 2000);
        let mut rng = StdRng::seed_from_u64(7);
        let first: Vec<f32> = (0..3000).map(|_| rng.random_range(0.0..1.0)).collect();
        let second: Vec<f32> = (0..3000).map(|_| rng.random_range(5.0..6.0)).collect();

        let mut sequential = SlidingQuantile::new(eps, width);
        feed_quantile(&mut sequential, &first);
        feed_quantile(&mut sequential, &second);

        let mut merged = SlidingQuantile::new(eps, width);
        feed_quantile(&mut merged, &first);
        let mut tail = SlidingQuantile::new(eps, width);
        feed_quantile(&mut tail, &second);
        let mut ops = OpCounter::default();
        merged.merge_from(&tail, &mut ops);

        assert!(ops.total() > 0);
        assert_eq!(merged.covered(), sequential.covered());
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&sequential).unwrap(),
            "merge must be byte-identical to sequential pushes"
        );
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(merged.query(phi), sequential.query(phi));
        }
    }

    #[test]
    fn frequency_merge_equals_sequential_push() {
        let (eps, width) = (0.05, 2000);
        let mut rng = StdRng::seed_from_u64(8);
        let first: Vec<f32> = (0..3000).map(|_| rng.random_range(0..20) as f32).collect();
        let second: Vec<f32> = (0..3000).map(|_| rng.random_range(0..20) as f32).collect();

        let mut sequential = SlidingFrequency::new(eps, width);
        feed_frequency(&mut sequential, &first);
        feed_frequency(&mut sequential, &second);

        let mut merged = SlidingFrequency::new(eps, width);
        feed_frequency(&mut merged, &first);
        let mut tail = SlidingFrequency::new(eps, width);
        feed_frequency(&mut tail, &second);
        merged.merge_from(&tail, &mut OpCounter::default());

        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&sequential).unwrap(),
            "merge must be byte-identical to sequential pushes"
        );
        for v in 0..20 {
            assert_eq!(merged.estimate(v as f32), sequential.estimate(v as f32));
        }
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn sliding_merge_rejects_mismatched_widths() {
        let mut a = SlidingQuantile::new(0.05, 2000);
        let b = SlidingQuantile::new(0.05, 4000);
        a.merge_from(&b, &mut OpCounter::default());
    }
}
