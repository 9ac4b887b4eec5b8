//! Seeded inputs: the stream buffer each workload cycles through, the
//! sorted copy that serves as its exact oracle, and the request mix the
//! query clients send. Everything here is a function of `--seed`; the
//! program under test only ever sees the generated values.

use std::time::Instant;

use gsm_dsms::QueryRequest;
use gsm_stream::ZipfGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct values in the dictionary stream: few enough that a window's
/// histogram stays small, random enough that every radix digit varies.
const DICT_SIZE: usize = 4096;
/// Ids in the Zipf stream (the generator's maximum domain).
const ZIPF_DOMAIN: usize = 1 << 20;
const ZIPF_ALPHA: f64 = 1.1;

/// The two stream shapes the workloads use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stream {
    /// Uniform draws from [`DICT_SIZE`] random floats in (−1e9, 1e9).
    Dict,
    /// Zipf(1.1) ranks over 2^20 ids, emitted as exact integer floats
    /// (rank 0 is the most frequent), so hierarchical queries accept them.
    Zipf,
}

/// One generated buffer and its oracle.
pub struct Input {
    /// Arrival order; a workload ingests this `passes` times.
    pub values: Vec<f32>,
    /// Ascending copy: exact ranks and counts come from here.
    pub sorted: Vec<f32>,
    pub gen_s: f64,
    pub oracle_sort_s: f64,
}

impl Input {
    pub fn generate(stream: Stream, seed: u64, n: usize) -> Input {
        let started = Instant::now();
        let values = match stream {
            Stream::Dict => dict_stream(seed, n),
            Stream::Zipf => {
                let mut zipf = ZipfGen::new(seed, ZIPF_DOMAIN, ZIPF_ALPHA);
                (0..n).map(|_| zipf.next_rank() as f32).collect()
            }
        };
        let gen_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f32::total_cmp);
        let oracle_sort_s = started.elapsed().as_secs_f64();
        Input {
            values,
            sorted,
            gen_s,
            oracle_sort_s,
        }
    }

    /// Elements of one pass strictly below `v`.
    pub fn below(&self, v: f32) -> u64 {
        self.sorted.partition_point(|x| x.total_cmp(&v).is_lt()) as u64
    }

    /// Elements of one pass at or below `v`.
    pub fn up_to(&self, v: f32) -> u64 {
        self.sorted.partition_point(|x| x.total_cmp(&v).is_le()) as u64
    }

    /// Occurrences of `v` in one pass.
    pub fn count(&self, v: f32) -> u64 {
        self.up_to(v) - self.below(v)
    }

    /// Every value occurring at least `min_count` times in one pass, with
    /// its exact count, ascending by value.
    pub fn heavy(&self, min_count: u64) -> Vec<(f32, u64)> {
        run_lengths(&self.sorted)
            .filter(|&(_, c)| c >= min_count)
            .collect()
    }
}

/// `(value, run length)` over an ascending slice.
pub fn run_lengths(sorted: &[f32]) -> impl Iterator<Item = (f32, u64)> + '_ {
    sorted
        .chunk_by(|a, b| a.to_bits() == b.to_bits())
        .map(|run| (run[0], run.len() as u64))
}

fn dict_stream(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random floats near 1e9 have only ~2^24 distinct values, so 4096
    // draws collide about every other seed: draw until all are distinct.
    let mut dict: Vec<f32> = Vec::with_capacity(DICT_SIZE);
    while dict.len() < DICT_SIZE {
        dict.push(rng.random_range(-1e9f32..1e9f32));
        if dict.len() == DICT_SIZE {
            dict.sort_unstable_by(f32::total_cmp);
            dict.dedup();
        }
    }
    (0..n)
        .map(|_| dict[rng.random_range(0..DICT_SIZE)])
        .collect()
}

/// The five request kinds, named by their wire verbs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Quantile,
    Hh,
    Hhh,
    Squant,
    Shh,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Quantile, Kind::Hh, Kind::Hhh, Kind::Squant, Kind::Shh];

    /// The verb of the TCP line protocol, also the metric-name infix.
    pub fn verb(self) -> &'static str {
        match self {
            Kind::Quantile => "quantile",
            Kind::Hh => "hh",
            Kind::Hhh => "hhh",
            Kind::Squant => "squant",
            Kind::Shh => "shh",
        }
    }

    /// Requests of this kind in a block of 50: 40 / 30 / 14 / 14 / 2 %.
    fn per_block(self) -> usize {
        match self {
            Kind::Quantile => 20,
            Kind::Hh => 15,
            Kind::Hhh | Kind::Squant => 7,
            Kind::Shh => 1,
        }
    }
}

/// One request of the mix.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MixRequest {
    pub kind: Kind,
    /// φ for the quantile kinds, the support otherwise.
    pub param: f64,
}

impl MixRequest {
    pub fn typed(self) -> QueryRequest {
        match self.kind {
            Kind::Quantile => QueryRequest::Quantile { phi: self.param },
            Kind::Hh => QueryRequest::HeavyHitters {
                support: self.param,
            },
            Kind::Hhh => QueryRequest::Hhh {
                support: self.param,
            },
            Kind::Squant => QueryRequest::SlidingQuantile { phi: self.param },
            Kind::Shh => QueryRequest::SlidingFrequency {
                support: self.param,
            },
        }
    }
}

/// Support for sliding heavy hitters: above every workload's sliding ε.
pub const SHH_SUPPORT: f64 = 0.05;

/// The one request of `kind` the probes and end-of-stream comparisons
/// send: φ = 0.9 or the kind's support.
pub fn probe_request(kind: Kind, hh_support: f64) -> MixRequest {
    MixRequest {
        kind,
        param: match kind {
            Kind::Quantile | Kind::Squant => 0.9,
            Kind::Hh | Kind::Hhh => hh_support,
            Kind::Shh => SHH_SUPPORT,
        },
    }
}

/// `count` requests over the given kinds. The mix is exact, not sampled:
/// every block of (up to) 50 holds each kind in its fixed proportion and
/// only the order within the block and the φ of each quantile request are
/// drawn from the seed — so two seeds send the same work in another
/// order, and a rare expensive kind cannot be 4 requests under one seed
/// and 6 under the next.
pub fn request_mix(seed: u64, kinds: &[Kind], hh_support: f64, count: usize) -> Vec<MixRequest> {
    assert!(!kinds.is_empty(), "a mix needs at least one kind");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6D69_7865_645F_7265);
    let block: Vec<Kind> = kinds
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, k.per_block()))
        .collect();
    let mut out = Vec::with_capacity(count + block.len());
    while out.len() < count {
        let mut order = block.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        out.extend(order.into_iter().map(|kind| match kind {
            Kind::Quantile | Kind::Squant => MixRequest {
                kind,
                param: [0.5, 0.9, 0.99][rng.random_range(0..3usize)],
            },
            _ => probe_request(kind, hh_support),
        }));
    }
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for stream in [Stream::Dict, Stream::Zipf] {
            let a = Input::generate(stream, 11, 1 << 14);
            let b = Input::generate(stream, 11, 1 << 14);
            let c = Input::generate(stream, 12, 1 << 14);
            assert_eq!(a.values, b.values);
            assert_ne!(a.values, c.values);
            assert!(a.sorted.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn dictionary_has_exactly_4096_distinct_finite_values() {
        let input = Input::generate(Stream::Dict, 3, 1 << 18);
        assert_eq!(run_lengths(&input.sorted).count(), DICT_SIZE);
        assert!(input.values.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn oracle_counts_and_ranks_are_exact() {
        let input = Input::generate(Stream::Zipf, 5, 1 << 16);
        let zeros = input.values.iter().filter(|&&v| v == 0.0).count() as u64;
        assert_eq!(input.count(0.0), zeros);
        assert_eq!(input.below(0.0), 0);
        assert_eq!(input.up_to(0.0), zeros);
        assert_eq!(input.up_to(f32::MAX), 1 << 16);
        let heavy = input.heavy(zeros);
        assert_eq!(heavy, vec![(0.0, zeros)], "rank 0 is the mode");
        let total: u64 = run_lengths(&input.sorted).map(|(_, c)| c).sum();
        assert_eq!(total, 1 << 16);
    }

    #[test]
    fn mix_is_reproducible_and_exactly_proportioned() {
        let a = request_mix(11, &Kind::ALL, 0.01, 500);
        let b = request_mix(11, &Kind::ALL, 0.01, 500);
        let c = request_mix(12, &Kind::ALL, 0.01, 500);
        assert_eq!(a, b, "same seed, same requests");
        assert_ne!(a, c, "another seed, another order");
        for mix in [&a, &c] {
            for block in mix.chunks(50) {
                for kind in Kind::ALL {
                    let n = block.iter().filter(|r| r.kind == kind).count();
                    assert_eq!(n, kind.per_block(), "{kind:?} per block of 50");
                }
            }
        }
        assert!(a
            .iter()
            .all(|r| r.kind != Kind::Shh || r.param == SHH_SUPPORT));
    }

    #[test]
    fn mix_restricted_to_registered_kinds() {
        let mix = request_mix(4, &[Kind::Hh], 0.01, 40);
        assert_eq!(mix.len(), 40);
        assert!(mix.iter().all(|r| r.kind == Kind::Hh && r.param == 0.01));
        let mix = request_mix(4, &[Kind::Quantile, Kind::Hh], 0.01, 70);
        assert_eq!(mix.iter().filter(|r| r.kind == Kind::Quantile).count(), 40);
    }
}
