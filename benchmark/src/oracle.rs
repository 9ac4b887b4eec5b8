//! Correctness checks against the exact oracle (the sorted input buffer).
//! Every check is one operation; a violated guarantee is a failed one.

use gsm_dsms::{QueryAnswer, QueryRequest};

use crate::config::{Built, Config, Query, HHH_SHIFTS};
use crate::input::{run_lengths, Input, SHH_SUPPORT};
use crate::report::Ops;

/// Quantile fractions probed on every whole-stream quantile query.
const PHIS: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

/// Worst observed error of each whole-stream family, as a share of what
/// its ε allows (0 when the workload has no such query).
#[derive(Default)]
pub struct ErrorRatios {
    /// max over φ of |rank(answer) − φN| / (εN + 2).
    pub quantile: f64,
    /// max over true heavy hitters of (true − estimate) / (⌈εN⌉ + k − 1).
    pub freq_undercount: f64,
}

/// Checks the final state of an engine that ingested `input` `passes`
/// times, through the same typed `request` call a client uses.
pub fn check_final_state(
    cfg: &Config,
    built: &mut Built,
    input: &Input,
    passes: u64,
    ops: &mut Ops,
) -> ErrorRatios {
    let n = input.values.len() as u64;
    let total = n * passes;
    let mut ratios = ErrorRatios::default();
    ops.check(built.eng.count() == total, || {
        format!("engine counted {} of {total} elements", built.eng.count())
    });
    for (query, id) in built.ids.clone() {
        match query {
            Query::Quantile { eps } => {
                for phi in PHIS {
                    let QueryAnswer::Quantile(v) =
                        built.eng.request(id, QueryRequest::Quantile { phi })
                    else {
                        panic!("quantile query answered another kind");
                    };
                    // A value occupies the rank interval [below + 1, up_to].
                    let (lo, hi) = (
                        (input.below(v) * passes + 1) as f64,
                        (input.up_to(v) * passes) as f64,
                    );
                    let target = phi * total as f64;
                    let err = (lo - target).max(target - hi).max(0.0);
                    let ratio = err / (eps * total as f64 + 2.0);
                    ratios.quantile = ratios.quantile.max(ratio);
                    ops.check(ratio <= 1.0, || {
                        format!("quantile phi={phi}: rank error {err} is {ratio:.3} of eps*N")
                    });
                }
            }
            Query::Frequency { eps } => {
                let s = cfg.hh_support;
                let QueryAnswer::HeavyHitters(hits) = built
                    .eng
                    .request(id, QueryRequest::HeavyHitters { support: s })
                else {
                    panic!("frequency query answered another kind");
                };
                let allowed = (eps * total as f64).ceil() + cfg.shards as f64 - 1.0;
                for &(v, est) in &hits {
                    let exact = input.count(v) * passes;
                    ops.check(est <= exact, || {
                        format!("hh overestimates {v}: {est} > {exact}")
                    });
                }
                let min_count = (s * n as f64).ceil() as u64;
                for (v, c) in input.heavy(min_count) {
                    let exact = c * passes;
                    let est = hits
                        .iter()
                        .find(|h| h.0.to_bits() == v.to_bits())
                        .map(|h| h.1);
                    ops.check(est.is_some(), || {
                        format!("hh misses {v} (count {exact} of {total})")
                    });
                    let ratio = exact.saturating_sub(est.unwrap_or(0)) as f64 / allowed;
                    ratios.freq_undercount = ratios.freq_undercount.max(ratio);
                    ops.check(ratio <= 1.0, || {
                        format!("hh undercounts {v} by {ratio:.3} of the bound")
                    });
                }
            }
            Query::Hhh { .. } => {
                let s = cfg.hh_support;
                let QueryAnswer::Hhh(entries) =
                    built.eng.request(id, QueryRequest::Hhh { support: s })
                else {
                    panic!("hhh query answered another kind");
                };
                for e in &entries {
                    // A prefix at level L covers the ids [p, p + 2^shift).
                    let span = if e.level == 0 {
                        1.0
                    } else {
                        f64::from(1u32 << HHH_SHIFTS[e.level - 1])
                    };
                    let last = (f64::from(e.prefix) + span - 1.0) as f32;
                    let exact = (input.up_to(last) - input.below(e.prefix)) * passes;
                    ops.check(e.raw_count <= exact, || {
                        format!(
                            "hhh overestimates prefix {} at level {}: {} > {exact}",
                            e.prefix, e.level, e.raw_count
                        )
                    });
                }
                // Nothing discounts a leaf: every heavy leaf must be listed.
                for (v, c) in input.heavy((s * n as f64).ceil() as u64) {
                    let listed = entries
                        .iter()
                        .any(|e| e.level == 0 && e.prefix.to_bits() == v.to_bits());
                    ops.check(listed, || format!("hhh misses heavy leaf {v} (count {c})"));
                }
            }
            // With one shard the sliding summaries cover the stream's tail:
            // whole recent windows plus part of the oldest, re-chunked by
            // value, so everything covered lies within the last
            // width + window + block arrivals. Under sharding the window
            // covers a shard-concatenated tail with no simple exact
            // counterpart; the served-vs-direct probe covers that case.
            Query::SlidingQuantile { width, .. } if cfg.shards == 1 => {
                let tail = sorted_tail(input, width + 2 * built.eng.window());
                for phi in [0.5, 0.9, 0.99] {
                    let QueryAnswer::Quantile(v) =
                        built.eng.request(id, QueryRequest::SlidingQuantile { phi })
                    else {
                        panic!("sliding quantile answered another kind");
                    };
                    ops.check(tail[0] <= v && v <= tail[tail.len() - 1], || {
                        format!("sliding quantile phi={phi} = {v} is outside the window's range")
                    });
                }
            }
            Query::SlidingFrequency { width, .. } if cfg.shards == 1 => {
                let tail = sorted_tail(input, width + 2 * built.eng.window());
                let QueryAnswer::HeavyHitters(hits) = built.eng.request(
                    id,
                    QueryRequest::SlidingFrequency {
                        support: SHH_SUPPORT,
                    },
                ) else {
                    panic!("sliding frequency answered another kind");
                };
                for (v, est) in hits {
                    let exact = run_lengths(&tail)
                        .find(|r| r.0.to_bits() == v.to_bits())
                        .map_or(0, |r| r.1);
                    ops.check(est <= exact, || {
                        format!("sliding hh overestimates {v}: {est} > {exact}")
                    });
                }
            }
            Query::SlidingQuantile { .. } | Query::SlidingFrequency { .. } => {}
        }
    }
    ratios
}

/// The last `len` arrivals of the stream (the buffer's tail: streams end
/// on a whole pass), ascending.
fn sorted_tail(input: &Input, len: usize) -> Vec<f32> {
    let values = &input.values;
    let mut tail = values[values.len().saturating_sub(len)..].to_vec();
    tail.sort_unstable_by(f32::total_cmp);
    tail
}
