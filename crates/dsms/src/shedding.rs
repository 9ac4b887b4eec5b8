//! Arrival-rate modeling and load shedding (paper §1).
//!
//! When the offered arrival rate exceeds the engine's service rate, a DSMS
//! must drop elements or fall behind without bound. The shedder here is the
//! classic *uniform decimation* policy: keep a deterministic fraction of
//! arrivals, spread evenly. Uniform sampling is statistically gentle —
//! quantiles of the kept sub-stream are unbiased estimates of the stream's
//! quantiles, and frequencies scale by the keep fraction — and the
//! [`ShedReport`] carries the keep fraction so consumers can rescale.
//!
//! [`run_at_rate`] drives a [`StreamEngine`] from a virtual arrival clock:
//! elements arrive at `offered_rate`, service time is the engine's
//! *simulated* time, and a proportional controller adapts the keep fraction
//! chunk-by-chunk so the backlog stays bounded.

use crate::engine::StreamEngine;

/// A deterministic uniform decimator: admits `keep` of every 1.0 of
/// arrivals, spread evenly (error-diffusion, not bursty).
#[derive(Clone, Debug)]
pub struct LoadShedder {
    keep: f64,
    accumulator: f64,
    admitted: u64,
    dropped: u64,
}

impl LoadShedder {
    /// Creates a shedder keeping fraction `keep` of arrivals.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep ≤ 1`.
    pub fn new(keep: f64) -> Self {
        assert!(
            keep > 0.0 && keep <= 1.0,
            "keep fraction must be in (0, 1], got {keep}"
        );
        LoadShedder {
            keep,
            accumulator: 0.0,
            admitted: 0,
            dropped: 0,
        }
    }

    /// The current keep fraction.
    pub fn keep_fraction(&self) -> f64 {
        self.keep
    }

    /// Adjusts the keep fraction (clamped to `(0, 1]`).
    pub fn set_keep_fraction(&mut self, keep: f64) {
        self.keep = keep.clamp(1e-6, 1.0);
    }

    /// Decides one arrival: `true` = admit.
    #[inline]
    pub fn admit(&mut self) -> bool {
        self.accumulator += self.keep;
        if self.accumulator >= 1.0 {
            self.accumulator -= 1.0;
            self.admitted += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Arrivals admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Arrivals dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The outcome of a rate-driven run.
#[derive(Clone, Copy, Debug)]
pub struct ShedReport {
    /// Elements offered by the source.
    pub offered: u64,
    /// Elements admitted into the engine.
    pub processed: u64,
    /// Elements shed.
    pub shed: u64,
    /// The offered arrival rate (elements / second).
    pub offered_rate: f64,
    /// The engine's measured service rate on admitted elements
    /// (elements / simulated second).
    pub service_rate: f64,
    /// Final backlog: service clock minus arrival clock, in seconds
    /// (positive = the engine finished after the last arrival).
    pub lag_seconds: f64,
    /// The final adapted keep fraction.
    pub keep_fraction: f64,
}

impl ShedReport {
    /// Fraction of arrivals shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Drives `engine` with `values` arriving at `offered_rate` elements per
/// second, shedding adaptively to keep the backlog bounded.
///
/// The controller re-estimates the sustainable keep fraction once per
/// chunk (8 shared windows) from the engine's simulated service time; when
/// the engine is faster than the source, everything is admitted.
pub fn run_at_rate(
    engine: &mut StreamEngine,
    values: impl IntoIterator<Item = f32>,
    offered_rate: f64,
) -> ShedReport {
    assert!(offered_rate > 0.0, "offered rate must be positive");
    engine.seal();
    let obs = engine.recorder().clone();
    let chunk = engine.window() * 8;
    let mut shedder = LoadShedder::new(1.0);
    let mut offered = 0u64;
    let mut arrival_clock = 0.0f64;

    let mut admitted: Vec<f32> = Vec::with_capacity(chunk);
    let mut values = values.into_iter();
    loop {
        let decided_before = shedder.admitted() + shedder.dropped();
        let dropped_before = shedder.dropped();
        // Shed decisions stay per element (the error-diffusion accumulator
        // advances once per arrival); the admitted sub-stream of each
        // chunk of arrivals is ingested as one columnar batch.
        admitted.clear();
        admitted.extend(values.by_ref().take(chunk).filter(|_| shedder.admit()));
        let arrived = shedder.admitted() + shedder.dropped() - decided_before;
        if arrived == 0 {
            break;
        }
        offered += arrived;
        arrival_clock += arrived as f64 / offered_rate;
        engine.push_batch(&admitted);
        let dropped_now = shedder.dropped() - dropped_before;
        if obs.is_enabled() && dropped_now > 0 {
            // One shedding event per chunk that actually dropped arrivals,
            // plus the element count it cost.
            obs.count("dsms_shed_events", 1);
            obs.count("dsms_shed_elements", dropped_now);
            obs.record_event(gsm_obs::EngineEvent::Shed {
                source: "ingest",
                dropped: dropped_now,
            });
        }

        // Controller: estimate the engine's sustained capacity from the
        // *cumulative* service rate (per-chunk times are spiky — GPU
        // batches land on chunk boundaries) and target keep = capacity/R.
        let service_now = engine.total_time().as_secs();
        if service_now > 0.0 && shedder.admitted() > 0 {
            let capacity = shedder.admitted() as f64 / service_now;
            let target = (capacity / offered_rate).min(1.0);
            // Light damping for the first chunks' estimation noise.
            let next = 0.3 * shedder.keep_fraction() + 0.7 * target;
            shedder.set_keep_fraction(next);
        }
    }
    engine.flush();
    if obs.is_enabled() {
        // Keep fraction as parts-per-thousand (gauges are integral).
        obs.gauge_set(
            "dsms_keep_permille",
            (shedder.keep_fraction() * 1000.0).round() as i64,
        );
    }

    let service_time = engine.total_time().as_secs();
    ShedReport {
        offered,
        processed: shedder.admitted(),
        shed: shedder.dropped(),
        offered_rate,
        service_rate: if service_time > 0.0 {
            shedder.admitted() as f64 / service_time
        } else {
            f64::INFINITY
        },
        lag_seconds: service_time - arrival_clock,
        keep_fraction: shedder.keep_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{engine, quantile};
    use crate::EngineBuilder;
    use gsm_core::Engine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0.0..1000.0)).collect()
    }

    #[test]
    fn decimator_keeps_the_requested_fraction() {
        let mut s = LoadShedder::new(0.3);
        for _ in 0..10_000 {
            let _ = s.admit();
        }
        let kept = s.admitted() as f64 / 10_000.0;
        assert!((kept - 0.3).abs() < 0.01, "kept {kept}");
        // Deterministic decimation is evenly spread: no run of 4+
        // consecutive admits at keep=0.3.
        let mut s2 = LoadShedder::new(0.3);
        let mut run = 0;
        for _ in 0..1000 {
            if s2.admit() {
                run += 1;
                assert!(run < 4);
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn no_shedding_below_capacity() {
        let data = uniform(40_000, 1);
        let mut eng = engine(Engine::CpuSim, 40_000);
        let _ = eng.register_frequency(0.001);
        // Probe the service rate, then offer well below it.
        let mut probe = engine(Engine::CpuSim, 40_000);
        let _ = probe.register_frequency(0.001);
        probe.push_batch(&data);
        probe.flush();
        let capacity = probe.service_rate();

        let report = run_at_rate(&mut eng, data.iter().copied(), capacity * 0.3);
        assert_eq!(report.shed, 0, "{report:?}");
        assert_eq!(report.processed, 40_000);
    }

    #[test]
    fn overload_sheds_to_the_capacity_ratio() {
        let data = uniform(120_000, 2);
        let mut probe = engine(Engine::CpuSim, 120_000);
        let _ = probe.register_frequency(0.001);
        probe.push_batch(&data);
        probe.flush();
        let capacity = probe.service_rate();

        // Offer 4x capacity: the controller must converge near keep = 0.25.
        let mut eng = engine(Engine::CpuSim, 120_000);
        let _ = eng.register_frequency(0.001);
        let report = run_at_rate(&mut eng, data.iter().copied(), capacity * 4.0);
        let shed = report.shed_fraction();
        assert!(
            (0.55..0.9).contains(&shed),
            "shed fraction {shed} should approach 0.75: {report:?}"
        );
        // Backlog must stay bounded (within a second of the arrival clock).
        assert!(report.lag_seconds < 1.0, "{report:?}");
    }

    #[test]
    fn recorder_counts_shed_events() {
        let data = uniform(60_000, 5);
        let mut probe = engine(Engine::CpuSim, 60_000);
        let _ = probe.register_frequency(0.001);
        probe.push_batch(&data);
        probe.flush();
        let capacity = probe.service_rate();

        let rec = gsm_obs::Recorder::enabled();
        let mut eng = EngineBuilder::new(Engine::CpuSim)
            .n_hint(60_000)
            .recorder(rec.clone())
            .build()
            .expect("valid configuration");
        let _ = eng.register_frequency(0.001);
        let report = run_at_rate(&mut eng, data.iter().copied(), capacity * 4.0);
        assert!(report.shed > 0, "4x overload must shed: {report:?}");
        assert_eq!(rec.counter("dsms_shed_elements"), report.shed);
        assert!(rec.counter("dsms_shed_events") > 0);
        // Every shed chunk also leaves a flight-recorder mark, and the
        // per-event drop counts reconcile with the aggregate counter.
        let shed_events: Vec<_> = rec
            .flight_events()
            .into_iter()
            .filter(|e| matches!(e.event, gsm_obs::EngineEvent::Shed { .. }))
            .collect();
        assert_eq!(shed_events.len() as u64, rec.counter("dsms_shed_events"));
        let dropped_sum: u64 = shed_events
            .iter()
            .map(|e| match e.event {
                gsm_obs::EngineEvent::Shed { dropped, .. } => dropped,
                _ => 0,
            })
            .sum();
        assert_eq!(dropped_sum, report.shed);
        let keep = rec.gauge("dsms_keep_permille").unwrap().current;
        assert_eq!(keep, (report.keep_fraction * 1000.0).round() as i64);
    }

    #[test]
    fn shed_quantiles_remain_unbiased() {
        // Uniform decimation preserves the distribution: a quantile query
        // over the kept sub-stream stays close to the full-stream value.
        let data = uniform(100_000, 3);
        let mut eng = engine(Engine::Host, 100_000);
        let q = eng.register_quantile(0.01);
        // Host engine has zero service time → force shedding manually.
        let mut shedder = LoadShedder::new(0.25);
        for &v in &data {
            if shedder.admit() {
                eng.push_batch(&[v]);
            }
        }
        let median = quantile(&mut eng, q, 0.5);
        let mut sorted = data;
        sorted.sort_by(f32::total_cmp);
        let exact = sorted[sorted.len() / 2];
        assert!(
            (median - exact).abs() < 25.0,
            "median {median} vs exact {exact} (range 0..1000)"
        );
    }
}
