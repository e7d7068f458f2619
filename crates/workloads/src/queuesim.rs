//! Event-driven queueing simulation for tail latency.
//!
//! The analytic M/M/c model in [`crate::request`] gives *mean* waiting
//! times, but the paper's QoS story is about tails: services cap utilization
//! "to avoid QoS violations", and Table 3 calls out tail-latency
//! optimizations as the path to higher utilization. This module simulates a
//! FCFS multi-server queue event-by-event and reports latency percentiles,
//! so QoS checks can bind on p99 rather than the mean.
//!
//! The simulation is exact for M/G/c-FCFS: jobs arrive as a Poisson process,
//! each job takes a sampled service time, and the earliest-available server
//! runs it. A binary heap of server-free times ([`FcfsServers`]) makes it
//! O(n log c). The same queue core and [`ServiceDist`] sampler drive every
//! tier of the request-graph mesh simulator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_telemetry::nearest_rank;
use softsku_telemetry::stats::standard_normal;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Latency distribution summary from a queueing simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailLatency {
    /// Mean sojourn time (wait + service).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Service-time distributions supported by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceDist {
    /// Exponential with the given mean (the M/M/c case).
    Exponential {
        /// Mean service time in seconds.
        mean: f64,
    },
    /// Deterministic service time (the M/D/c case — batch-like work).
    Deterministic {
        /// Fixed service time in seconds.
        time: f64,
    },
    /// Log-normal with given mean and squared coefficient of variation —
    /// the heavy-tailed case typical of request serving.
    LogNormal {
        /// Mean service time in seconds.
        mean: f64,
        /// Squared coefficient of variation (variance / mean²); `cv2 ≤ 0`
        /// degenerates to the deterministic `mean`.
        cv2: f64,
    },
}

impl ServiceDist {
    /// Draws one service time. The deterministic cases (including a
    /// log-normal with `cv2 ≤ 0`) return without touching `rng`. Loops
    /// that draw many times should hoist [`ServiceDist::sampler`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sampler().sample(rng)
    }

    /// The distribution with its per-draw constants precomputed: the
    /// log-normal's `mu` and `sigma` are evaluated once here instead of on
    /// every draw, with the same expressions, so draws are bit-identical
    /// to [`ServiceDist::sample`]'s.
    pub fn sampler(&self) -> ServiceSampler {
        let kind = match *self {
            ServiceDist::Exponential { mean } => SamplerKind::Exponential { mean },
            ServiceDist::Deterministic { time } => SamplerKind::Fixed(time),
            ServiceDist::LogNormal { mean, cv2 } if cv2 <= 0.0 => SamplerKind::Fixed(mean),
            ServiceDist::LogNormal { mean, cv2 } => {
                let (mu, sigma) = log_normal_params(mean, cv2);
                SamplerKind::LogNormal { mu, sigma }
            }
        };
        ServiceSampler { kind }
    }

    fn mean(&self) -> f64 {
        match *self {
            ServiceDist::Exponential { mean } => mean,
            ServiceDist::Deterministic { time } => time,
            ServiceDist::LogNormal { mean, .. } => mean,
        }
    }
}

/// The `(mu, sigma)` of the log-normal with mean `mean` and squared
/// coefficient of variation `cv2 > 0` (variance / mean²). `sigma` does
/// not depend on `mean`, so a caller may draw the shape
/// `sigma · z` before it knows the mean; `(mu + sigma · z).exp()` is then
/// bit-identical to a [`ServiceSampler`] draw of the same `z`.
pub fn log_normal_params(mean: f64, cv2: f64) -> (f64, f64) {
    let sigma2 = (1.0 + cv2).ln();
    (mean.ln() - sigma2 / 2.0, sigma2.sqrt())
}

/// A [`ServiceDist`] ready to draw from; see [`ServiceDist::sampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSampler {
    kind: SamplerKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SamplerKind {
    Exponential {
        mean: f64,
    },
    /// A fixed service time that draws nothing.
    Fixed(f64),
    /// `exp(mu + sigma · z)` for a standard normal `z`.
    LogNormal {
        mu: f64,
        sigma: f64,
    },
}

impl ServiceSampler {
    /// Draws one service time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.kind {
            SamplerKind::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            SamplerKind::Fixed(time) => time,
            SamplerKind::LogNormal { mu, sigma } => {
                let z = standard_normal(rng);
                (mu + sigma * z).exp()
            }
        }
    }
}

/// A `c`-server FCFS queue core: the earliest-free server takes the next
/// job, which starts at `max(server free, arrival)`.
#[derive(Debug, Clone)]
pub struct FcfsServers {
    /// Min-heap of server-free timestamps, ordered via their bits: every
    /// time is nonnegative and finite, where bit order is numeric order.
    free: BinaryHeap<Reverse<u64>>,
}

impl FcfsServers {
    /// `servers` idle servers (at least one) at time zero.
    pub fn new(servers: u32) -> Self {
        FcfsServers {
            free: (0..servers.max(1)).map(|_| Reverse(0u64)).collect(),
        }
    }

    /// Admits the next job in FCFS order, arriving at `arrival` and holding
    /// a server for `service` seconds; returns its start time.
    pub fn admit(&mut self, arrival: f64, service: f64) -> f64 {
        let avail = self
            .free
            .pop()
            .map_or(0.0, |Reverse(bits)| f64::from_bits(bits));
        let start = avail.max(arrival);
        self.free.push(Reverse((start + service).to_bits()));
        start
    }
}

/// Simulates a FCFS queue with `servers` parallel servers at utilization
/// `rho` (per server), drawing `jobs` jobs, and returns the sojourn-time
/// distribution. The arrival rate is derived as `rho * servers / E[S]`.
///
/// The first 10 % of jobs are discarded as queue warm-up.
///
/// # Panics
///
/// Panics if `servers == 0`, `jobs < 100`, or `rho` is outside `(0, 1)`.
pub fn simulate_queue(
    servers: u32,
    rho: f64,
    service: ServiceDist,
    jobs: usize,
    seed: u64,
) -> TailLatency {
    assert!(servers > 0, "need at least one server");
    assert!(jobs >= 100, "need at least 100 jobs, got {jobs}");
    assert!(
        rho > 0.0 && rho < 1.0,
        "utilization must be in (0, 1), got {rho}"
    );

    let mut rng = SmallRng::seed_from_u64(seed);
    let arrival_rate = rho * servers as f64 / service.mean();

    let sampler = service.sampler();
    let mut queue = FcfsServers::new(servers);
    let mut t = 0.0f64;
    let warmup = jobs / 10;
    let mut sojourns = Vec::with_capacity(jobs - warmup);
    for i in 0..jobs {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / arrival_rate;
        let s = sampler.sample(&mut rng);
        let finish = queue.admit(t, s) + s;
        if i >= warmup {
            sojourns.push(finish - t);
        }
    }
    sojourns.sort_by(f64::total_cmp);
    // `jobs >= 100` keeps at least 90 sojourns, so every rank exists.
    let pick = |q: f64| nearest_rank(&sojourns, q).unwrap_or(f64::NAN);
    TailLatency {
        mean: sojourns.iter().sum::<f64>() / sojourns.len() as f64,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::mmc_wait_factor;

    #[test]
    fn mmc_simulation_matches_erlang_c_mean() {
        // The analytic mean sojourn of M/M/c is S·(1 + W_q/S) with W_q from
        // Erlang C; the event simulation must agree within sampling noise.
        for &(servers, rho) in &[(1u32, 0.5f64), (4, 0.7), (16, 0.8)] {
            let service = ServiceDist::Exponential { mean: 1.0 };
            let sim = simulate_queue(servers, rho, service, 200_000, 7);
            let analytic = 1.0 + mmc_wait_factor(rho, servers);
            let rel = (sim.mean - analytic).abs() / analytic;
            assert!(
                rel < 0.05,
                "c={servers} rho={rho}: sim {:.3} vs analytic {analytic:.3}",
                sim.mean
            );
        }
    }

    #[test]
    fn percentiles_are_ordered_and_tails_grow_with_load() {
        let service = ServiceDist::Exponential { mean: 1.0 };
        // ρ = 0.97 puts the high-load point deep in the regime where the
        // conditional wait (rate c·μ·(1−ρ)) dominates the tail; at ρ = 0.95
        // the true spread ratio sits almost exactly on the 2× threshold and
        // the assertion flips on sampling noise.
        let low = simulate_queue(8, 0.5, service, 150_000, 3);
        let high = simulate_queue(8, 0.97, service, 150_000, 3);
        for t in [&low, &high] {
            assert!(t.p50 <= t.p95 && t.p95 <= t.p99);
            assert!(t.mean >= 0.9, "sojourn includes service time: {}", t.mean);
        }
        assert!(
            high.p99 > low.p99 * 1.5,
            "p99 must blow up with load: {} vs {}",
            high.p99,
            low.p99
        );
        // The tail spread (p99 − p50) widens much faster than the median —
        // the QoS point: tails bind long before means do.
        let spread_low = low.p99 - low.p50;
        let spread_high = high.p99 - high.p50;
        assert!(
            spread_high > 2.0 * spread_low,
            "tail spread {spread_high:.2} vs {spread_low:.2}"
        );
    }

    #[test]
    fn deterministic_service_has_tighter_tail_than_exponential() {
        let exp = simulate_queue(4, 0.7, ServiceDist::Exponential { mean: 1.0 }, 100_000, 5);
        let det = simulate_queue(4, 0.7, ServiceDist::Deterministic { time: 1.0 }, 100_000, 5);
        assert!(
            det.p99 < exp.p99,
            "M/D/c p99 {:.2} must undercut M/M/c p99 {:.2}",
            det.p99,
            exp.p99
        );
    }

    #[test]
    fn heavy_tailed_service_has_fatter_tail() {
        let exp = simulate_queue(4, 0.6, ServiceDist::Exponential { mean: 1.0 }, 100_000, 9);
        let heavy = simulate_queue(
            4,
            0.6,
            ServiceDist::LogNormal {
                mean: 1.0,
                cv2: 6.0,
            },
            100_000,
            9,
        );
        assert!(
            heavy.p99 > exp.p99,
            "heavy {:.2} vs exp {:.2}",
            heavy.p99,
            exp.p99
        );
        // Means stay comparable (same E[S], same rho).
        assert!((heavy.mean / exp.mean - 1.0).abs() < 0.35);
    }

    #[test]
    fn lognormal_mean_is_calibrated() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = ServiceDist::LogNormal {
            mean: 2.5,
            cv2: 1.5,
        };
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn hoisted_lognormal_draws_match_the_inline_formula() {
        for (mean, cv2) in [(2.5, 1.5), (3e-4, 2.0), (1.0, 1e-9), (1.0, f64::NAN)] {
            let sampler = ServiceDist::LogNormal { mean, cv2 }.sampler();
            // The mesh draws the shape `sigma · z` with a unit mean's
            // sigma before it knows the mean.
            let (mu, _) = log_normal_params(mean, cv2);
            let (_, unit_sigma) = log_normal_params(1.0, cv2);
            let mut a = SmallRng::seed_from_u64(4);
            let mut b = SmallRng::seed_from_u64(4);
            let mut c = SmallRng::seed_from_u64(4);
            for _ in 0..1000 {
                let sigma2 = (1.0 + cv2).ln();
                let mu_inline = mean.ln() - sigma2 / 2.0;
                let inline = (mu_inline + sigma2.sqrt() * standard_normal(&mut a)).exp();
                assert_eq!(sampler.sample(&mut b).to_bits(), inline.to_bits());
                let shaped = (mu + unit_sigma * standard_normal(&mut c)).exp();
                assert_eq!(shaped.to_bits(), inline.to_bits());
            }
        }
    }

    #[test]
    fn fcfs_core_waits_for_the_earliest_free_server() {
        let mut q = FcfsServers::new(2);
        assert_eq!(q.admit(0.0, 5.0), 0.0);
        assert_eq!(q.admit(1.0, 2.0), 1.0);
        // Both busy: the server freed at 3.0 takes the next job.
        assert_eq!(q.admit(2.0, 1.0), 3.0);
        // An idle server starts a late arrival on arrival.
        assert_eq!(q.admit(10.0, 1.0), 10.0);
        // Zero servers still means one.
        let mut one = FcfsServers::new(0);
        assert_eq!(one.admit(0.0, 1.0), 0.0);
        assert_eq!(one.admit(0.5, 1.0), 1.0);
    }

    #[test]
    fn zero_cv2_lognormal_is_the_mean_without_a_draw() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut twin = rng.clone();
        let d = ServiceDist::LogNormal {
            mean: 0.25,
            cv2: 0.0,
        };
        assert_eq!(d.sample(&mut rng), 0.25);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "stream untouched");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_queue(4, 0.7, ServiceDist::Exponential { mean: 1.0 }, 10_000, 11);
        let b = simulate_queue(4, 0.7, ServiceDist::Exponential { mean: 1.0 }, 10_000, 11);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn rejects_saturated_load() {
        simulate_queue(2, 1.0, ServiceDist::Exponential { mean: 1.0 }, 1000, 0);
    }
}
