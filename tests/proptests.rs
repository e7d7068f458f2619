//! Cross-crate property-based tests on the core invariants the experiments
//! rely on (per-module property tests live in each crate; these span crates
//! through the public API).

use proptest::prelude::*;
use softsku::archsim::cache::{CdpPartition, SetAssocCache};
use softsku::archsim::ranklist::{RankList, HOT_CAP};
use softsku::archsim::reuse::ReuseDistanceDist;
use softsku::cluster::{HazardConfig, HazardSchedule};
use softsku::telemetry::stats::{t_cdf, t_quantile, welch_test, MadFilter, RunningStats, Summary};
use softsku::workloads::request::{erlang_c, mmc_wait_factor};

/// The A/B tester's verdict skeleton: Welch at 95 % plus a minimum effect.
/// Returns -1 (worse), 0 (no difference), +1 (better).
fn welch_verdict(xs_a: &[f64], xs_b: &[f64]) -> i8 {
    let a: RunningStats = xs_a.iter().copied().collect();
    let b: RunningStats = xs_b.iter().copied().collect();
    let (sa, sb) = (a.summary().unwrap(), b.summary().unwrap());
    let w = welch_test(&sb, &sa);
    let rel = sb.mean() / sa.mean() - 1.0;
    if w.significant() && rel.abs() >= 0.0015 {
        if rel > 0.0 {
            1
        } else {
            -1
        }
    } else {
        0
    }
}

/// Feeds samples through a fresh MAD filter, returning only accepted ones.
fn mad_screen(xs: &[f64]) -> Vec<f64> {
    let mut filter = MadFilter::new(64, 8.0);
    xs.iter().copied().filter(|&x| filter.accept(x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The survival function of any valid reuse distribution is monotone
    /// non-increasing in capacity and bounded by [cold, 1].
    #[test]
    fn reuse_survival_is_monotone(
        knee in 4u64..10_000,
        knee_miss in 0.02f64..0.9,
        cold_frac in 0.0f64..0.5,
    ) {
        let cold = cold_frac * knee_miss * 0.9;
        let footprint = knee * 16;
        let dist = ReuseDistanceDist::single_knee(knee, knee_miss, cold, footprint).unwrap();
        let mut prev = 1.0f64;
        for exp in 0..18 {
            let c = 1u64 << exp;
            let m = dist.miss_ratio(c);
            prop_assert!(m <= prev + 1e-12);
            prop_assert!(m >= cold - 1e-12);
            prop_assert!(m <= 1.0);
            prev = m;
        }
    }

    /// A fully-associative-equivalent cache (1 set) never misses a working
    /// set smaller than its way count, regardless of the access pattern.
    #[test]
    fn small_working_sets_always_fit(accesses in proptest::collection::vec(0u64..8, 1..400)) {
        let mut cache = SetAssocCache::new(1, 8).unwrap();
        // First pass may miss (compulsory), second pass must fully hit.
        for &a in &accesses {
            cache.access(a);
        }
        cache.reset_stats();
        for &a in &accesses {
            prop_assert!(cache.access(a), "line {a} must be resident");
        }
    }

    /// RankList behaves exactly like a Vec under arbitrary front-insert /
    /// remove-at-rank sequences.
    #[test]
    fn ranklist_matches_vec_model(ops in proptest::collection::vec((any::<bool>(), 0usize..64), 1..200)) {
        let mut list = RankList::new();
        let mut model: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for (push, rank) in ops {
            if push || model.is_empty() {
                list.push_front(next);
                model.insert(0, next);
                next += 1;
            } else {
                let r = rank % model.len();
                prop_assert_eq!(list.remove_at(r), Some(model.remove(r)));
            }
        }
        prop_assert_eq!(list.to_vec(), model);
    }

    /// The implicit pre-warmed run (`RankList::descending`) is the same
    /// sequence as the materialized `[n-1, …, 0]` under arbitrary push /
    /// remove / pop / get traffic, before and after the compaction that
    /// materializes it: the trailing pushes spill more than the initial
    /// headroom (`max(n/2, 64)` slots) past the hot buffer.
    #[test]
    fn ranklist_descending_matches_materialized(
        n in prop_oneof![
            Just(0u64), Just(1), Just(63), Just(64), Just(65),
            Just(127), Just(128), Just(129), 0u64..4000,
        ],
        ops in proptest::collection::vec((0u8..4, any::<usize>()), 0..300),
    ) {
        let mut implicit = RankList::descending(n);
        let mut built = RankList::with_sequence((0..n).rev());
        prop_assert_eq!(implicit.to_vec(), built.to_vec());
        let mut next = n;
        let mut step = |op: u8, r: usize, a: &mut RankList, b: &mut RankList| {
            // `r % (len + 2)` also probes one and two past the end.
            let rank = r % (b.len() + 2);
            match op {
                0 => {
                    a.push_front(next);
                    b.push_front(next);
                    next += 1;
                }
                1 => prop_assert_eq!(a.remove_at(rank), b.remove_at(rank)),
                2 => prop_assert_eq!(a.pop_back(), b.pop_back()),
                _ => prop_assert_eq!(a.get(rank), b.get(rank)),
            }
        };
        for &(op, r) in &ops {
            step(op, r, &mut implicit, &mut built);
        }
        prop_assert_eq!(implicit.to_vec(), built.to_vec());
        for _ in 0..HOT_CAP as u64 + (n / 2).max(64) + 1 {
            step(0, 0, &mut implicit, &mut built);
        }
        for &(op, r) in &ops {
            step(op, r, &mut implicit, &mut built);
        }
        prop_assert_eq!(implicit.len(), built.len());
        prop_assert_eq!(implicit.to_vec(), built.to_vec());
    }

    /// Welford accumulation matches two-pass statistics.
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..300)) {
        let acc: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((acc.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((acc.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    /// t-quantile inverts the t-CDF across degrees of freedom.
    #[test]
    fn t_quantile_inverts_cdf(p in 0.01f64..0.99, df in 1.0f64..500.0) {
        let x = t_quantile(p, df);
        prop_assert!((t_cdf(x, df) - p).abs() < 1e-8);
    }

    /// Welch's test is antisymmetric in its arguments and never yields a
    /// p-value outside [0, 1].
    #[test]
    fn welch_is_antisymmetric(
        m1 in -100.0f64..100.0,
        m2 in -100.0f64..100.0,
        v1 in 0.01f64..50.0,
        v2 in 0.01f64..50.0,
        n1 in 3u64..500,
        n2 in 3u64..500,
    ) {
        let a = Summary::from_moments(n1, m1, v1);
        let b = Summary::from_moments(n2, m2, v2);
        let ab = welch_test(&a, &b);
        let ba = welch_test(&b, &a);
        prop_assert!((ab.t_statistic + ba.t_statistic).abs() < 1e-9);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
    }

    /// Erlang-C is a probability, increasing in offered load.
    #[test]
    fn erlang_c_is_probability(c in 1u32..64, rho in 0.0f64..0.99) {
        let a = rho * c as f64;
        let p = erlang_c(c, a);
        prop_assert!((0.0..=1.0).contains(&p));
        let p2 = erlang_c(c, (a + 0.1).min(c as f64 * 0.999));
        prop_assert!(p2 + 1e-12 >= p);
        prop_assert!(mmc_wait_factor(rho, c).is_finite());
    }

    /// Interleaving ≤5 % gross corrupted readings into either arm's stream
    /// does not change the Welch verdict once the MAD filter screens it: the
    /// filter rejects every corrupted reading and passes every clean one, so
    /// the accepted stream — and hence the A/B decision — is bit-identical
    /// to the hazard-free run.
    #[test]
    fn mad_filter_makes_welch_verdict_outlier_invariant(
        xs_a in proptest::collection::vec(99.0f64..101.0, 200..320),
        xs_b in proptest::collection::vec(99.0f64..101.0, 200..320),
        shift in -0.05f64..0.05,
        outlier_at in proptest::collection::vec((20usize..200, any::<bool>()), 0..10),
        factor in 4.0f64..12.0,
    ) {
        // Candidate arm = baseline distribution shifted by up to ±5 %.
        let xs_b: Vec<f64> = xs_b.iter().map(|x| x * (1.0 + shift)).collect();
        let clean = welch_verdict(&xs_a, &xs_b);

        // Inject ≤5 % corrupted readings (10 of ≥200) past the filter's
        // warm-up: gross multiplicative outliers, up or down, per arm.
        let dirty = |xs: &[f64], parity: usize| -> Vec<f64> {
            let mut out = Vec::with_capacity(xs.len() + outlier_at.len());
            for (j, &x) in xs.iter().enumerate() {
                out.push(x);
                for &(i, up) in &outlier_at {
                    if i % 2 == parity && i % xs.len() == j {
                        out.push(x * if up { factor } else { 1.0 / factor });
                    }
                }
            }
            out
        };

        let screened_a = mad_screen(&dirty(&xs_a, 0));
        let screened_b = mad_screen(&dirty(&xs_b, 1));
        // The filter reconstructs the clean streams exactly.
        prop_assert_eq!(&screened_a, &xs_a);
        prop_assert_eq!(&screened_b, &xs_b);
        prop_assert_eq!(welch_verdict(&screened_a, &screened_b), clean);
    }

    /// Identical (HazardConfig, seed) pairs produce byte-identical hazard
    /// schedules, and a fresh schedule replays the same preview.
    #[test]
    fn hazard_schedules_are_deterministic(
        seed in any::<u64>(),
        crash_rate in 0.0f64..2.0,
        dropout in 0.0f64..0.3,
        outlier in 0.0f64..0.3,
        spike_rate in 0.0f64..2.0,
        knob_fail in 0.0f64..0.5,
    ) {
        let config = HazardConfig {
            crash_rate_per_hour: crash_rate,
            crash_outage_s: 300.0,
            dropout_prob: dropout,
            outlier_prob: outlier,
            outlier_magnitude: 0.5,
            spike_rate_per_hour: spike_rate,
            spike_duration_s: 120.0,
            spike_magnitude: 0.3,
            knob_failure_prob: knob_fail,
        };
        let first = HazardSchedule::preview(config, seed, 8.0 * 3600.0, 30.0);
        let second = HazardSchedule::preview(config, seed, 8.0 * 3600.0, 30.0);
        prop_assert_eq!(&first, &second);
        // A different seed must not replay the same (non-trivial) timeline.
        if first.len() >= 3 {
            let other = HazardSchedule::preview(config, seed ^ 0x9E37_79B9, 8.0 * 3600.0, 30.0);
            prop_assert_ne!(&first, &other);
        }
    }

    /// Every valid CDP partition of any way count sums back to the total and
    /// never starves a side.
    #[test]
    fn cdp_sweep_is_complete_and_valid(ways in 2u32..32) {
        let sweep = CdpPartition::sweep(ways);
        prop_assert_eq!(sweep.len(), (ways - 1) as usize);
        for p in sweep {
            prop_assert_eq!(p.data_ways + p.code_ways, ways);
            prop_assert!(p.data_ways >= 1 && p.code_ways >= 1);
            prop_assert!(CdpPartition::new(p.data_ways, p.code_ways, ways).is_ok());
        }
    }
}
