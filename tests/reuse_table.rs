//! `ReuseDistanceDist::invert` reads a guarded inversion table before the
//! exact inversion, `distance_at_survival`. Every stored cell must invert
//! every draw it covers to the stored value, so the table path equals the
//! exact path at both ends of every cell and at seeded interior draws —
//! on every service profile's distributions and their compactions, and on
//! the shapes that stress the cell rule: near-flat segments, no or nearly
//! all cold mass, and distances past `u32::MAX`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku::archsim::reuse::{InversionTable, ReuseDistanceDist};
use softsku::workloads::Microservice;

/// Interior draws checked per stored cell.
const INTERIOR: usize = 64;

/// Checks the table path against the exact inversion on every cell of
/// `dist`, and returns the table's fallback share.
fn assert_table_exact(dist: &ReuseDistanceDist, what: &str) -> f64 {
    let table = dist.inversion_table();
    let mut rng = SmallRng::seed_from_u64(0x7ab1e);
    for k in 0..InversionTable::CELLS {
        let (lo, hi) = InversionTable::cell_bounds(k);
        for u in [lo, hi] {
            assert_eq!(
                dist.invert(u),
                dist.distance_at_survival(u),
                "{what}: cell {k} end {u:e}"
            );
        }
        let Some(stored) = table.cell(k) else {
            continue;
        };
        assert_eq!(stored, dist.distance_at_survival(lo), "{what}: cell {k}");
        for i in 0..INTERIOR {
            // Half on the generator's grid (`m · 2^-53`), half uniform over
            // every f64 the cell holds.
            let u = if i % 2 == 0 {
                let m: u64 = rng.gen_range(0..1u64 << 41);
                ((k as u64) << 41 | m) as f64 / (1u64 << 53) as f64
            } else {
                f64::from_bits(rng.gen_range(lo.to_bits()..=hi.to_bits()))
            };
            assert!(
                (lo..=hi).contains(&u),
                "{what}: draw {u:e} outside cell {k}"
            );
            assert_eq!(
                dist.distance_at_survival(u),
                stored,
                "{what}: cell {k} interior {u:e}"
            );
            assert_eq!(dist.invert(u), stored, "{what}: cell {k} interior {u:e}");
        }
    }
    table.fallback_share()
}

#[test]
fn table_matches_exact_inversion_on_every_profile() {
    for service in Microservice::ALL {
        for &platform in service.supported_platforms() {
            let profile = service.profile(platform).unwrap();
            let s = &profile.stream;
            let factors = [s.pages.code_compaction, s.pages.data_compaction];
            for (name, dist) in [
                ("code_reuse", &s.code_reuse),
                ("data_reuse", &s.data_reuse),
                ("code_page_reuse", &s.code_page_reuse),
                ("data_page_reuse", &s.data_page_reuse),
            ] {
                let what = format!("{service}/{platform} {name}");
                let share = assert_table_exact(dist, &what);
                assert!(share < 0.5, "{what}: fallback share {share}");
                for factor in factors {
                    let compacted = dist.compacted(factor.max(1.0));
                    assert_table_exact(&compacted, &format!("{what} / {factor}"));
                }
            }
        }
    }
}

#[test]
fn table_matches_exact_inversion_on_edge_shapes() {
    let cases: Vec<(&str, ReuseDistanceDist)> = vec![
        // Consecutive anchors clamped to `last_p * 0.999`, as the profile
        // builder does for flat target tables.
        (
            "near-flat",
            ReuseDistanceDist::from_survival_points(
                &[(64, 0.5), (128, 0.4995), (4096, 0.499_000_5), (8192, 0.1)],
                0.01,
                1 << 20,
            )
            .unwrap(),
        ),
        (
            "no cold mass",
            ReuseDistanceDist::from_survival_points(&[(512, 0.3), (65_536, 0.02)], 0.0, 1 << 22)
                .unwrap(),
        ),
        (
            "nearly all cold",
            ReuseDistanceDist::from_survival_points(&[(16, 0.9995)], 0.999, 4096).unwrap(),
        ),
        (
            "footprint above u32::MAX",
            ReuseDistanceDist::from_survival_points(
                &[(1 << 20, 0.5), (1 << 33, 0.2)],
                0.05,
                1 << 40,
            )
            .unwrap(),
        ),
        (
            "two lines",
            ReuseDistanceDist::from_survival_points(&[], 0.3, 2).unwrap(),
        ),
    ];
    for (what, dist) in &cases {
        assert_table_exact(dist, what);
        for factor in [1.0, 7.5, 512.0] {
            assert_table_exact(&dist.compacted(factor), &format!("{what} / {factor}"));
        }
    }
    // Distances past `u32::MAX` never enter the table.
    let (_, big) = &cases[3];
    let table = big.inversion_table();
    assert!((0..InversionTable::CELLS)
        .filter_map(|k| table.cell(k).flatten())
        .all(|d| d < u64::from(u32::MAX)));
    assert!(big.distance_at_survival(0.06).unwrap() > u64::from(u32::MAX));
    assert_eq!(big.invert(0.06), big.distance_at_survival(0.06));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Building a table never panics, and it stays exact, on random
    /// single-knee shapes from a two-line footprint to past `u32::MAX`.
    #[test]
    fn table_is_exact_on_random_shapes(
        knee in 2u64..1 << 24,
        knee_miss in 1e-6f64..0.999_999,
        cold_share in 0.0f64..1.0,
        spread in 2u64..1 << 16,
    ) {
        let cold = knee_miss * cold_share * 0.999;
        let footprint = knee * spread;
        let dist = ReuseDistanceDist::single_knee(knee, knee_miss, cold, footprint).unwrap();
        assert_table_exact(&dist, &format!("{knee}/{knee_miss}/{cold}/{footprint}"));
    }
}

#[test]
fn draws_outside_the_unit_interval_take_the_exact_path() {
    let dist = ReuseDistanceDist::single_knee(512, 0.1, 0.01, 1 << 20).unwrap();
    for u in [1.0, 1.5, f64::INFINITY, -0.0, 0.0, 0.005, 0.999_999] {
        assert_eq!(dist.invert(u), dist.distance_at_survival(u), "u = {u}");
    }
}

#[test]
fn equality_debug_and_fingerprints_ignore_the_table() {
    let fresh = || ReuseDistanceDist::single_knee(256, 0.2, 0.01, 1 << 18).unwrap();
    let words = |d: &ReuseDistanceDist| {
        let mut w = Vec::new();
        d.fingerprint_words(&mut |x| w.push(x));
        w
    };
    let built = fresh();
    let before = words(&built);
    built.inversion_table();
    let _ = built.compacted(8.0);
    let unbuilt = fresh();
    assert_eq!(built, unbuilt);
    assert_eq!(format!("{built:?}"), format!("{unbuilt:?}"));
    assert_eq!(words(&built), before);
    assert_eq!(words(&built), words(&unbuilt));
    // Clones share the built table.
    let clone = built.clone();
    assert!(std::ptr::eq(
        clone.inversion_table(),
        built.inversion_table()
    ));
    // The kept compaction equals a fresh one, and another factor still
    // compacts by that factor.
    assert_eq!(built.compacted(8.0), unbuilt.compacted(8.0));
    assert_eq!(built.compacted(4.0), fresh().compacted(4.0));
    assert_ne!(built.compacted(4.0), built.compacted(8.0));
}
