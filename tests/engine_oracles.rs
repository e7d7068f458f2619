//! Exact oracle for the first-level TLB model.
//!
//! Each first-level TLB array is fully associative, LRU, and fed by one page
//! stack, so by LRU inclusion (Mattson et al., 1970) it holds exactly the
//! `held` most recent ids of its stream and an access hits iff its stack
//! distance is at most `held`. The engine stores only that depth
//! ([`DepthLru`]), probed with the ranks the page mappers record. Here a
//! real LRU array ([`LruSet`]), pre-filled from the stack top as the
//! engine's pre-fill assumes, is fed the same pre-warmed mapper's ids, and
//! the two must agree on every access from the first, through flushes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku::archsim::reuse::ReuseDistanceDist;
use softsku::archsim::tlb::{DepthLru, LruSet};
use softsku::archsim::trace::{prewarm_len, StackMapper};
use softsku::workloads::Microservice;

const COLUMNS: usize = 20;
const COLUMN: usize = 1000;
/// The flush after each column, in rotation: light, heavy and total.
const FLUSHES: [f64; 3] = [0.1, 0.35, 1.0];

/// Feeds `dist`'s pre-warmed mapper into an `entries`-entry [`LruSet`]
/// that was fed the `prefill` most recent ids of the stack, deepest first,
/// and checks every hit against a [`DepthLru`] built the same way. Returns
/// the misses.
fn agree(what: &str, dist: &ReuseDistanceDist, entries: u32, prefill: u64, seed: u64) -> usize {
    let mut mapper = StackMapper::new(dist.clone());
    let pw = prewarm_len(dist);
    let prefill = prefill.min(pw);
    let mut lru = LruSet::new(entries as usize).unwrap();
    for id in pw - prefill..pw {
        lru.access(id);
    }
    let mut depth = DepthLru::prefilled(entries, prefill).unwrap();
    assert_eq!(depth.held() as usize, lru.len(), "{what}: pre-fill");

    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut ids, mut ranks) = (Vec::new(), Vec::new());
    let mut misses = 0;
    for column in 0..COLUMNS {
        let draws: Vec<f64> = (0..COLUMN).map(|_| rng.gen()).collect();
        mapper.map_column_ranked(&draws, &mut ids, &mut ranks);
        for (k, (&id, &rank)) in ids.iter().zip(&ranks).enumerate() {
            let hit = lru.access(id);
            assert_eq!(
                depth.access(rank),
                hit,
                "{what}: access {} (id {id}, rank {rank})",
                column * COLUMN + k
            );
            misses += usize::from(!hit);
        }
        let fraction = FLUSHES[column % FLUSHES.len()];
        lru.flush_fraction(fraction);
        depth.flush_fraction(fraction);
        assert_eq!(depth.held() as usize, lru.len(), "{what}: flush {column}");
    }
    misses
}

/// Every profile's four page streams — code and data, 4 KiB and their
/// 2 MiB compactions — into their platform's arrays: empty, half full, and
/// pre-filled as the engine pre-fills the 4 KiB arrays (half the STLB).
#[test]
fn depth_matches_a_real_lru_on_every_profile_page_stream() {
    let mut seed = 0;
    for service in Microservice::ALL {
        for &platform in service.supported_platforms() {
            let profile = service.profile(platform).unwrap();
            let (s, plat) = (&profile.stream, &profile.stock_config.platform);
            let streams = [
                ("code 4K", s.code_page_reuse.clone(), plat.itlb.entries_4k),
                (
                    "code 2M",
                    s.code_page_reuse
                        .compacted(s.pages.code_compaction.max(1.0)),
                    plat.itlb.entries_2m,
                ),
                ("data 4K", s.data_page_reuse.clone(), plat.dtlb.entries_4k),
                (
                    "data 2M",
                    s.data_page_reuse
                        .compacted(s.pages.data_compaction.max(1.0)),
                    plat.dtlb.entries_2m,
                ),
            ];
            for (name, dist, entries) in streams {
                for prefill in [0, u64::from(entries / 2), u64::from(plat.stlb_entries / 2)] {
                    seed += 1;
                    let what = format!("{service}/{platform:?} {name}, pre-fill {prefill}");
                    let misses = agree(&what, &dist, entries, prefill, seed);
                    assert!(misses > 0, "{what}: no misses");
                }
            }
        }
    }
}

/// A stream whose whole footprint fits in the array: once it is held, only
/// cold draws miss.
#[test]
fn depth_matches_a_real_lru_when_the_footprint_fits() {
    let dist = ReuseDistanceDist::single_knee(4, 0.3, 0.05, 40).unwrap();
    for (seed, prefill) in [0, 20, 40].into_iter().enumerate() {
        let what = format!("footprint 40 in 64 entries, pre-fill {prefill}");
        let misses = agree(&what, &dist, 64, prefill, seed as u64);
        assert!(
            misses > 0 && misses < COLUMNS * COLUMN / 2,
            "{what}: {misses}"
        );
    }
}

/// A footprint beyond the mapper's pre-warm cap (2^20 ids): many draws
/// reach past the live history, touch new ids and must miss.
#[test]
fn depth_matches_a_real_lru_beyond_the_live_history() {
    let dist = ReuseDistanceDist::from_survival_points(&[(64, 0.5), (1 << 20, 0.3)], 0.01, 1 << 22)
        .unwrap();
    let pw = prewarm_len(&dist);
    assert!(pw < dist.footprint(), "the pre-warm must be truncated");
    for (seed, entries) in [64u32, 1536].into_iter().enumerate() {
        let what = format!("footprint 2^22 in {entries} entries");
        let misses = agree(&what, &dist, entries, u64::from(entries), seed as u64);
        assert!(misses > COLUMNS * COLUMN / 4, "{what}: {misses}");
    }
}
