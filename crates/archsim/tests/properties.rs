//! Property-based tests on the simulator's core data structures.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softsku_archsim::cache::SetAssocCache;
use softsku_archsim::ranklist::RankList;
use softsku_archsim::reuse::ReuseDistanceDist;
use softsku_archsim::tlb::LruSet;
use softsku_archsim::trace::StackMapper;
use std::collections::HashSet;

/// The engine tags code ids apart from data ids in the unified L2 this way.
const CODE_TAG: u64 = 1 << 62;

/// Distinct-id pre-fill sequences, oldest first: `raw` with repeats
/// dropped, and the L2's shape — the MRU ends of a `code_len`-line and a
/// `data_len`-line stream interleaved, code ids tagged, data after code at
/// each depth.
fn prefill_sequences(raw: Vec<u64>, code_len: u64, data_len: u64) -> [Vec<u64>; 2] {
    let mut seen = HashSet::new();
    let distinct = raw.into_iter().filter(|&id| seen.insert(id)).collect();
    let mut interleaved = Vec::new();
    for i in (1..=code_len.max(data_len)).rev() {
        if i <= code_len {
            interleaved.push((code_len - i) | CODE_TAG);
        }
        if i <= data_len {
            interleaved.push(data_len - i);
        }
    }
    [distinct, interleaved]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The inverse-survival sampler only produces distances inside
    /// `[1, footprint)` plus the cold mass, and the empirical cold fraction
    /// tracks the configured one.
    #[test]
    fn sampled_distances_are_in_range(
        seed in any::<u64>(),
        knee_exp in 3u32..14,
        miss in 0.05f64..0.8,
        cold in 0.0f64..0.04,
    ) {
        let knee = 1u64 << knee_exp;
        let footprint = knee * 8;
        let dist = ReuseDistanceDist::single_knee(knee, miss, cold, footprint).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut colds = 0usize;
        let n = 3000;
        for _ in 0..n {
            match dist.sample(&mut rng) {
                None => colds += 1,
                Some(d) => prop_assert!((1..footprint).contains(&d), "distance {d}"),
            }
        }
        let frac = colds as f64 / n as f64;
        prop_assert!((frac - cold).abs() < 0.03, "cold {frac} vs {cold}");
    }

    /// Compaction by any factor ≥ 1 preserves validity and never increases
    /// the footprint.
    #[test]
    fn compaction_preserves_validity(factor in 1.0f64..512.0) {
        let dist = ReuseDistanceDist::from_survival_points(
            &[(128, 0.2), (4096, 0.05)],
            0.01,
            100_000,
        )
        .unwrap();
        let compacted = dist.compacted(factor);
        prop_assert!(compacted.footprint() <= dist.footprint());
        prop_assert!(compacted.miss_ratio(1) == 1.0);
        prop_assert!(compacted.miss_ratio(u64::MAX) <= dist.miss_ratio(1));
    }

    /// The stack mapper's id stream respects the footprint bound no matter
    /// the distribution shape.
    #[test]
    fn mapper_never_exceeds_footprint(
        seed in any::<u64>(),
        fp_exp in 4u32..12,
    ) {
        let footprint = 1u64 << fp_exp;
        let dist = ReuseDistanceDist::single_knee(
            footprint / 4,
            0.3,
            0.05,
            footprint,
        )
        .unwrap();
        let mut mapper = StackMapper::new(dist);
        let mut rng = SmallRng::seed_from_u64(seed ^ 1);
        for _ in 0..2000 {
            let _ = mapper.access(&mut rng);
            prop_assert!(mapper.live_ids() as u64 <= footprint);
        }
    }

    /// A cache access is a hit iff the line was in the same set's most
    /// recent `ways` distinct accesses — verified against a brute-force
    /// model on single-set caches.
    #[test]
    fn single_set_cache_is_exact_lru(
        ways in 1u32..9,
        accesses in proptest::collection::vec(0u64..24, 1..300),
    ) {
        let mut cache = SetAssocCache::new(1, ways).unwrap();
        let mut recency: Vec<u64> = Vec::new();
        for &a in &accesses {
            let model_hit = recency.iter().position(|&x| x == a).map(|p| {
                recency.remove(p);
            }).is_some();
            recency.insert(0, a);
            recency.truncate(ways as usize);
            prop_assert_eq!(cache.access(a), model_hit, "line {}", a);
        }
    }

    /// Filling an empty cache with distinct lines most recent first leaves
    /// the whole state — every set's tags in MRU→LRU order, occupancy and
    /// the unused slots — that replaying the lines oldest first through
    /// `access` leaves once its statistics are reset. The sequences run
    /// from under one line per set to several times the capacity, so sets
    /// both stay partly empty and overflow.
    #[test]
    fn mru_first_fill_matches_access_replay(
        sets in 1u64..64,
        ways in 1u32..16,
        raw in proptest::collection::vec(any::<u64>(), 0..3000),
        code_len in 0u64..2000,
        data_len in 0u64..2000,
    ) {
        for oldest_first in prefill_sequences(raw, code_len, data_len) {
            let mut replayed = SetAssocCache::new(sets, ways).unwrap();
            for &id in &oldest_first {
                replayed.access(id);
            }
            replayed.reset_stats();
            let mut filled = SetAssocCache::new(sets, ways).unwrap();
            filled.fill_mru_first(oldest_first.iter().rev().copied());
            prop_assert_eq!(filled, replayed, "{} lines", oldest_first.len());
        }
    }

    /// LruSet and RankList agree with their vector models under arbitrary
    /// workloads (cross-checked against each other via recency semantics).
    #[test]
    fn lru_set_capacity_invariant(
        cap in 1usize..64,
        keys in proptest::collection::vec(0u64..128, 1..400),
    ) {
        let mut set = LruSet::new(cap).unwrap();
        for &k in &keys {
            set.access(k);
            prop_assert!(set.len() <= cap);
        }
        // The most recent key is always resident.
        let last = *keys.last().unwrap();
        prop_assert!(set.access(last));
    }

    /// RankList front-insert/pop_back round-trips arbitrary sequences (FIFO
    /// through the stack).
    #[test]
    fn ranklist_fifo_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut list = RankList::new();
        for &v in &values {
            list.push_front(v);
        }
        let mut drained = Vec::new();
        while let Some(v) = list.pop_back() {
            drained.push(v);
        }
        prop_assert_eq!(drained, values);
    }

    /// with_sequence builds exactly the given order for any input.
    #[test]
    fn ranklist_with_sequence_preserves_order(values in proptest::collection::vec(any::<u64>(), 0..300)) {
        let list = RankList::with_sequence(values.clone());
        prop_assert_eq!(list.to_vec(), values);
    }
}
