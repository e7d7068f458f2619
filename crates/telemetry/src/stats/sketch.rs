//! A deterministic, mergeable streaming quantile sketch.
//!
//! The SLO engine needs percentiles over windows whose sample counts are
//! unbounded (every request latency of a sim window), under the workspace
//! determinism contract: a simulation is a pure function of `(config,
//! seed)`, bit-identical across worker counts. Classical sketches (KLL,
//! req-sketch) flip random coins when they compact; this one replaces the
//! coin with a per-level parity bit that alternates on every compaction, so
//! the summary is a *pure function of the ingestion sequence* — no RNG, no
//! wall-clock, no pointer-identity anywhere.
//!
//! Worker-count independence is therefore an ingestion-order discipline,
//! the same one the rest of the workspace already follows: shards are
//! produced by workers, merged on the orchestration thread in canonical
//! plan order, and *then* fed to the sketch (or per-shard sketches are
//! [`QuantileSketch::merge`]d in canonical order — merge is deterministic
//! in its operand order, never in scheduler order).
//!
//! # Accuracy
//!
//! Items promoted from level `l` carry weight `2^l`. Each compaction of a
//! level holding `c` items discards every other one of the sorted run,
//! shifting any rank estimate by at most the level weight; alternating the
//! starting parity cancels the shift pairwise across consecutive
//! compactions. The guaranteed worst-case rank error is
//! [`QuantileSketch::rank_error_bound`]; the proptest in this module pins
//! p50/p95/p99 against exact nearest-rank within that bound on adversarial
//! (sorted, reversed, heavy-tailed, near-constant) inputs.

/// Default per-level buffer capacity: 512 items per level keeps the
/// guaranteed relative rank error under ~0.8 % out to millions of samples
/// (tight enough to rank a p99 over a 10 k-request window within the
/// nearest-rank tie band) at a few KiB per sketch.
pub const DEFAULT_SKETCH_K: usize = 512;

/// Deterministic mergeable quantile sketch (coin-free KLL-style compactor
/// hierarchy). See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// Per-level buffers; items in `levels[l]` carry weight `2^l`.
    levels: Vec<Vec<f64>>,
    /// Per-level compaction parity: whether the next compaction keeps the
    /// odd-indexed items of the sorted run.
    parity: Vec<bool>,
    /// Per-level capacity before a compaction cascades upward.
    k: usize,
    /// Total number of `push`ed samples (by weight).
    count: u64,
}

impl QuantileSketch {
    /// An empty sketch with the default accuracy/footprint trade-off.
    pub fn new() -> Self {
        Self::with_k(DEFAULT_SKETCH_K)
    }

    /// An empty sketch with per-level capacity `k` (clamped to ≥ 8; must be
    /// even so a compaction halves exactly).
    pub fn with_k(k: usize) -> Self {
        let k = k.max(8) & !1;
        QuantileSketch {
            levels: vec![Vec::new()],
            parity: vec![false],
            k,
            count: 0,
        }
    }

    /// Number of samples pushed (including samples merged in).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch has seen no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-level capacity this sketch compacts at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Items currently retained across all levels (the memory footprint).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Guaranteed worst-case rank error of [`Self::quantile`], as a
    /// fraction of [`Self::count`]. Each level can mis-rank by at most its
    /// weight per unpaired compaction; summed over the hierarchy this stays
    /// under `2 / k` of the stream length plus the nearest-rank tie band.
    pub fn rank_error_bound(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let levels = self.levels.len() as f64;
        (2.0 * levels / self.k as f64).min(1.0)
    }

    /// Adds one sample. Non-finite samples are a caller bug under the
    /// determinism contract and are rejected (never silently dropped into a
    /// sort that would panic later).
    ///
    /// # Panics
    ///
    /// When `value` is NaN or infinite.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "quantile sketch samples must be finite");
        self.levels[0].push(value);
        self.count += 1;
        self.compact_from(0);
    }

    /// Merges `other` into `self` (fixed operand order: `self`'s buffers
    /// keep their positions, `other`'s are appended level by level, then
    /// overfull levels compact bottom-up). Call sites must merge shards in
    /// canonical order — the result is a pure function of (self, other),
    /// so scheduler interleaving can never leak in.
    ///
    /// # Panics
    ///
    /// When the two sketches were built with different `k` (their error
    /// guarantees would not compose).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.k, other.k, "cannot merge sketches of different k");
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        for (level, buf) in other.levels.iter().enumerate() {
            self.levels[level].extend_from_slice(buf);
        }
        self.count += other.count;
        self.compact_from(0);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) under weighted nearest-rank semantics:
    /// with no compactions yet (all weights 1) this is exactly
    /// `sorted[ceil(q·n).clamp(1, n) - 1]`, matching the mesh percentile
    /// code. Returns `None` on an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (level, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << level;
            weighted.extend(buf.iter().map(|&v| (v, w)));
        }
        weighted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let mut target = (q * total as f64).ceil() as u64;
        target = target.clamp(1, total);
        let mut cum = 0u64;
        for (v, w) in weighted {
            cum += w;
            if cum >= target {
                return Some(v);
            }
        }
        None
    }

    /// Compacts every overfull level starting at `from`, cascading upward.
    fn compact_from(&mut self, from: usize) {
        let mut level = from;
        while level < self.levels.len() {
            if self.levels[level].len() < self.k {
                level += 1;
                continue;
            }
            if self.levels.len() == level + 1 {
                self.levels.push(Vec::new());
                self.parity.push(false);
            }
            let mut buf = std::mem::take(&mut self.levels[level]);
            buf.sort_unstable_by(f64::total_cmp);
            // Keep an exact half: on odd lengths the leftover item stays at
            // this level so weights remain powers of two.
            let keep_odd = self.parity[level];
            self.parity[level] = !keep_odd;
            let start = usize::from(keep_odd);
            let pairs = buf.len() / 2;
            let promoted: Vec<f64> = (0..pairs).map(|i| buf[2 * i + start]).collect();
            if buf.len() % 2 == 1 {
                // The unpaired maximum stays behind (deterministic choice).
                self.levels[level].push(buf[buf.len() - 1]);
            }
            self.levels[level + 1].extend_from_slice(&promoted);
            level += 1;
        }
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

/// Zero-based index of the nearest-rank `q`-quantile among `n` ordered
/// values (`ceil(q·n).clamp(1, n) - 1`); `None` when `n` is 0. The one
/// copy of the rank formula: the sorted and the selection paths both call it.
fn nearest_rank_index(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1)
}

/// Exact nearest-rank quantile over a full sample set — the reference the
/// sketch is tested against, and the mesh's percentile formula.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank_index(sorted.len(), q).map(|i| sorted[i])
}

/// [`nearest_rank`] of `values` in [`f64::total_cmp`] order without a full
/// sort: one O(n) selection, which reorders `values`. Equal to sorting by
/// `total_cmp` and calling [`nearest_rank`], bit for bit.
pub fn select_nearest_rank(values: &mut [f64], q: f64) -> Option<f64> {
    let i = nearest_rank_index(values.len(), q)?;
    Some(*values.select_nth_unstable_by(i, f64::total_cmp).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        nearest_rank(&sorted, q).expect("non-empty")
    }

    /// Rank of `v` (nearest-rank count of samples ≤ v) in the exact set.
    fn rank_of(values: &[f64], v: f64) -> usize {
        values.iter().filter(|&&x| x <= v).count()
    }

    #[test]
    fn small_streams_are_exact_nearest_rank() {
        for n in 1..64usize {
            let values: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 - 3.0).collect();
            let mut s = QuantileSketch::new();
            for &v in &values {
                s.push(v);
            }
            for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(
                    s.quantile(q).unwrap().to_bits(),
                    exact(&values, q).to_bits(),
                    "n={n} q={q}: uncompacted sketch must be exact nearest-rank"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_reruns_and_clone() {
        let values: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64) % 997) as f64)
            .collect();
        let run = |vals: &[f64]| {
            let mut s = QuantileSketch::with_k(64);
            for &v in vals {
                s.push(v);
            }
            (
                s.quantile(0.5).unwrap().to_bits(),
                s.quantile(0.99).unwrap().to_bits(),
            )
        };
        assert_eq!(run(&values), run(&values));
    }

    #[test]
    fn merge_is_a_pure_function_of_operand_order() {
        let all: Vec<f64> = (0..5_000)
            .map(|i| ((i * 48_271u64) % 4_999) as f64)
            .collect();
        let build = |chunks: &[&[f64]]| {
            let mut merged = QuantileSketch::with_k(64);
            for chunk in chunks {
                let mut shard = QuantileSketch::with_k(64);
                for &v in *chunk {
                    shard.push(v);
                }
                merged.merge(&shard);
            }
            merged
        };
        // Same canonical shards, merged twice: bit-identical quantiles.
        let shards: Vec<&[f64]> = all.chunks(1_250).collect();
        let a = build(&shards);
        let b = build(&shards);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                a.quantile(q).unwrap().to_bits(),
                b.quantile(q).unwrap().to_bits()
            );
        }
        assert_eq!(a.count(), all.len() as u64);
        // And the merged estimate stays within the composed rank bound.
        let err = (a.rank_error_bound() * all.len() as f64).ceil() as i64 + 1;
        for q in [0.5, 0.95, 0.99] {
            let est = a.quantile(q).unwrap();
            let target = ((q * all.len() as f64).ceil() as i64).clamp(1, all.len() as i64);
            let got = rank_of(&all, est) as i64;
            assert!(
                (got - target).abs() <= err,
                "merged q={q}: rank {got} vs target {target} (allowed ±{err})"
            );
        }
    }

    #[test]
    fn retained_memory_is_logarithmic() {
        let mut s = QuantileSketch::with_k(64);
        for i in 0..200_000u64 {
            s.push((i % 1_009) as f64);
        }
        assert_eq!(s.count(), 200_000);
        // ~k per level, ~log2(n/k) levels: far below the stream length.
        assert!(s.retained() < 64 * 16, "retained {} items", s.retained());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        QuantileSketch::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn rejects_mixed_k_merge() {
        let mut a = QuantileSketch::with_k(64);
        let b = QuantileSketch::with_k(128);
        a.merge(&b);
    }

    /// Adversarial input families for the rank-error proptest.
    fn adversarial(seq: u64, n: usize) -> Vec<f64> {
        let base: Vec<f64> = (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64;
                match seq % 4 {
                    0 => i as f64,                                // sorted
                    1 => (n - i) as f64,                          // reversed
                    2 => x * x * x / 1e9 + 1e-3,                  // heavy right tail
                    _ => 5.0 + if i % 97 == 0 { x } else { 0.0 }, // near-constant + spikes
                }
            })
            .collect();
        base
    }

    #[test]
    fn selection_handles_empty_and_single_sets() {
        assert_eq!(select_nearest_rank(&mut [], 0.5), None);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(select_nearest_rank(&mut [7.5], q), Some(7.5));
        }
    }

    proptest! {
        #[test]
        fn selection_equals_sort_then_nearest_rank(
            draws in prop::collection::vec(0u8..6, 1..80), qi in 0usize..4
        ) {
            // Six distinct values over up to 80 draws: ties are the norm.
            let q = [0.0, 0.5, 0.99, 1.0][qi];
            let mut values: Vec<f64> = draws.iter().map(|&d| (f64::from(d) - 2.0) * 0.25).collect();
            let sorted_pick = exact(&values, q);
            let selected = select_nearest_rank(&mut values, q).expect("non-empty");
            prop_assert_eq!(selected.to_bits(), sorted_pick.to_bits());
        }

        #[test]
        fn sketch_quantiles_stay_within_rank_error_of_exact(
            seq in 0u64..16, n in 100usize..4_000, k in 1usize..4
        ) {
            let k = 64 << k; // 128..512
            let values = adversarial(seq, n);
            let mut s = QuantileSketch::with_k(k);
            for &v in &values {
                s.push(v);
            }
            let allowed = (s.rank_error_bound() * n as f64).ceil() as i64 + 1;
            for q in [0.5, 0.95, 0.99] {
                let est = s.quantile(q).unwrap();
                let target = ((q * n as f64).ceil() as i64).clamp(1, n as i64);
                // Count both "≤ est" bounds so ties at the estimate never
                // penalize the sketch: the estimate is admissible when the
                // target rank falls inside its tie band ± the error bound.
                let hi = values.iter().filter(|&&x| x <= est).count() as i64;
                let lo = values.iter().filter(|&&x| x < est).count() as i64 + 1;
                prop_assert!(
                    target >= lo - allowed && target <= hi + allowed,
                    "q={q}: est {est} covers ranks [{lo},{hi}], target {target}, allowed ±{allowed}"
                );
            }
        }
    }
}
