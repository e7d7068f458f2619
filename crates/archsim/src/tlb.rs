//! TLB hierarchy with multiple page sizes.
//!
//! The huge-page knobs (THP, SHP) act entirely through the TLBs: 2 MiB pages
//! collapse hundreds of 4 KiB translations into one entry, cutting ITLB and
//! DTLB MPKI (paper Figs. 11 and 18). The model follows the Intel layout:
//! separate first-level ITLB/DTLB arrays per page size, a unified
//! second-level STLB, and a page walk on a full miss.
//!
//! Each first-level array is fully associative, LRU, and fed by exactly one
//! page stack ([`crate::trace::StackMapper`]), so it is modelled by the
//! depth of that stack it holds ([`DepthLru`]): by LRU inclusion an access
//! hits exactly when its stack distance is within that depth. Only the
//! STLB, which merges four streams, keeps real page ids ([`LruSet`]).

use crate::cache::mix64;
use crate::error::ArchSimError;
use crate::platform::TlbGeometry;
use std::ops::Range;

/// A minimal open-addressing hash table from page keys to slab indices.
///
/// STLB lookups run on every first-level TLB miss (~2 % of translations)
/// and in the pre-fill; `std::collections::HashMap`'s SipHash would
/// dominate their cost. This table uses the splitmix64 finalizer with
/// linear probing and backward-shift deletion (no tombstones), sized to a
/// ≤50% load factor so probe chains stay short. Behaviour is a plain map: no iteration order is
/// exposed, so determinism is structural.
#[derive(Debug, Clone)]
struct ProbeMap {
    keys: Vec<u64>,
    /// Slab index per slot; `EMPTY_SLOT` marks an unoccupied slot (keys in
    /// unoccupied slots are meaningless).
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl ProbeMap {
    fn with_capacity(capacity: usize) -> Self {
        // ≤50% load factor at the caller's maximum residency.
        let table = (capacity.max(1) * 2).next_power_of_two();
        ProbeMap {
            keys: vec![0; table],
            slots: vec![EMPTY_SLOT; table],
            mask: table - 1,
            len: 0,
        }
    }

    #[inline]
    fn hash(&self, key: u64) -> usize {
        // detlint::allow(seed_trunc): table-slot index, not a seed stream;
        // the mask bounds the value below 2^32 so the cast is lossless.
        (mix64(key) & self.mask as u64) as usize
    }

    #[inline]
    fn get(&self, key: u64) -> Option<usize> {
        let mut i = self.hash(key);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            if self.keys[i] == key {
                return Some(slot as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts a new key (the caller guarantees it is absent and that the
    /// table has room: residency is bounded by the LRU capacity).
    fn insert(&mut self, key: u64, value: usize) {
        let mut i = self.hash(key);
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & self.mask;
        }
        self.keys[i] = key;
        self.slots[i] = value as u32;
        self.len += 1;
    }

    /// Removes a key the caller knows is present, back-shifting the probe
    /// chain so lookups never need tombstones.
    fn remove(&mut self, key: u64) {
        let mut i = self.hash(key);
        while self.keys[i] != key || self.slots[i] == EMPTY_SLOT {
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            if self.slots[j] == EMPTY_SLOT {
                break;
            }
            // An entry may fill the hole only if its home slot does not lie
            // strictly after the hole on the cyclic probe path to `j`.
            let home = self.hash(self.keys[j]);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = self.keys[j];
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
    }
}

/// A fully-associative LRU set of page numbers with O(1) access, backed by an
/// intrusive doubly-linked list over a slab.
///
/// # Example
///
/// ```
/// use softsku_archsim::tlb::LruSet;
///
/// let mut tlb = LruSet::new(2).unwrap();
/// assert!(!tlb.access(100));
/// assert!(!tlb.access(200));
/// assert!(tlb.access(100));   // 100 is MRU, 200 LRU
/// assert!(!tlb.access(300));  // evicts 200
/// assert!(!tlb.access(200));
/// ```
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    map: ProbeMap,
    nodes: Vec<Node>,
    head: usize, // MRU
    tail: usize, // LRU
    free: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    prev: usize,
    next: usize,
}

const NONE: usize = usize::MAX;

impl LruSet {
    /// Creates an LRU set holding up to `capacity` entries.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidGeometry`] for zero capacity.
    pub fn new(capacity: usize) -> Result<Self, ArchSimError> {
        if capacity == 0 {
            return Err(ArchSimError::InvalidGeometry(
                "LRU set capacity must be nonzero".to_string(),
            ));
        }
        Ok(LruSet {
            capacity,
            map: ProbeMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
        })
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.len == 0
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Touches `key`: returns `true` if it was resident (and refreshes it),
    /// otherwise inserts it (evicting the LRU entry if full) and returns
    /// `false`.
    pub fn access(&mut self, key: u64) -> bool {
        if let Some(idx) = self.map.get(key) {
            self.detach(idx);
            self.attach_front(idx);
            return true;
        }
        if self.map.len == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NONE);
            let old_key = self.nodes[lru].key;
            self.detach(lru);
            self.map.remove(old_key);
            self.free.push(lru);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                prev: NONE,
                next: NONE,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                prev: NONE,
                next: NONE,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        false
    }

    /// Drops approximately `fraction` of entries, LRU-first (context-switch
    /// shootdown pollution).
    pub fn flush_fraction(&mut self, fraction: f64) {
        for _ in 0..flushed(self.map.len, fraction) {
            let lru = self.tail;
            if lru == NONE {
                break;
            }
            let key = self.nodes[lru].key;
            self.detach(lru);
            self.map.remove(key);
            self.free.push(lru);
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NONE {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NONE {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NONE;
        self.nodes[idx].next = NONE;
    }

    fn attach_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NONE;
        self.nodes[idx].next = self.head;
        if self.head != NONE {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }
}

/// A fully-associative LRU array fed by one stack-distance stream,
/// modelled by how deep into that stream's LRU stack it holds.
///
/// By LRU inclusion (Mattson et al., 1970), such an array holds exactly the
/// `held` most recent distinct ids of its stream: it starts holding the top
/// of the stack (or nothing), a hit moves an id it holds to the front of
/// both, a miss brings the new front id in and evicts the deepest held one
/// once full, and a flush drops the deepest. So an access hits iff its
/// 1-based stack distance (`rank`) is at most `held`, and nothing but
/// `held` needs storing. An access that touches a new id — a cold one, or
/// one deeper than the stream's live history — has rank
/// [`NEW_RANK`](crate::trace::NEW_RANK) and misses: an array is smaller
/// than that rank.
///
/// # Example
///
/// ```
/// use softsku_archsim::tlb::DepthLru;
///
/// let mut tlb = DepthLru::new(2).unwrap();
/// assert!(!tlb.access(u32::MAX)); // a cold id: now holds 1
/// assert!(!tlb.access(u32::MAX)); // another: holds 2
/// assert!(tlb.access(2));         // the older id is at distance 2
/// assert!(!tlb.access(3));        // a third is deeper than the array
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthLru {
    entries: u32,
    held: u32,
}

impl DepthLru {
    /// An empty array of `entries` entries.
    ///
    /// # Errors
    ///
    /// As [`DepthLru::prefilled`].
    pub fn new(entries: u32) -> Result<Self, ArchSimError> {
        Self::prefilled(entries, 0)
    }

    /// An array of `entries` entries that has just been fed the `ids` most
    /// recent distinct ids of its stream, deepest first: it holds
    /// `min(entries, ids)` of them.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidGeometry`] for zero entries, or for
    /// `u32::MAX`, which would hold [`NEW_RANK`](crate::trace::NEW_RANK).
    pub fn prefilled(entries: u32, ids: u64) -> Result<Self, ArchSimError> {
        if entries == 0 || entries == crate::trace::NEW_RANK {
            return Err(ArchSimError::InvalidGeometry(format!(
                "TLB array entries must be in 1..{}, got {entries}",
                crate::trace::NEW_RANK
            )));
        }
        let held = u32::try_from(ids).unwrap_or(u32::MAX).min(entries);
        Ok(DepthLru { entries, held })
    }

    /// Number of resident entries: the stack depth held.
    pub fn held(&self) -> u32 {
        self.held
    }

    /// One access at stack distance `rank`: `true` on a hit; a miss brings
    /// the accessed id in.
    #[inline]
    pub fn access(&mut self, rank: u32) -> bool {
        if rank <= self.held {
            true
        } else {
            self.held = (self.held + 1).min(self.entries);
            false
        }
    }

    /// Drops `fraction` of the held entries, deepest first, rounded as
    /// [`LruSet::flush_fraction`] rounds.
    pub fn flush_fraction(&mut self, fraction: f64) {
        self.held -= flushed(self.held as usize, fraction) as u32;
    }
}

/// How many of `len` entries a `fraction` flush drops.
fn flushed(len: usize, fraction: f64) -> usize {
    ((len as f64) * fraction.clamp(0.0, 1.0)).round() as usize
}

/// Where a translation was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbOutcome {
    /// First-level TLB hit (free).
    L1Hit,
    /// Second-level (STLB) hit — small penalty.
    StlbHit,
    /// Full miss — hardware page walk.
    Walk,
}

/// One first-level TLB pair (4 KiB + 2 MiB arrays) plus a shared STLB
/// reference is modelled by [`TlbHierarchy`]; this struct is one side
/// (instruction or data). Each array is fed by its own page stack, so it is
/// a [`DepthLru`] probed with stack distances.
#[derive(Debug, Clone)]
struct FirstLevelTlb {
    small: DepthLru,
    huge: DepthLru,
}

impl FirstLevelTlb {
    /// The side with its 4 KiB array fed the `small_ids` most recent ids of
    /// its stream and its 2 MiB array empty.
    fn new(geom: &TlbGeometry, small_ids: u64) -> Result<Self, ArchSimError> {
        Ok(FirstLevelTlb {
            small: DepthLru::prefilled(geom.entries_4k, small_ids)?,
            huge: DepthLru::new(geom.entries_2m)?,
        })
    }

    fn access(&mut self, rank: u32, hugepage: bool) -> bool {
        if hugepage {
            self.huge.access(rank)
        } else {
            self.small.access(rank)
        }
    }

    fn flush_fraction(&mut self, fraction: f64) {
        self.small.flush_fraction(fraction);
        self.huge.flush_fraction(fraction);
    }
}

/// Instruction + data TLBs with a unified STLB.
///
/// First-level probes take the access's stack distance in its page stream
/// (see [`DepthLru`]); STLB probes take page numbers: 4 KiB-granular ids,
/// with huge-page translations looked up under the id of the containing
/// 2 MiB region (computed by the caller via the workload's compaction
/// factor).
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    itlb: FirstLevelTlb,
    dtlb: FirstLevelTlb,
    stlb: LruSet,
    /// Statistics.
    itlb_accesses: u64,
    itlb_misses: u64,
    itlb_walks: u64,
    dtlb_accesses: u64,
    dtlb_misses: u64,
    dtlb_walks: u64,
}

impl TlbHierarchy {
    /// Builds the hierarchy from platform geometries as if the 4 KiB pages `code` and then `data`
    /// had been translated, each in ascending order, and zeroes the
    /// statistics. Each range must be the top of its page stack — its most
    /// recent ids, the most recent last — so that the first-level arrays
    /// hold stack depths. Every id is distinct and the arrays start empty,
    /// so each one misses the first level and goes into the STLB, in that
    /// order; the 2 MiB arrays stay empty. Empty ranges give an empty
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidGeometry`] for zero-sized (or, in the first
    /// level, `u32::MAX`-entry) arrays.
    pub fn prefilled(
        itlb: &TlbGeometry,
        dtlb: &TlbGeometry,
        stlb_entries: u32,
        code: Range<u64>,
        data: Range<u64>,
    ) -> Result<Self, ArchSimError> {
        let itlb = FirstLevelTlb::new(itlb, code.end.saturating_sub(code.start))?;
        let dtlb = FirstLevelTlb::new(dtlb, data.end.saturating_sub(data.start))?;
        let mut stlb = LruSet::new(stlb_entries as usize)?;
        for id in code {
            stlb.access(stlb_key(id, false, true));
        }
        for id in data {
            stlb.access(stlb_key(id, false, false));
        }
        Ok(TlbHierarchy {
            itlb,
            dtlb,
            stlb,
            itlb_accesses: 0,
            itlb_misses: 0,
            itlb_walks: 0,
            dtlb_accesses: 0,
            dtlb_misses: 0,
            dtlb_walks: 0,
        })
    }

    /// First-level instruction probe at stack distance `rank` in the code
    /// page stream `hugepage` picks; returns `true` on an ITLB hit.
    ///
    /// The batched engine drives the independent first-level arrays over a
    /// whole event batch, then replays only the misses against the shared
    /// STLB in event order (interleaved with the data side) via
    /// [`TlbHierarchy::probe_stlb_code`].
    pub fn probe_code_l1(&mut self, rank: u32, hugepage: bool) -> bool {
        self.itlb_accesses += 1;
        if self.itlb.access(rank, hugepage) {
            true
        } else {
            self.itlb_misses += 1;
            false
        }
    }

    /// First-level data probe at stack distance `rank` in the data page
    /// stream `hugepage` picks; returns `true` on a DTLB hit.
    pub fn probe_data_l1(&mut self, rank: u32, hugepage: bool) -> bool {
        self.dtlb_accesses += 1;
        if self.dtlb.access(rank, hugepage) {
            true
        } else {
            self.dtlb_misses += 1;
            false
        }
    }

    /// STLB lookup for an instruction translation of `page` that missed the
    /// ITLB.
    pub fn probe_stlb_code(&mut self, page: u64, hugepage: bool) -> TlbOutcome {
        if self.stlb.access(stlb_key(page, hugepage, true)) {
            TlbOutcome::StlbHit
        } else {
            self.itlb_walks += 1;
            TlbOutcome::Walk
        }
    }

    /// STLB lookup for a data translation of `page` that missed the DTLB.
    pub fn probe_stlb_data(&mut self, page: u64, hugepage: bool) -> TlbOutcome {
        if self.stlb.access(stlb_key(page, hugepage, false)) {
            TlbOutcome::StlbHit
        } else {
            self.dtlb_walks += 1;
            TlbOutcome::Walk
        }
    }

    /// Context-switch pollution across all arrays.
    pub fn flush_fraction(&mut self, fraction: f64) {
        self.itlb.flush_fraction(fraction);
        self.dtlb.flush_fraction(fraction);
        self.stlb.flush_fraction(fraction);
    }

    /// (accesses, first-level misses, walks) for the instruction side.
    pub fn itlb_stats(&self) -> (u64, u64, u64) {
        (self.itlb_accesses, self.itlb_misses, self.itlb_walks)
    }

    /// (accesses, first-level misses, walks) for the data side.
    pub fn dtlb_stats(&self) -> (u64, u64, u64) {
        (self.dtlb_accesses, self.dtlb_misses, self.dtlb_walks)
    }

    /// Clears statistics (contents retained), for warm-up discard.
    pub fn reset_stats(&mut self) {
        self.itlb_accesses = 0;
        self.itlb_misses = 0;
        self.itlb_walks = 0;
        self.dtlb_accesses = 0;
        self.dtlb_misses = 0;
        self.dtlb_walks = 0;
    }
}

fn stlb_key(page: u64, hugepage: bool, code: bool) -> u64 {
    (page << 2) | ((hugepage as u64) << 1) | code as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;

    fn hierarchy() -> TlbHierarchy {
        let spec = PlatformSpec::skylake18();
        TlbHierarchy::prefilled(&spec.itlb, &spec.dtlb, spec.stlb_entries, 0..0, 0..0).unwrap()
    }

    #[test]
    fn lru_set_capacity_and_eviction() {
        let mut s = LruSet::new(4).unwrap();
        for k in 0..8u64 {
            assert!(!s.access(k));
        }
        assert_eq!(s.len(), 4);
        // 4..8 resident, 0..4 evicted.
        for k in 4..8u64 {
            assert!(s.access(k));
        }
        for k in 0..4u64 {
            assert!(!s.access(k));
        }
    }

    #[test]
    fn lru_set_matches_reference_model() {
        let mut s = LruSet::new(16).unwrap();
        let mut model: Vec<u64> = Vec::new(); // front = MRU
        let mut state = 7u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 40) % 40;
            let hit_model = if let Some(pos) = model.iter().position(|&k| k == key) {
                model.remove(pos);
                model.insert(0, key);
                true
            } else {
                if model.len() == 16 {
                    model.pop();
                }
                model.insert(0, key);
                false
            };
            assert_eq!(s.access(key), hit_model, "divergence on key {key}");
        }
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(LruSet::new(0).is_err());
    }

    /// Stack distances of `pages` in one page stream, as a page mapper
    /// records them: 1-based, `u32::MAX` for a page not seen before.
    fn ranks(pages: impl IntoIterator<Item = u64>) -> Vec<u32> {
        let mut stack: Vec<u64> = Vec::new(); // front = most recent
        pages
            .into_iter()
            .map(|page| {
                let rank = match stack.iter().position(|&p| p == page) {
                    Some(pos) => {
                        stack.remove(pos);
                        pos as u32 + 1
                    }
                    None => u32::MAX,
                };
                stack.insert(0, page);
                rank
            })
            .collect()
    }

    /// A full data translation: the first level, then the STLB on a miss.
    fn access_data(tlb: &mut TlbHierarchy, rank: u32, page: u64, hugepage: bool) {
        if !tlb.probe_data_l1(rank, hugepage) {
            let _ = tlb.probe_stlb_data(page, hugepage);
        }
    }

    /// Translates `pages`, one data stream, through `tlb`.
    fn access_data_stream(tlb: &mut TlbHierarchy, pages: &[u64], hugepage: bool) {
        for (&page, rank) in pages.iter().zip(ranks(pages.iter().copied())) {
            access_data(tlb, rank, page, hugepage);
        }
    }

    #[test]
    fn depth_lru_matches_lru_set() {
        let mut depth = DepthLru::new(16).unwrap();
        let mut set = LruSet::new(16).unwrap();
        let mut state = 7u64;
        let keys: Vec<u64> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) % 40
            })
            .collect();
        for (i, (&key, rank)) in keys.iter().zip(ranks(keys.iter().copied())).enumerate() {
            if i % 700 == 699 {
                depth.flush_fraction(0.3);
                set.flush_fraction(0.3);
            }
            assert_eq!(
                depth.access(rank),
                set.access(key),
                "divergence on key {key}"
            );
            assert_eq!(depth.held() as usize, set.len());
        }
    }

    #[test]
    fn depth_lru_rejects_degenerate_entries() {
        assert!(DepthLru::new(0).is_err());
        assert!(DepthLru::new(u32::MAX).is_err());
        assert_eq!(DepthLru::prefilled(64, 1 << 40).unwrap().held(), 64);
    }

    #[test]
    fn small_pages_thrash_huge_pages_do_not() {
        let mut tlb = hierarchy();
        // Working set of 512 distinct 4 KiB data pages > 64-entry DTLB.
        let sweep: Vec<u64> = (0..4).flat_map(|_| 0..512u64).collect();
        access_data_stream(&mut tlb, &sweep, false);
        let (_, misses_small, _) = tlb.dtlb_stats();
        assert!(misses_small > 500, "4K pages must thrash: {misses_small}");

        // Same footprint as 2 MiB pages: 512 pages / 512 ≈ 1–2 huge pages.
        let mut tlb2 = hierarchy();
        let huge: Vec<u64> = sweep.iter().map(|p| p / 512).collect();
        access_data_stream(&mut tlb2, &huge, true);
        let (_, misses_huge, _) = tlb2.dtlb_stats();
        assert!(
            misses_huge < 10,
            "huge pages must not thrash: {misses_huge}"
        );
    }

    #[test]
    fn stlb_catches_first_level_misses() {
        let mut tlb = hierarchy();
        // 256 pages: miss the 64-entry DTLB but fit the 1536-entry STLB.
        let sweep: Vec<u64> = (0..4).flat_map(|_| 0..256u64).collect();
        access_data_stream(&mut tlb, &sweep, false);
        let (_, misses, walks) = tlb.dtlb_stats();
        assert!(misses > 256);
        // After the first cold pass, walks should stop.
        assert!(
            (walks as f64) < (misses as f64) * 0.5,
            "STLB should absorb most repeat misses: {walks} walks vs {misses} misses"
        );
    }

    #[test]
    fn code_and_data_sides_are_independent_at_l1() {
        let mut tlb = hierarchy();
        for (p, rank) in (0..32u64).zip(ranks(0..32u64)) {
            if !tlb.probe_code_l1(rank, false) {
                let _ = tlb.probe_stlb_code(p, false);
            }
        }
        let (ia, im, _) = tlb.itlb_stats();
        let (da, _, _) = tlb.dtlb_stats();
        assert_eq!(ia, 32);
        assert_eq!(im, 32);
        assert_eq!(da, 0);
    }

    #[test]
    fn flush_injects_misses() {
        let mut tlb = hierarchy();
        let twice: Vec<u64> = (0..2).flat_map(|_| 0..32u64).collect();
        let (first, second) = twice.split_at(32);
        let rank = ranks(twice.iter().copied());
        for (&p, &r) in first.iter().zip(&rank) {
            access_data(&mut tlb, r, p, false);
        }
        tlb.reset_stats();
        tlb.flush_fraction(1.0);
        for (&p, &r) in second.iter().zip(&rank[32..]) {
            access_data(&mut tlb, r, p, false);
        }
        let (_, misses, _) = tlb.dtlb_stats();
        assert_eq!(misses, 32);
    }

    #[test]
    fn prefill_holds_the_stack_top_and_seeds_the_stlb() {
        let spec = PlatformSpec::skylake18();
        let mut tlb =
            TlbHierarchy::prefilled(&spec.itlb, &spec.dtlb, spec.stlb_entries, 0..100, 0..10)
                .unwrap();
        // The 128-entry ITLB holds all 100 seeded ids, the DTLB all 10.
        assert!(tlb.probe_code_l1(100, false));
        assert!(!tlb.probe_code_l1(101, false));
        assert!(tlb.probe_data_l1(10, false));
        assert!(!tlb.probe_data_l1(11, false));
        assert!(!tlb.probe_data_l1(1, true), "2 MiB arrays start empty");
        // Every seeded id is in the STLB under its side's key.
        assert_eq!(tlb.probe_stlb_code(0, false), TlbOutcome::StlbHit);
        assert_eq!(tlb.probe_stlb_data(9, false), TlbOutcome::StlbHit);
        assert_eq!(tlb.probe_stlb_data(10, false), TlbOutcome::Walk);
        assert_eq!(tlb.itlb_stats(), (2, 1, 0));
        assert_eq!(tlb.dtlb_stats(), (3, 2, 1));
    }
}
