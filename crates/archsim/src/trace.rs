//! Synthetic trace generation from reuse-distance distributions.
//!
//! [`StackMapper`] maintains a true LRU stack (a rank-addressed
//! [`RankList`]) over every line/page a workload has touched; each access
//! samples a reuse distance from the workload's distribution and performs a
//! move-to-front at that rank, yielding a concrete id whose stream
//! reproduces the distribution. [`TraceGenerator`] composes six mappers
//! (code lines, data lines, and a 4 KiB + 2 MiB pair for each of the code
//! and data page streams) with the instruction mix to emit per-instruction
//! events for the cache/TLB/branch simulators —
//! one at a time via [`TraceGenerator::next_event`], or into reusable
//! structure-of-arrays buffers via [`TraceGenerator::fill_batch`] for the
//! engine's batched tick. A batch is filled column-wise: one loop decodes
//! the chunk's RNG draws in per-event order into per-mapper columns, then
//! each mapper samples its column's distances and applies them. The
//! generator splits into a code half, which owns the RNG, and a data half,
//! so the engine can run them on two threads. Across that split runs a
//! second seam, between lines and pages: a generator can map only its
//! line half or only its page half (`Halves`), and the engine's pass keys
//! cover everything each half reads, so the engine can key either half of
//! a window's trace without generating it. Page mappers also record each
//! access's stack distance, which is all a first-level TLB probe reads
//! ([`crate::tlb::DepthLru`]).

use crate::ranklist::RankList;
use crate::reuse::{ReuseDistanceDist, MISS};
use crate::stream::StreamSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maps sampled reuse distances to concrete line/page ids via an LRU stack.
#[derive(Debug, Clone)]
pub struct StackMapper {
    stack: RankList,
    dist: ReuseDistanceDist,
    next_id: u64,
}

/// The distance [`StackMapper::sample_column`] records for a cold access.
/// Sampled distances are at least 1, so 0 is free; the inversion table
/// stores cold cells as 0 too.
pub const COLD: u64 = 0;

/// The rank [`StackMapper::map_column_ranked`] records for an access that
/// touches a new id: a cold draw, or a distance beyond the live history.
/// It is deeper than any array a stream feeds, so it always misses.
pub const NEW_RANK: u32 = u32::MAX;

/// Pre-warm ceiling: stacks larger than this start truncated; sampled
/// distances beyond the live stack are treated as cold (they would miss
/// every structure of interest anyway).
const PREWARM_CAP: u64 = 1 << 20;

/// Number of ids a mapper for `dist` starts with (its steady-state stack),
/// and therefore the id range `[prewarm_len - k, prewarm_len)` that holds
/// the `k` most-recently-used ids at construction time. The engine uses
/// this to pre-fill caches/TLBs with steady-state contents.
pub fn prewarm_len(dist: &ReuseDistanceDist) -> u64 {
    dist.footprint().min(PREWARM_CAP)
}

impl StackMapper {
    /// Creates a mapper for one reuse-distance distribution. Sampling
    /// randomness is supplied per access and the stack is deterministic,
    /// so the mapper takes no seed.
    ///
    /// The stack is pre-warmed to the distribution's footprint (capped at
    /// `PREWARM_CAP`, ~1M ids) so that long reuse distances resolve to real
    /// "old" ids from the first access instead of being clamped into a
    /// short history — without this, short measurement windows would
    /// systematically under-report large-capacity misses. The pre-warmed
    /// ids are an implicit descending run ([`RankList::descending`]), so
    /// construction costs O(footprint / 64) rather than an O(footprint) fill.
    pub fn new(dist: ReuseDistanceDist) -> Self {
        let prewarm = prewarm_len(&dist);
        // Front of the stack = most recently used; ids descend so that the
        // next cold id continues the sequence.
        StackMapper {
            stack: RankList::descending(prewarm),
            dist,
            next_id: prewarm,
        }
    }

    /// Performs one access: samples a distance, returns the touched id.
    pub fn access<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.touch(self.dist.sample(rng).unwrap_or(COLD))
    }

    /// Resolves each survival draw to its reuse distance, in order, into
    /// `distances` ([`COLD`] for a cold access). The first phase of
    /// [`StackMapper::map_column`]: most draws are one read of the
    /// distribution's inversion table, whose cold value is [`COLD`]; the
    /// rest take the exact inversion, and each is independent of the others,
    /// so their `ln`/`exp` calls overlap.
    pub fn sample_column(&self, draws: &[f64], distances: &mut Vec<u64>) {
        let table = self.dist.inversion_table();
        distances.clear();
        distances.extend(draws.iter().map(|&u| match table.lookup(u) {
            MISS => self.dist.distance_at_survival(u).unwrap_or(COLD),
            d => u64::from(d),
        }));
    }

    /// Moves each distance's id to the front of the stack, in order,
    /// replacing the distance with the touched id. The second phase of
    /// [`StackMapper::map_column`].
    pub fn touch_column(&mut self, column: &mut [u64]) {
        for slot in column {
            *slot = self.touch(*slot);
        }
    }

    /// Maps a column of survival draws to touched ids: bit-identical to
    /// one [`StackMapper::access`] per draw whose RNG yielded those draws,
    /// since a distance depends only on its draw and the stack only on the
    /// distance sequence.
    pub fn map_column(&mut self, draws: &[f64], ids: &mut Vec<u64>) {
        self.sample_column(draws, ids);
        self.touch_column(ids);
    }

    /// [`StackMapper::map_column`] that also records, into `ranks`, each
    /// access's 1-based stack distance before its move-to-front: the
    /// sampled distance when it names a live id, and [`NEW_RANK`] when the
    /// access touches a new id.
    pub fn map_column_ranked(&mut self, draws: &[f64], ids: &mut Vec<u64>, ranks: &mut Vec<u32>) {
        self.sample_column(draws, ids);
        self.touch_column_ranked(ids, ranks);
    }

    /// [`StackMapper::touch_column`] that also records each access's rank
    /// into `ranks`. The second phase of [`StackMapper::map_column_ranked`].
    pub fn touch_column_ranked(&mut self, column: &mut [u64], ranks: &mut Vec<u32>) {
        ranks.clear();
        ranks.extend(column.iter_mut().map(|slot| {
            let distance = *slot;
            let live = distance != COLD && distance as usize <= self.stack.len();
            *slot = self.touch(distance);
            if live {
                u32::try_from(distance).unwrap_or(NEW_RANK)
            } else {
                NEW_RANK
            }
        }));
    }

    /// Touches the id at reuse distance `distance`, or a new id for
    /// [`COLD`], and returns it.
    fn touch(&mut self, distance: u64) -> u64 {
        let len = self.stack.len();
        // Distance d means "d-th most recently used distinct id", with
        // d = 1 the most recent. A distance beyond the live history refers
        // to an id we no longer track — equivalent to a cold access for
        // every downstream structure.
        if distance == COLD || distance as usize > len {
            return self.touch_new();
        }
        let id = self
            .stack
            .remove_at((distance - 1) as usize)
            .expect("rank < len by construction");
        self.stack.push_front(id);
        id
    }

    fn touch_new(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push_front(id);
        // Bound the stack by the declared footprint: the LRU tail "dies".
        if self.stack.len() as u64 > self.dist.footprint() {
            self.stack.pop_back();
        }
        id
    }

    /// Number of distinct ids currently live.
    pub fn live_ids(&self) -> usize {
        self.stack.len()
    }

    /// Total distinct ids ever created.
    pub fn total_ids(&self) -> u64 {
        self.next_id
    }
}

/// The instruction class sampled from the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsnClass {
    /// Conditional or indirect branch.
    Branch,
    /// Floating-point operation.
    Fp,
    /// Integer ALU operation.
    Arith,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
}

/// One synthetic instruction event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsnEvent {
    /// Instruction class.
    pub class: InsnClass,
    /// Code cache line touched by the fetch.
    pub code_line: u64,
    /// Code page touched by the fetch (4 KiB- or 2 MiB-granular id).
    pub code_page: PageAccess,
    /// Data line/page for loads and stores.
    pub data: Option<DataAccess>,
}

/// One page translation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageAccess {
    /// Page id (granularity given by `is_huge`).
    pub page: u64,
    /// True when the page is 2 MiB-backed.
    pub is_huge: bool,
}

/// A data-side access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataAccess {
    /// True for stores.
    pub is_store: bool,
    /// Data cache line id.
    pub line: u64,
    /// Data page access.
    pub page: PageAccess,
}

/// Huge-page coverage fractions resolved by the page policy; the generator
/// routes each translation to the 4 KiB or 2 MiB page stream accordingly.
///
/// Huge-page streams sample from the *compacted* page distribution: when a
/// workload's 4 KiB pages pack into 2 MiB pages with density `c`, page-level
/// reuse distances shrink by `c`. Deriving huge ids arithmetically from the
/// 4 KiB id stream would be wrong — the LRU stack shuffles ids over time,
/// destroying the spatial adjacency that huge pages exploit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HugePageMix {
    /// Fraction of code translations that are 2 MiB-backed.
    pub code_huge_fraction: f64,
    /// Fraction of data translations that are 2 MiB-backed.
    pub data_huge_fraction: f64,
}

/// A batch of instruction events in structure-of-arrays layout.
///
/// The per-event arrays (`classes`, `code_lines`, `code_pages`,
/// `code_huge`) are indexed by position in the batch. The data-side arrays
/// are *compacted*: only loads and stores contribute a slot, in event
/// order, with `data_event[k]` giving the owning event index. The engine
/// drives each simulated structure over a whole batch (one array sweep per
/// structure) instead of interleaving six structure probes per event, and
/// counts each chunk's classes from its slices instead of per-event `match`
/// dispatch. Buffers are reused across [`TraceGenerator::fill_batch`]
/// calls, so steady-state filling does not allocate. Private columns carry
/// the data side's decoded survival draws from the generator's code half
/// to its data half, which may run on another thread.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    /// Instruction class per event.
    pub classes: Vec<InsnClass>,
    /// Code cache line per event.
    pub code_lines: Vec<u64>,
    /// Code page id per event (granularity per `code_huge`).
    pub code_pages: Vec<u64>,
    /// Stack distance of each code page in its page stream
    /// ([`StackMapper::map_column_ranked`]).
    pub code_page_ranks: Vec<u32>,
    /// True where the code page is 2 MiB-backed.
    pub code_huge: Vec<bool>,
    /// Owning event index for each data access (loads/stores, event order).
    pub data_event: Vec<u32>,
    /// True for stores.
    pub data_is_store: Vec<bool>,
    /// Data cache line per data access.
    pub data_lines: Vec<u64>,
    /// Data page id per data access.
    pub data_pages: Vec<u64>,
    /// Stack distance of each data page in its page stream.
    pub data_page_ranks: Vec<u32>,
    /// True where the data page is 2 MiB-backed.
    pub data_huge: Vec<bool>,
    /// Data-line survival draws, one per data access, decoded by the code
    /// half for the data half.
    data_line_draws: Vec<f64>,
    /// Data-page survival draws, routed by `data_huge`.
    data_page_draws: PageDraws,
}

impl EventBatch {
    /// Creates a batch with buffers sized for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventBatch {
            classes: Vec::with_capacity(n),
            code_lines: Vec::with_capacity(n),
            code_pages: Vec::with_capacity(n),
            code_page_ranks: Vec::with_capacity(n),
            code_huge: Vec::with_capacity(n),
            data_event: Vec::with_capacity(n),
            data_is_store: Vec::with_capacity(n),
            data_lines: Vec::with_capacity(n),
            data_pages: Vec::with_capacity(n),
            data_page_ranks: Vec::with_capacity(n),
            data_huge: Vec::with_capacity(n),
            data_line_draws: Vec::with_capacity(n),
            data_page_draws: PageDraws::with_capacity(n),
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The batch's `[branches, fp_ops, loads, stores]`, counted from its
    /// slices.
    pub(crate) fn tallies(&self) -> [u64; 4] {
        let count = |class| self.classes.iter().filter(|&&c| c == class).count() as u64;
        let stores = self.data_is_store.iter().filter(|&&s| s).count() as u64;
        [
            count(InsnClass::Branch),
            count(InsnClass::Fp),
            self.data_is_store.len() as u64 - stores,
            stores,
        ]
    }

    /// Empties the batch, retaining buffer capacity.
    pub fn clear(&mut self) {
        self.classes.clear();
        self.code_lines.clear();
        self.code_pages.clear();
        self.code_page_ranks.clear();
        self.code_huge.clear();
        self.data_event.clear();
        self.data_is_store.clear();
        self.data_lines.clear();
        self.data_pages.clear();
        self.data_page_ranks.clear();
        self.data_huge.clear();
        self.data_line_draws.clear();
        self.data_page_draws.clear();
    }
}

/// The two halves of a generator's output, split at the line/page seam:
/// the line half (code and data lines) and the page half (code and data
/// pages, with their huge-page coins). The RNG sequence, the classes and
/// the data slots do not depend on which halves are mapped, so a generator
/// that maps only one half fills that half's columns exactly as a full
/// generator does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Halves {
    /// Map code and data lines.
    pub(crate) lines: bool,
    /// Map code and data pages.
    pub(crate) pages: bool,
}

impl Halves {
    /// Both halves: a full generator.
    pub(crate) const BOTH: Halves = Halves {
        lines: true,
        pages: true,
    };
}

/// One translation stream's pair of page mappers: 4 KiB pages and their
/// compacted 2 MiB counterparts, routed per access by the huge-page coin.
#[derive(Debug, Clone)]
struct PageMappers {
    small: StackMapper,
    huge: StackMapper,
    // Id and rank columns reused across chunks.
    small_ids: Vec<u64>,
    huge_ids: Vec<u64>,
    small_ranks: Vec<u32>,
    huge_ranks: Vec<u32>,
}

impl PageMappers {
    fn new(dist: &ReuseDistanceDist, compaction: f64) -> Self {
        PageMappers {
            small: StackMapper::new(dist.clone()),
            huge: StackMapper::new(dist.compacted(compaction.max(1.0))),
            small_ids: Vec::new(),
            huge_ids: Vec::new(),
            small_ranks: Vec::new(),
            huge_ranks: Vec::new(),
        }
    }

    /// One access on the mapper the coin `huge` picks.
    fn access<R: Rng + ?Sized>(&mut self, huge: bool, rng: &mut R) -> u64 {
        if huge {
            self.huge.access(rng)
        } else {
            self.small.access(rng)
        }
    }

    /// Maps a chunk's page draws, each already routed to its mapper's
    /// column, and writes the ids into `pages` and their stack distances
    /// into `ranks` in access order: access `k` takes the next id and rank
    /// of the mapper `flags[k]` picks.
    fn map(
        &mut self,
        flags: &[bool],
        draws: &PageDraws,
        pages: &mut Vec<u64>,
        ranks: &mut Vec<u32>,
    ) {
        self.small
            .map_column_ranked(&draws.small, &mut self.small_ids, &mut self.small_ranks);
        self.huge
            .map_column_ranked(&draws.huge, &mut self.huge_ids, &mut self.huge_ranks);
        let mut small = self.small_ids.iter().zip(&self.small_ranks);
        let mut huge = self.huge_ids.iter().zip(&self.huge_ranks);
        pages.clear();
        ranks.clear();
        for &h in flags {
            let next = if h { huge.next() } else { small.next() };
            let (&id, &rank) = next.expect("one routed draw per page access");
            pages.push(id);
            ranks.push(rank);
        }
    }
}

/// A chunk's page survival draws, split by the huge-page coin into the
/// columns of the two mappers that consume them.
#[derive(Debug, Clone, Default)]
struct PageDraws {
    small: Vec<f64>,
    huge: Vec<f64>,
}

impl PageDraws {
    fn with_capacity(n: usize) -> Self {
        PageDraws {
            small: Vec::with_capacity(n),
            huge: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, huge: bool, draw: f64) {
        if huge {
            self.huge.push(draw);
        } else {
            self.small.push(draw);
        }
    }

    fn clear(&mut self) {
        self.small.clear();
        self.huge.clear();
    }
}

/// The half of a [`TraceGenerator`] that owns its RNG: the mix thresholds,
/// the huge-page mix, and the code-line and code-page mappers. It consumes
/// every draw of a chunk in per-event order, maps the code side, and leaves
/// the data side's draws decoded in the batch for [`DataHalf`]. A mapper is
/// `None` when its [`Halves`] half is not mapped.
#[derive(Debug, Clone)]
pub(crate) struct CodeHalf {
    rng: SmallRng,
    // Cumulative mix thresholds, ordered branch/fp/arith/load/store.
    thresholds: [f64; 4],
    huge: HugePageMix,
    lines: Option<StackMapper>,
    pages: Option<PageMappers>,
    // Decoded draw columns reused across chunks.
    line_draws: Vec<f64>,
    page_draws: PageDraws,
}

/// The half of a [`TraceGenerator`] that maps data accesses: the data-line
/// and data-page mappers. It draws nothing itself; it maps the draws
/// [`CodeHalf::fill`] decoded into the batch. As in [`CodeHalf`], a mapper
/// is `None` when its half is not mapped.
#[derive(Debug, Clone)]
pub(crate) struct DataHalf {
    lines: Option<StackMapper>,
    pages: Option<PageMappers>,
}

impl CodeHalf {
    /// Draws the next event's class from the mix.
    fn next_class(&mut self) -> InsnClass {
        let u: f64 = self.rng.gen();
        if u < self.thresholds[0] {
            InsnClass::Branch
        } else if u < self.thresholds[1] {
            InsnClass::Fp
        } else if u < self.thresholds[2] {
            InsnClass::Arith
        } else if u < self.thresholds[3] {
            InsnClass::Load
        } else {
            InsnClass::Store
        }
    }

    /// Fills `batch` with the code side of the next `n` events and the
    /// data side's decoded draws, reusing its buffers.
    ///
    /// Each `gen::<f64>()` is one RNG step, and an event's class and coins
    /// fix how many steps it takes, so one decode loop consumes the draws
    /// in per-event order (class, code line, code-huge coin, code page,
    /// then for loads/stores data-huge coin, data page, data line) and
    /// routes each survival draw to its mapper's column. The mappers then
    /// run over their columns. An unmapped half still takes its draws' RNG
    /// steps but stores none of them, and leaves its columns empty.
    pub(crate) fn fill(&mut self, batch: &mut EventBatch, n: usize) {
        batch.clear();
        self.line_draws.clear();
        self.page_draws.clear();
        let (lines, pages) = (self.lines.is_some(), self.pages.is_some());
        for i in 0..n {
            let class = self.next_class();
            batch.classes.push(class);
            let line_draw = self.rng.gen();
            if lines {
                self.line_draws.push(line_draw);
            }
            let code_huge = self.rng.gen::<f64>() < self.huge.code_huge_fraction;
            batch.code_huge.push(code_huge);
            let page_draw = self.rng.gen();
            if pages {
                self.page_draws.push(code_huge, page_draw);
            }
            if matches!(class, InsnClass::Load | InsnClass::Store) {
                let data_huge = self.rng.gen::<f64>() < self.huge.data_huge_fraction;
                batch.data_event.push(i as u32);
                batch.data_is_store.push(class == InsnClass::Store);
                batch.data_huge.push(data_huge);
                let page_draw = self.rng.gen();
                if pages {
                    batch.data_page_draws.push(data_huge, page_draw);
                }
                let line_draw = self.rng.gen();
                if lines {
                    batch.data_line_draws.push(line_draw);
                }
            }
        }
        if let Some(lines) = &mut self.lines {
            lines.map_column(&self.line_draws, &mut batch.code_lines);
        }
        if let Some(pages) = &mut self.pages {
            pages.map(
                &batch.code_huge,
                &self.page_draws,
                &mut batch.code_pages,
                &mut batch.code_page_ranks,
            );
        }
    }
}

impl DataHalf {
    /// Maps the data-side draws [`CodeHalf::fill`] left in `batch` to data
    /// lines and pages, skipping an unmapped half.
    pub(crate) fn fill(&mut self, batch: &mut EventBatch) {
        if let Some(lines) = &mut self.lines {
            lines.map_column(&batch.data_line_draws, &mut batch.data_lines);
        }
        if let Some(pages) = &mut self.pages {
            pages.map(
                &batch.data_huge,
                &batch.data_page_draws,
                &mut batch.data_pages,
                &mut batch.data_page_ranks,
            );
        }
    }
}

/// Per-instruction event generator for one workload: a code half that owns
/// the RNG and maps code accesses, and a data half that maps data accesses.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    code: CodeHalf,
    data: DataHalf,
}

impl TraceGenerator {
    /// Builds a generator for `spec` under huge-page coverage `huge`,
    /// deterministically seeded. The mix and `seed` fix the RNG sequence,
    /// the two line distributions map the line columns, and the two page
    /// distributions, their compactions and `huge` map the page columns;
    /// no other input is read. The engine's pass memo keys exactly these,
    /// in `Engine::pass_keys`, which must route any input this starts to
    /// read.
    pub fn new(spec: &StreamSpec, huge: HugePageMix, seed: u64) -> Self {
        Self::for_halves(spec, huge, seed, Halves::BOTH)
    }

    /// A generator that builds and runs only the mappers of the `halves`
    /// it maps. Its batches match [`TraceGenerator::new`]'s in every column
    /// of a mapped half, and in the classes, coins and data slots; the
    /// columns of an unmapped half stay empty.
    pub(crate) fn for_halves(
        spec: &StreamSpec,
        huge: HugePageMix,
        seed: u64,
        halves: Halves,
    ) -> Self {
        let lines = |dist: &ReuseDistanceDist| halves.lines.then(|| StackMapper::new(dist.clone()));
        let pages = |dist, compaction| halves.pages.then(|| PageMappers::new(dist, compaction));
        let m = &spec.mix;
        let t1 = m.branch;
        let t2 = t1 + m.fp;
        let t3 = t2 + m.arith;
        let t4 = t3 + m.load;
        TraceGenerator {
            code: CodeHalf {
                rng: SmallRng::seed_from_u64(seed),
                thresholds: [t1, t2, t3, t4],
                huge,
                lines: lines(&spec.code_reuse),
                pages: pages(&spec.code_page_reuse, spec.pages.code_compaction),
                line_draws: Vec::new(),
                page_draws: PageDraws::default(),
            },
            data: DataHalf {
                lines: lines(&spec.data_reuse),
                pages: pages(&spec.data_page_reuse, spec.pages.data_compaction),
            },
        }
    }

    /// The generator's two halves, for callers that run them on separate
    /// threads: [`CodeHalf::fill`] then [`DataHalf::fill`] on each batch,
    /// in batch order, is [`TraceGenerator::fill_batch`].
    pub(crate) fn halves(&mut self) -> (&mut CodeHalf, &mut DataHalf) {
        (&mut self.code, &mut self.data)
    }

    /// Generates the next instruction event: the per-event oracle that
    /// [`TraceGenerator::fill_batch`] reproduces.
    pub fn next_event(&mut self) -> InsnEvent {
        const FULL: &str = "generators built by `new` map both halves";
        let TraceGenerator { code, data } = self;
        let class = code.next_class();
        let code_line = code.lines.as_mut().expect(FULL).access(&mut code.rng);
        let code_huge = code.rng.gen::<f64>() < code.huge.code_huge_fraction;
        let code_page = PageAccess {
            page: code
                .pages
                .as_mut()
                .expect(FULL)
                .access(code_huge, &mut code.rng),
            is_huge: code_huge,
        };
        let data = match class {
            InsnClass::Load | InsnClass::Store => {
                let data_huge = code.rng.gen::<f64>() < code.huge.data_huge_fraction;
                let page = PageAccess {
                    page: data
                        .pages
                        .as_mut()
                        .expect(FULL)
                        .access(data_huge, &mut code.rng),
                    is_huge: data_huge,
                };
                Some(DataAccess {
                    is_store: class == InsnClass::Store,
                    line: data.lines.as_mut().expect(FULL).access(&mut code.rng),
                    page,
                })
            }
            _ => None,
        };
        InsnEvent {
            class,
            code_line,
            code_page,
            data,
        }
    }

    /// Fills `batch` with exactly `n` events, reusing its buffers.
    ///
    /// Bit-identical to `n` successive [`TraceGenerator::next_event`] calls:
    /// the code half consumes the RNG in the same per-event order, and each
    /// mapper touches its stack with the same distance sequence, so the
    /// generator state after the call matches the per-event path exactly
    /// for every `n`.
    pub fn fill_batch(&mut self, batch: &mut EventBatch, n: usize) {
        self.code.fill(batch, n);
        self.data.fill(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseDistanceDist;
    use crate::stream::{
        BranchProfile, ContextSwitchProfile, InstructionMix, PageProfile, PrefetchAffinity,
    };

    fn spec() -> StreamSpec {
        let line =
            ReuseDistanceDist::from_survival_points(&[(512, 0.25), (16_384, 0.05)], 0.01, 200_000)
                .unwrap();
        let page = ReuseDistanceDist::single_knee(64, 0.08, 0.01, 10_000).unwrap();
        StreamSpec {
            name: "test".to_string(),
            mix: InstructionMix::new(0.20, 0.05, 0.30, 0.30, 0.15).unwrap(),
            code_reuse: line.clone(),
            data_reuse: line,
            code_page_reuse: page.clone(),
            data_page_reuse: page,
            branch: BranchProfile {
                taken_rate: 0.6,
                base_mispredict: 0.02,
                branch_working_set: 1024,
            },
            prefetch: PrefetchAffinity::modest(),
            pages: PageProfile {
                data_compaction: 16.0,
                code_compaction: 64.0,
                madvise_fraction: 0.3,
                uses_shp: false,
                shp_target_bytes: 0,
            },
            context_switch: ContextSwitchProfile::quiet(),
            mlp: 3.0,
            smt_gain: 0.25,
            base_cpi_scale: 1.0,
            writeback_factor: 0.4,
            burstiness: 1.0,
            llc_contention: 0.5,
            natural_code_llc_share: 0.35,
            extra_mem_lines_per_ki: 0.0,
            extra_traffic_prefetch_fraction: 0.3,
            frontend_exposure: 0.6,
        }
    }

    #[test]
    fn stack_mapper_reproduces_miss_ratio() {
        // Direct check of the central claim: for a fully-associative LRU of
        // capacity C, the fraction of accesses whose sampled id was NOT in
        // the C most-recent distinct ids equals miss_ratio(C).
        let dist =
            ReuseDistanceDist::from_survival_points(&[(128, 0.3), (4096, 0.05)], 0.02, 100_000)
                .unwrap();
        let mut mapper = StackMapper::new(dist.clone());
        let mut rng = SmallRng::seed_from_u64(42);
        // Model LRU cache of capacity 128 as a recency list.
        let mut recency: Vec<u64> = Vec::new();
        let cap = 128usize;
        let mut misses = 0u64;
        let n = 60_000u64;
        for _ in 0..n {
            let id = mapper.access(&mut rng);
            if let Some(pos) = recency.iter().position(|&x| x == id) {
                recency.remove(pos);
            } else {
                misses += 1;
            }
            recency.insert(0, id);
            recency.truncate(cap);
        }
        let empirical = misses as f64 / n as f64;
        let analytic = dist.miss_ratio(cap as u64);
        assert!(
            (empirical - analytic).abs() < 0.03,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn mapper_footprint_is_bounded() {
        let dist = ReuseDistanceDist::single_knee(16, 0.5, 0.4, 64).unwrap();
        let mut mapper = StackMapper::new(dist);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            mapper.access(&mut rng);
        }
        assert!(mapper.live_ids() as u64 <= 64);
        assert!(mapper.total_ids() > 64, "cold accesses keep minting ids");
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = TraceGenerator::new(&spec(), HugePageMix::default(), 3);
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            let e = g.next_event();
            let idx = match e.class {
                InsnClass::Branch => 0,
                InsnClass::Fp => 1,
                InsnClass::Arith => 2,
                InsnClass::Load => 3,
                InsnClass::Store => 4,
            };
            counts[idx] += 1;
            // Loads/stores carry data accesses; others must not.
            match e.class {
                InsnClass::Load => assert!(e.data.is_some() && !e.data.unwrap().is_store),
                InsnClass::Store => assert!(e.data.is_some() && e.data.unwrap().is_store),
                _ => assert!(e.data.is_none()),
            }
        }
        let expect = [0.20, 0.05, 0.30, 0.30, 0.15];
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - expect[i]).abs() < 0.01,
                "class {i}: {frac} vs {}",
                expect[i]
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = TraceGenerator::new(&spec(), HugePageMix::default(), 9);
        let mut b = TraceGenerator::new(&spec(), HugePageMix::default(), 9);
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn huge_mix_routes_translations() {
        let mix = HugePageMix {
            code_huge_fraction: 1.0,
            data_huge_fraction: 0.0,
        };
        let mut g = TraceGenerator::new(&spec(), mix, 4);
        for _ in 0..2_000 {
            let e = g.next_event();
            assert!(e.code_page.is_huge);
            if let Some(d) = e.data {
                assert!(!d.page.is_huge);
            }
        }
    }

    #[test]
    fn huge_stream_has_compacted_working_set() {
        // With compaction 64, the 2 MiB code-page stream should touch far
        // fewer distinct ids than the 4 KiB stream over the same window.
        let all_4k = HugePageMix::default();
        let all_2m = HugePageMix {
            code_huge_fraction: 1.0,
            data_huge_fraction: 1.0,
        };
        let mut small = TraceGenerator::new(&spec(), all_4k, 8);
        let mut big = TraceGenerator::new(&spec(), all_2m, 8);
        let mut ids_4k = std::collections::HashSet::new();
        let mut ids_2m = std::collections::HashSet::new();
        for _ in 0..20_000 {
            ids_4k.insert(small.next_event().code_page.page);
            ids_2m.insert(big.next_event().code_page.page);
        }
        assert!(
            (ids_2m.len() as f64) < (ids_4k.len() as f64) / 2.5,
            "2M ids {} vs 4K ids {}",
            ids_2m.len(),
            ids_4k.len()
        );
    }

    #[test]
    fn fill_batch_matches_next_event_sequence() {
        // Chunked batched generation (odd sizes included) must replicate the
        // per-event stream and leave the generator in the same state.
        let mix = HugePageMix {
            code_huge_fraction: 0.4,
            data_huge_fraction: 0.7,
        };
        let mut per_event = TraceGenerator::new(&spec(), mix, 21);
        let mut batched = TraceGenerator::new(&spec(), mix, 21);
        let mut batch = EventBatch::with_capacity(64);
        for chunk in [1usize, 7, 64, 13, 256] {
            batched.fill_batch(&mut batch, chunk);
            assert_eq!(batch.len(), chunk);
            let mut data_cursor = 0usize;
            let mut tallies = [0u64; 4];
            for i in 0..chunk {
                let e = per_event.next_event();
                match e.class {
                    InsnClass::Branch => tallies[0] += 1,
                    InsnClass::Fp => tallies[1] += 1,
                    InsnClass::Load => tallies[2] += 1,
                    InsnClass::Store => tallies[3] += 1,
                    InsnClass::Arith => {}
                }
                assert_eq!(batch.classes[i], e.class);
                assert_eq!(batch.code_lines[i], e.code_line);
                assert_eq!(batch.code_pages[i], e.code_page.page);
                assert_eq!(batch.code_huge[i], e.code_page.is_huge);
                if let Some(d) = e.data {
                    assert_eq!(batch.data_event[data_cursor], i as u32);
                    assert_eq!(batch.data_is_store[data_cursor], d.is_store);
                    assert_eq!(batch.data_lines[data_cursor], d.line);
                    assert_eq!(batch.data_pages[data_cursor], d.page.page);
                    assert_eq!(batch.data_huge[data_cursor], d.page.is_huge);
                    data_cursor += 1;
                }
            }
            assert_eq!(data_cursor, batch.data_event.len());
            assert_eq!(batch.tallies(), tallies);
        }
        // Generator states converged: the next events still agree.
        for _ in 0..100 {
            assert_eq!(per_event.next_event(), batched.next_event());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TraceGenerator::new(&spec(), HugePageMix::default(), 1);
        let mut b = TraceGenerator::new(&spec(), HugePageMix::default(), 2);
        let same = (0..100)
            .filter(|_| a.next_event() == b.next_event())
            .count();
        assert!(same < 100);
    }

    /// Generators that map one half fill that half's columns, and the
    /// classes, coins and data slots, exactly as a full generator does,
    /// and leave the other half's columns empty.
    #[test]
    fn half_generators_fill_their_columns_as_a_full_one() {
        let mix = HugePageMix {
            code_huge_fraction: 0.4,
            data_huge_fraction: 0.7,
        };
        let only =
            |lines, pages| TraceGenerator::for_halves(&spec(), mix, 21, Halves { lines, pages });
        let mut full = TraceGenerator::new(&spec(), mix, 21);
        let (mut lines, mut pages) = (only(true, false), only(false, true));
        let mut batch = [0, 1, 2].map(|_| EventBatch::with_capacity(256));
        for chunk in [7usize, 256, 13] {
            for (gen, b) in [&mut full, &mut lines, &mut pages]
                .into_iter()
                .zip(&mut batch)
            {
                gen.fill_batch(b, chunk);
            }
            let [f, l, p] = &batch;
            for half in [l, p] {
                assert_eq!(half.classes, f.classes);
                assert_eq!(half.code_huge, f.code_huge);
                assert_eq!(half.data_event, f.data_event);
                assert_eq!(half.data_is_store, f.data_is_store);
                assert_eq!(half.data_huge, f.data_huge);
            }
            assert_eq!(
                (&l.code_lines, &l.data_lines),
                (&f.code_lines, &f.data_lines)
            );
            assert_eq!(
                (&p.code_pages, &p.data_pages),
                (&f.code_pages, &f.data_pages)
            );
            assert_eq!(
                (&p.code_page_ranks, &p.data_page_ranks),
                (&f.code_page_ranks, &f.data_page_ranks)
            );
            assert!(l.code_pages.is_empty() && l.data_pages.is_empty());
            assert!(l.code_page_ranks.is_empty() && l.data_page_ranks.is_empty());
            assert!(p.code_lines.is_empty() && p.data_lines.is_empty());
        }
    }

    /// Every page access's rank is its id's 1-based distance in a plain
    /// LRU stack over the ids its mapper produced (pre-warm included), and
    /// [`NEW_RANK`] for an id never seen: the mappers' stacks, seen from
    /// their output. Ids a bounded stack drops never come back, so the
    /// model needs no bound.
    #[test]
    fn page_ranks_are_stack_distances() {
        let mix = HugePageMix {
            code_huge_fraction: 0.3,
            data_huge_fraction: 0.5,
        };
        let spec = spec();
        let mut gen = TraceGenerator::new(&spec, mix, 17);
        let stack =
            |dist: &ReuseDistanceDist| -> Vec<u64> { (0..prewarm_len(dist)).rev().collect() };
        let compacted = |dist: &ReuseDistanceDist, c: f64| dist.compacted(c.max(1.0));
        // Code 4 KiB, code 2 MiB, data 4 KiB, data 2 MiB, most recent first.
        let mut stacks = [
            stack(&spec.code_page_reuse),
            stack(&compacted(
                &spec.code_page_reuse,
                spec.pages.code_compaction,
            )),
            stack(&spec.data_page_reuse),
            stack(&compacted(
                &spec.data_page_reuse,
                spec.pages.data_compaction,
            )),
        ];
        let check = |stack: &mut Vec<u64>, id: u64, rank: u32| {
            let expect = match stack.iter().position(|&x| x == id) {
                Some(pos) => {
                    stack.remove(pos);
                    pos as u32 + 1
                }
                None => NEW_RANK,
            };
            stack.insert(0, id);
            assert_eq!(rank, expect, "rank of page {id}");
        };
        let mut batch = EventBatch::with_capacity(512);
        let (mut new_ranks, mut accesses) = (0, 0);
        for _ in 0..8 {
            gen.fill_batch(&mut batch, 512);
            for k in 0..batch.len() {
                let side = usize::from(batch.code_huge[k]);
                check(
                    &mut stacks[side],
                    batch.code_pages[k],
                    batch.code_page_ranks[k],
                );
            }
            for s in 0..batch.data_pages.len() {
                let side = 2 + usize::from(batch.data_huge[s]);
                check(
                    &mut stacks[side],
                    batch.data_pages[s],
                    batch.data_page_ranks[s],
                );
            }
            let ranks = batch.code_page_ranks.iter().chain(&batch.data_page_ranks);
            new_ranks += ranks.clone().filter(|&&r| r == NEW_RANK).count();
            accesses += ranks.count();
        }
        assert!(
            new_ranks > 0 && new_ranks < accesses / 2,
            "{new_ranks} of {accesses}"
        );
    }

    /// Everything `TraceGenerator::new` could read.
    struct GenInputs {
        spec: StreamSpec,
        huge: HugePageMix,
        seed: u64,
    }

    /// One named change to the generator inputs.
    type Perturb = (&'static str, fn(&mut GenInputs));

    /// The columns both halves read: the classes and the data slots.
    type Sequence = (Vec<InsnClass>, Vec<u32>, Vec<bool>);
    /// What each half of the first 4096 events of the base inputs after
    /// `perturb` hands its pass: the sequence plus the half's own columns,
    /// the line ids, or the page ids, ranks and huge coins.
    type LineHalf = (Sequence, Vec<u64>, Vec<u64>);
    type PageHalf = (Sequence, [Vec<u64>; 2], [Vec<u32>; 2], [Vec<bool>; 2]);
    fn halves_after(perturb: fn(&mut GenInputs)) -> (LineHalf, PageHalf) {
        let mut k = GenInputs {
            spec: spec(),
            huge: HugePageMix {
                code_huge_fraction: 0.1,
                data_huge_fraction: 0.6,
            },
            seed: 5,
        };
        perturb(&mut k);
        let mut b = EventBatch::with_capacity(4096);
        TraceGenerator::new(&k.spec, k.huge, k.seed).fill_batch(&mut b, 4096);
        let sequence = (b.classes, b.data_event, b.data_is_store);
        (
            (sequence.clone(), b.code_lines, b.data_lines),
            (
                sequence,
                [b.code_pages, b.data_pages],
                [b.code_page_ranks, b.data_page_ranks],
                [b.code_huge, b.data_huge],
            ),
        )
    }

    fn other_dist() -> ReuseDistanceDist {
        ReuseDistanceDist::single_knee(32, 0.1, 0.01, 5_000).unwrap()
    }

    /// The generator's side of the pass-memo keys: its line half moves
    /// with exactly the inputs `Engine::pass_keys` sends to the line key
    /// from the generator's arguments, and its page half with exactly
    /// those it sends to the page key. The mix and seed fix the RNG
    /// sequence, so they move both halves; each distribution and page
    /// trait moves only the half it maps, and the huge-page coins are
    /// drawn whether or not they land huge, so the huge mix moves only the
    /// page half. Everything else in the spec moves neither: the engine
    /// keys some of it (the BPU traits, the natural code share) for its
    /// own passes, not for the trace; see
    /// `engine::tests::pass_keys_cover_exactly_what_each_half_reads`. Each
    /// mix change moves 0.01 between two classes, so the mix stays valid;
    /// the store share, the remainder of a valid mix, is keyed with the
    /// rest of the mix but never read.
    #[test]
    fn trace_key_covers_exactly_what_new_reads() {
        let (lines, pages) = halves_after(|_| {});
        let both: [Perturb; 5] = [
            ("mix.branch", |k| {
                k.spec.mix.branch += 0.01;
                k.spec.mix.store -= 0.01;
            }),
            ("mix.fp", |k| {
                k.spec.mix.fp += 0.01;
                k.spec.mix.store -= 0.01;
            }),
            ("mix.arith", |k| {
                k.spec.mix.arith += 0.01;
                k.spec.mix.store -= 0.01;
            }),
            ("mix.load", |k| {
                k.spec.mix.load += 0.01;
                k.spec.mix.store -= 0.01;
            }),
            ("seed", |k| k.seed = 6),
        ];
        let line_half: [Perturb; 2] = [
            ("code_reuse", |k| k.spec.code_reuse = other_dist()),
            ("data_reuse", |k| k.spec.data_reuse = other_dist()),
        ];
        let page_half: [Perturb; 6] = [
            ("code_page_reuse", |k| k.spec.code_page_reuse = other_dist()),
            ("data_page_reuse", |k| k.spec.data_page_reuse = other_dist()),
            ("code_compaction", |k| k.spec.pages.code_compaction = 32.0),
            ("data_compaction", |k| k.spec.pages.data_compaction = 8.0),
            ("code_huge_fraction", |k| k.huge.code_huge_fraction = 0.2),
            ("data_huge_fraction", |k| k.huge.data_huge_fraction = 0.5),
        ];
        let neither: [Perturb; 20] = [
            ("name", |k| k.spec.name = "other".to_string()),
            ("taken_rate", |k| k.spec.branch.taken_rate = 0.5),
            ("base_mispredict", |k| k.spec.branch.base_mispredict = 0.05),
            ("branch_working_set", |k| {
                k.spec.branch.branch_working_set = 4000
            }),
            ("prefetch", |k| k.spec.prefetch.accuracy = 0.9),
            ("madvise_fraction", |k| k.spec.pages.madvise_fraction = 0.9),
            ("uses_shp", |k| k.spec.pages.uses_shp = true),
            ("shp_target_bytes", |k| {
                k.spec.pages.shp_target_bytes = 1 << 30
            }),
            ("context_switch", |k| {
                k.spec.context_switch.rate_per_sec = 9e4
            }),
            ("mlp", |k| k.spec.mlp = 5.0),
            ("smt_gain", |k| k.spec.smt_gain = 0.3),
            ("base_cpi_scale", |k| k.spec.base_cpi_scale = 1.1),
            ("writeback_factor", |k| k.spec.writeback_factor = 0.5),
            ("burstiness", |k| k.spec.burstiness = 2.0),
            ("llc_contention", |k| k.spec.llc_contention = 0.7),
            ("natural_code_llc_share", |k| {
                k.spec.natural_code_llc_share = 0.5
            }),
            ("extra_mem_lines_per_ki", |k| {
                k.spec.extra_mem_lines_per_ki = 1.0
            }),
            ("extra_traffic_prefetch_fraction", |k| {
                k.spec.extra_traffic_prefetch_fraction = 0.5
            }),
            ("frontend_exposure", |k| k.spec.frontend_exposure = 0.7),
            ("mix.store alone", |k| {
                // The store share is the remainder after the other four
                // thresholds, which a valid mix fixes.
                k.spec.mix.store += 0.01
            }),
        ];
        let groups: [(&[Perturb], bool, bool); 4] = [
            (&both, true, true),
            (&line_half, true, false),
            (&page_half, false, true),
            (&neither, false, false),
        ];
        for (group, moves_lines, moves_pages) in groups {
            for &(name, perturb) in group {
                let (l, p) = halves_after(perturb);
                assert_eq!(l != lines, moves_lines, "{name} vs the line half");
                assert_eq!(p != pages, moves_pages, "{name} vs the page half");
            }
        }
    }
}
