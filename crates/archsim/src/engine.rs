//! The simulation engine: ties trace generation, cache/TLB/branch structures,
//! prefetch effects, the memory model, and the CPI/TMAM accounting into one
//! window-level evaluation with a bandwidth↔latency fixed point.

use crate::branch::BranchPredictor;
use crate::cache::{CdpPartition, SetAssocCache, SharedLlc};
use crate::counters::Counters;
use crate::error::ArchSimError;
use crate::fingerprint::Fnv128;
use crate::memory::MemoryModel;
use crate::pagemap::{PagePolicy, ThpMode, ThpPlatformTraits};
use crate::platform::{CacheGeometry, PlatformKind, PlatformSpec, TlbGeometry, CACHE_LINE_BYTES};
use crate::prefetch::{PrefetchEffect, PrefetcherConfig};
use crate::stream::{BranchProfile, InstructionMix, PageProfile, StreamSpec};
use crate::tlb::TlbHierarchy;
use crate::tmam::TmamBreakdown;
use crate::trace::{EventBatch, Halves, HugePageMix, TraceGenerator};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};

/// Everything the seven µSKU knobs can change about a server, plus the
/// platform it runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The hardware platform.
    pub platform: PlatformSpec,
    /// Core-domain frequency in GHz (knob 1).
    pub core_freq_ghz: f64,
    /// Uncore-domain frequency in GHz (knob 2).
    pub uncore_freq_ghz: f64,
    /// Active physical cores (knob 3; the rest are `isolcpus`-parked).
    pub active_cores: u32,
    /// CAT: LLC ways enabled for the workload.
    pub llc_ways_enabled: u32,
    /// CDP partition of the enabled ways, if any (knob 4).
    pub cdp: Option<CdpPartition>,
    /// Hardware prefetcher enables (knob 5).
    pub prefetchers: PrefetcherConfig,
    /// Transparent huge page mode (knob 6).
    pub thp: ThpMode,
    /// Statically-reserved 2 MiB pages (knob 7).
    pub shp_pages: u32,
    /// Machine DRAM capacity (for SHP over-reservation pressure).
    pub machine_memory_bytes: u64,
}

impl ServerConfig {
    /// The *stock* configuration of Sec. 6.2: maximum core and uncore
    /// frequency, all cores active, no CDP, all prefetchers on, THP always
    /// on, and no SHPs.
    pub fn stock(platform: PlatformSpec) -> Self {
        let core = platform.core_freq_range_ghz.1;
        let uncore = platform.uncore_freq_range_ghz.1;
        let cores = platform.total_cores();
        let ways = platform.llc.ways;
        ServerConfig {
            platform,
            core_freq_ghz: core,
            uncore_freq_ghz: uncore,
            active_cores: cores,
            llc_ways_enabled: ways,
            cdp: None,
            prefetchers: PrefetcherConfig::all_on(),
            thp: ThpMode::AlwaysOn,
            shp_pages: 0,
            machine_memory_bytes: 64 << 30,
        }
    }

    /// Validates every field against the platform.
    ///
    /// # Errors
    ///
    /// The specific [`ArchSimError`] for the first invalid field.
    pub fn validate(&self) -> Result<(), ArchSimError> {
        self.platform.validate_core_freq(self.core_freq_ghz)?;
        self.platform.validate_uncore_freq(self.uncore_freq_ghz)?;
        self.platform.validate_core_count(self.active_cores)?;
        if self.llc_ways_enabled == 0 || self.llc_ways_enabled > self.platform.llc.ways {
            return Err(ArchSimError::InvalidGeometry(format!(
                "{} of {} LLC ways enabled",
                self.llc_ways_enabled, self.platform.llc.ways
            )));
        }
        if let Some(p) = self.cdp {
            // Broadwell in this fleet lacks RDT kernel support only for
            // *some* extensions; the paper still sweeps CDP on it, so CDP is
            // allowed on every platform and only its shape is validated.
            if p.data_ways + p.code_ways != self.llc_ways_enabled {
                return Err(ArchSimError::InvalidCdpPartition {
                    data_ways: p.data_ways,
                    code_ways: p.code_ways,
                    total_ways: self.llc_ways_enabled,
                });
            }
        }
        Ok(())
    }

    /// THP allocation behaviour for this platform (older Broadwell fleet is
    /// modelled as fragmented; see `pagemap`).
    pub fn thp_traits(&self) -> ThpPlatformTraits {
        match self.platform.kind {
            PlatformKind::Broadwell16 => ThpPlatformTraits::fragmented(),
            _ => ThpPlatformTraits::healthy(),
        }
    }

    /// The page policy this configuration resolves to for a workload with
    /// page traits `pages`, and the huge-page mix that routes its trace's
    /// translations to the 4 KiB or the 2 MiB stream. [`Engine`] prices a
    /// window with the policy and generates and keys its trace with the
    /// mix; every reader of either takes it from here.
    pub fn resolve_pages(&self, pages: &PageProfile) -> (PagePolicy, HugePageMix) {
        let policy = PagePolicy::resolve(
            pages,
            self.thp,
            self.shp_pages,
            self.thp_traits(),
            self.machine_memory_bytes,
        );
        let huge = HugePageMix {
            code_huge_fraction: policy.huge_code_fraction,
            data_huge_fraction: policy.huge_data_fraction,
        };
        (policy, huge)
    }

    /// Core frequency after the AVX power-budget tax (paper Sec. 6.1: Ads1
    /// runs at 2.0 GHz because AVX eats part of the budget).
    pub fn effective_core_freq_ghz(&self, fp_fraction: f64) -> f64 {
        if fp_fraction >= self.platform.avx_fp_threshold {
            (self.core_freq_ghz - self.platform.avx_freq_tax_ghz)
                .max(self.platform.core_freq_range_ghz.0)
        } else {
            self.core_freq_ghz
        }
    }
}

/// Cycle attribution produced by the CPI model (per simulated window).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpiParts {
    /// Issue/execute cycles (retiring + core-bound).
    pub base: f64,
    /// Instruction-supply stall cycles.
    pub frontend: f64,
    /// Branch misprediction recovery cycles.
    pub bad_speculation: f64,
    /// Data-supply stall cycles.
    pub backend_memory: f64,
    /// Context-switch overhead cycles.
    pub context_switch: f64,
}

impl CpiParts {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.base + self.frontend + self.bad_speculation + self.backend_memory + self.context_switch
    }
}

/// Result of simulating one window at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Raw event counts.
    pub counters: Counters,
    /// Single-thread IPC.
    pub ipc_thread: f64,
    /// Per-core IPC with SMT (what Fig. 6 reports).
    pub ipc_core: f64,
    /// Millions of instructions per second, one core.
    pub mips_per_core: f64,
    /// MIPS across all active cores at the given load (µSKU's metric).
    pub mips_total: f64,
    /// Average memory bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Loaded memory latency, ns.
    pub mem_latency_ns: f64,
    /// Memory-bandwidth utilization (0–1).
    pub mem_utilization: f64,
    /// True when the operating point is effectively bandwidth-bound.
    pub bandwidth_bound: bool,
    /// Cycle attribution.
    pub cpi: CpiParts,
    /// Top-down pipeline-slot breakdown.
    pub tmam: TmamBreakdown,
    /// Core frequency actually applied (after the AVX tax).
    pub effective_core_freq_ghz: f64,
    /// Fraction of CPU time spent context switching (Fig. 4 midpoint).
    pub context_switch_fraction: f64,
}

/// Fraction of the window used to warm structures before counting.
const WARMUP_FRACTION: f64 = 0.25;
/// STLB hit penalty in cycles.
const STLB_HIT_CYCLES: f64 = 9.0;
/// Exposed fraction of an L1i-miss/L2-hit refill (decoupled front ends and
/// fetch-ahead hide most of it).
const FE_L2_CHARGE: f64 = 0.25;
/// Exposed fraction of an L2-code-miss/LLC-hit refill.
const FE_LLC_CHARGE: f64 = 0.35;
/// Exposed fraction of a code fetch from memory ("the latency of code
/// misses is not hidden" — but fetch-ahead still overlaps a tail).
const FE_MEM_CHARGE: f64 = 0.55;
/// Exposed fraction of an ITLB page walk.
const ITLB_WALK_CHARGE: f64 = 0.40;
/// Exposed fraction of a DTLB page walk (overlaps OoO execution).
const DTLB_WALK_CHARGE: f64 = 0.40;
/// SHP pressure to extra-LLC-miss conversion gain.
const SHP_PRESSURE_GAIN: f64 = 10.0;
/// Extra backend cycles per FP op when the FP fraction is high (port
/// pressure under dense AVX work).
const FP_PRESSURE_CPI: f64 = 0.15;
/// Events pulled from the trace generator per batched tick. Large enough
/// to amortize per-chunk pass setup, small enough that the SoA buffers and
/// miss lists stay L2-resident.
const DEFAULT_BATCH_EVENTS: usize = 4096;
/// Entry bound for the process-wide pass memo. At the bound the map is
/// cleared wholesale rather than evicted piecemeal: LRU bookkeeping would
/// cost more than re-simulating the handful of live entries, and a sweep
/// repopulates its working set within one round.
const PASS_MEMO_CAP: usize = 1 << 16;

/// One pass-memo entry: one half of a window's counters, empty until the
/// first window with its key finishes that half's passes. That window
/// holds the slot's lock while it simulates, so concurrent windows with the
/// same key wait for its counters instead of simulating copies.
type PassSlot = Arc<Mutex<Option<PassHalf>>>;

/// One half of a window's pass counters, as [`PASS_MEMO`] keeps it.
#[derive(Clone, Copy)]
struct PassHalf {
    counters: Counters,
    /// In builds with debug assertions, the input fingerprints
    /// ([`Engine::inputs_fingerprint`]) of the last [`AUDITED_INPUTS`]
    /// windows known to yield `counters`: the window that simulated the
    /// half, then each hit the audit in [`Engine::window_counters`]
    /// checked.
    #[cfg(debug_assertions)]
    audited: [u64; AUDITED_INPUTS],
}

/// Process-wide memo of [`WindowSim::run`]'s counters, split at the
/// line/page seam: each window claims one slot under each of the two keys
/// [`Engine::pass_keys`] returns, the line key for everything the cache and
/// branch passes read and the page key for everything the TLB passes read.
/// µSKU's A/B arms run one workload on identical hardware with one engine
/// seed (paper Sec. 5), and most knobs change timing, not the access
/// stream, so the passes of every load point, every prefetcher or uncore
/// setting and every co-runner's bandwidth repeat a window the process
/// already simulated.
/// THP and SHP act only through the TLBs (Figs. 11 and 18), so their
/// settings share one line half; LLC-way and CDP settings share one page
/// half. A window simulates only the halves it misses, and a full hit runs
/// only the analytic steps 4–5 of [`Engine::evaluate`]. A load grid
/// ([`Engine::run_grid`]) claims the slots of all its points at once and
/// simulates every half it misses on one trace; it locks all its line
/// slots in key order, then all its page slots in key order, so a single
/// window (a one-point grid) locks its line slot first too, and no two
/// callers can each hold a slot the other waits for. The map's mutex is
/// held only to claim the slots.
static PASS_MEMO: OnceLock<Mutex<HashMap<u128, PassSlot>>> = OnceLock::new();

/// Input sets each pass-memo half remembers as checked, in builds with
/// debug assertions (see the audit in [`Engine::window_counters`]).
#[cfg(debug_assertions)]
const AUDITED_INPUTS: usize = 16;

/// Code ids share the unified L2/LLC with data ids; tag them apart.
const CODE_TAG: u64 = 1 << 62;

/// The pre-filled caches: what the line half of a window's passes drives.
/// They are filled from the two line distributions alone, and the TLBs
/// from the two page distributions alone.
#[derive(Clone, PartialEq)]
struct WarmCaches {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    llc: SharedLlc,
}

/// The window-level simulator for one (platform config, workload) pair.
#[derive(Debug)]
pub struct Engine {
    config: ServerConfig,
    spec: StreamSpec,
    seed: u64,
    batch_events: usize,
    warmup_override: Option<u64>,
    use_memo: bool,
}

impl Engine {
    /// Creates an engine after validating the configuration and stream spec.
    ///
    /// # Errors
    ///
    /// Any validation error from [`ServerConfig::validate`] or
    /// [`StreamSpec::validate`].
    pub fn new(config: ServerConfig, spec: StreamSpec, seed: u64) -> Result<Self, ArchSimError> {
        config.validate()?;
        spec.validate()?;
        Ok(Engine {
            config,
            spec,
            seed,
            batch_events: DEFAULT_BATCH_EVENTS,
            warmup_override: None,
            use_memo: true,
        })
    }

    /// Enables or disables the process-wide pass memo for this engine
    /// (default on). Identity tests and throughput benchmarks turn it off
    /// to force a full evaluation — structures built, trace generated and
    /// passes run; memo hits are bit-identical to evaluation, so production
    /// callers never need to.
    pub fn with_memo(mut self, enabled: bool) -> Self {
        self.use_memo = enabled;
        self
    }

    /// Sets the number of events simulated per batched tick (default 4096).
    ///
    /// Results are bit-identical at every batch size — chunking never moves
    /// a warm-up reset or context-switch flush relative to the event stream,
    /// and each structure sees its exact per-event access sequence — so this
    /// is a performance and test-surface control only.
    pub fn with_batch_size(mut self, events: usize) -> Self {
        self.batch_events = events.max(1);
        self
    }

    /// Overrides the computed warm-up length, in instructions.
    ///
    /// Used by regression tests to demonstrate measured-window statistics
    /// are insensitive to the warm-up length (the warm-up events consumed
    /// differ, so this is a statistical property, not bit-identity).
    /// Production callers leave it unset.
    pub fn with_warmup_instructions(mut self, warmup: u64) -> Self {
        self.warmup_override = Some(warmup);
        self
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The workload stream specification.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// The 128-bit content keys of the line half and the page half of one
    /// window's passes under `schedule`, with the resolved LLC `share` and
    /// huge-page mix `huge`. The line key covers everything the cache
    /// passes, the L2/LLC merge, the branch pass and the class tallies
    /// read; the page key everything the ITLB, DTLB and STLB passes and the
    /// DTLB load/store split read. Two windows with an equal key simulate
    /// that half identically, whatever else differs: THP and SHP settings
    /// share one line half, and LLC-way and CDP settings one page half.
    /// Collisions at 128 bits are negligible against the ~1e5 distinct
    /// windows a long sweep evaluates.
    ///
    /// Every input struct is destructured once, without `..`, and each
    /// field goes to the line hasher, the page hasher, both or neither,
    /// with its reason. A field added to any of them fails to compile here
    /// until it is routed, so the memo cannot silently serve stale
    /// counters.
    fn pass_keys(&self, schedule: &Schedule, share: f64, huge: HugePageMix) -> (u128, u128) {
        let Engine {
            config,
            spec,
            seed,
            // Enters through `schedule.warmup`.
            warmup_override: _,
            // Pure performance controls: counters are bit-identical at every
            // batch size and with the memo on or off.
            batch_events: _,
            use_memo: _,
        } = self;
        let ServerConfig {
            platform,
            llc_ways_enabled,
            cdp,
            // Core frequency reaches the passes only through the switch
            // period in `schedule`, the core count only through `share`, and
            // the page knobs only through `huge`. Prefetchers, the uncore
            // clock and SHP pressure act in steps 4–5.
            core_freq_ghz: _,
            active_cores: _,
            thp: _,
            shp_pages: _,
            machine_memory_bytes: _,
            uncore_freq_ghz: _,
            prefetchers: _,
        } = config;
        let PlatformSpec {
            l1i,
            l1d,
            l2,
            llc,
            btb_entries,
            itlb,
            dtlb,
            stlb_entries,
            // Core counts reach the passes only through `share`. Latencies,
            // widths, clocks and the memory system price the counters in
            // steps 4–5.
            sockets: _,
            cores_per_socket: _,
            kind: _,
            microarchitecture: _,
            smt: _,
            page_walk_cycles: _,
            issue_width: _,
            mispredict_penalty_cycles: _,
            core_freq_range_ghz: _,
            uncore_freq_range_ghz: _,
            avx_freq_tax_ghz: _,
            avx_fp_threshold: _,
            mem_unloaded_latency_ns: _,
            mem_peak_bw_gbps: _,
        } = platform;
        let StreamSpec {
            mix,
            code_reuse,
            data_reuse,
            natural_code_llc_share,
            branch,
            code_page_reuse,
            data_page_reuse,
            pages,
            // The switch rate and pollution enter through `schedule`, and
            // contention through `share`.
            context_switch: _,
            llc_contention: _,
            // A display label, and traits that price the counters in steps
            // 4–5.
            name: _,
            prefetch: _,
            mlp: _,
            smt_gain: _,
            base_cpi_scale: _,
            writeback_factor: _,
            burstiness: _,
            extra_mem_lines_per_ki: _,
            extra_traffic_prefetch_fraction: _,
            frontend_exposure: _,
        } = spec;
        let InstructionMix {
            branch: branch_share,
            fp,
            arith,
            load,
            store,
        } = *mix;
        let BranchProfile {
            base_mispredict,
            branch_working_set,
            // Taken branches cost nothing beyond the mix's branch share.
            taken_rate: _,
        } = *branch;
        let PageProfile {
            code_compaction,
            data_compaction,
            // The other page traits reach the passes only through `huge`.
            madvise_fraction: _,
            uses_shp: _,
            shp_target_bytes: _,
        } = *pages;
        let HugePageMix {
            code_huge_fraction,
            data_huge_fraction,
        } = huge;
        let Schedule {
            warmup,
            total,
            insns_per_switch,
            pollution,
            // Chunking is a pure performance control.
            batch_events: _,
        } = *schedule;
        let (mut line, mut page) = (Fnv128::new(), Fnv128::new());
        // Domain separators "LINE" and "PAGE": both halves' keys share one
        // map.
        line.push(0x4c49_4e45);
        page.push(0x5041_4745);
        // Both halves: the mix and the seed fix the RNG sequence (every
        // class, data slot and draw, and the branch predictor's sampling
        // stream), and the schedule fixes the warm-up reset, the switch
        // flushes and the event count.
        for h in [&mut line, &mut page] {
            for f in [branch_share, fp, arith, load, store, pollution] {
                h.push_f64(f);
            }
            for word in [*seed, warmup, total, insns_per_switch] {
                h.push(word);
            }
        }
        // The line half: the line distributions map the line columns, and
        // with the cache geometries, the enabled ways, the LLC split and
        // `share` they shape the warm caches; the BTB and the branch profile
        // drive the branch pass.
        for dist in [code_reuse, data_reuse] {
            dist.fingerprint_words(&mut |w| line.push(w));
        }
        for g in [l1i, l1d, l2, llc] {
            push_cache_geometry(&mut line, g);
        }
        line.push(u64::from(*llc_ways_enabled));
        push_llc_split(&mut line, *cdp, *natural_code_llc_share);
        line.push_f64(share);
        line.push_f64(base_mispredict);
        line.push(u64::from(branch_working_set));
        line.push(u64::from(*btb_entries));
        // The page half: the page distributions, their compactions and the
        // huge-page mix map the page columns (every coin is drawn whether or
        // not it lands huge, so `huge` moves no line), and with the TLB
        // geometries they shape the warm TLBs.
        for dist in [code_page_reuse, data_page_reuse] {
            dist.fingerprint_words(&mut |w| page.push(w));
        }
        for f in [
            code_compaction,
            data_compaction,
            code_huge_fraction,
            data_huge_fraction,
        ] {
            page.push_f64(f);
        }
        for t in [itlb, dtlb] {
            push_tlb_geometry(&mut page, t);
        }
        page.push(u64::from(*stlb_entries));
        (line.finish(), page.finish())
    }

    /// Simulates pass sets that share one trace: for each `(schedule,
    /// halves)` of `passes`, the `halves` of that schedule's passes. Each
    /// half's structures are built and pre-filled once, since they depend
    /// on neither load nor schedule, and copied into every pass set that
    /// simulates that half. One generator, mapping only the halves some set
    /// simulates, feeds them all. Returns each set's line half counters and
    /// page half counters, in `passes` order; a half not simulated reads
    /// all zero. A list that simulates nothing builds, generates and
    /// spawns nothing.
    fn simulate_halves(
        &self,
        passes: &[(&Schedule, Halves)],
        share: f64,
        huge: HugePageMix,
    ) -> Result<Vec<(Counters, Counters)>, ArchSimError> {
        let (mut line_sets, mut page_sets) = (0, 0);
        for (_, halves) in passes {
            line_sets += usize::from(halves.lines);
            page_sets += usize::from(halves.pages);
        }
        let mapped = Halves {
            lines: line_sets > 0,
            pages: page_sets > 0,
        };
        if !(mapped.lines || mapped.pages) {
            return Ok(vec![Default::default(); passes.len()]);
        }
        let mut caches = mapped
            .lines
            .then(|| build_warm_caches(&self.config, &self.spec, share))
            .transpose()?;
        let mut tlb = mapped
            .pages
            .then(|| build_warm_tlb(&self.config, &self.spec))
            .transpose()?;
        let sets = passes
            .iter()
            .map(|&(schedule, halves)| PassSet {
                schedule,
                lines: halves
                    .lines
                    .then(|| hand_out(&mut caches, &mut line_sets))
                    .flatten()
                    .map(|warm| LineSim::new(warm, self)),
                pages: halves
                    .pages
                    .then(|| hand_out(&mut tlb, &mut page_sets))
                    .flatten()
                    .map(PageSim::new),
            })
            .collect();
        let mut gen = TraceGenerator::for_halves(&self.spec, huge, self.seed, mapped);
        Ok(WindowSim { sets }.run(&mut gen))
    }

    /// The counters of a grid's structure passes, one per schedule of
    /// `schedules` (the grid's points, which share one trace), each
    /// assembled from its line half and its page half. Points with equal
    /// schedules share one pass set. With the memo on, each half comes from
    /// [`PASS_MEMO`] when an earlier window with the same key ran it; the
    /// grid simulates only the halves it misses, all in one
    /// [`Engine::simulate_halves`] call, and keeps them for later windows.
    /// A poisoned map or slot (a thread panicked mid-simulation) only
    /// bypasses the memo; a failed build leaves the slots as they were.
    fn window_counters(
        &self,
        schedules: &[Schedule],
        share: f64,
        huge: HugePageMix,
    ) -> Result<Vec<Counters>, ArchSimError> {
        let mut sets: Vec<&Schedule> = Vec::with_capacity(schedules.len());
        let point_sets: Vec<usize> = schedules
            .iter()
            .map(|schedule| {
                sets.iter().position(|&s| s == schedule).unwrap_or_else(|| {
                    sets.push(schedule);
                    sets.len() - 1
                })
            })
            .collect();
        let per_point = |halves: &[(Counters, Counters)]| {
            point_sets
                .iter()
                .map(|&k| merge_halves(halves[k].0, halves[k].1))
                .collect()
        };
        let simulate = |passes: &[(&Schedule, Halves)]| self.simulate_halves(passes, share, huge);
        let full = || -> Result<Vec<Counters>, ArchSimError> {
            let passes: Vec<_> = sets.iter().map(|&s| (s, Halves::BOTH)).collect();
            Ok(per_point(&simulate(&passes)?))
        };
        if !self.use_memo {
            return full();
        }
        let keys: Vec<(u128, u128)> = sets
            .iter()
            .map(|s| self.pass_keys(s, share, huge))
            .collect();
        #[cfg(debug_assertions)]
        let inputs: Vec<u64> = sets
            .iter()
            .map(|s| self.inputs_fingerprint(s, share, huge))
            .collect();
        let simulated = |_set: usize, counters| PassHalf {
            counters,
            #[cfg(debug_assertions)]
            audited: [inputs[_set]; AUDITED_INPUTS],
        };
        let Ok(mut map) = PASS_MEMO.get_or_init(Mutex::default).lock() else {
            return full();
        };
        if map.len() >= PASS_MEMO_CAP
            && !keys
                .iter()
                .all(|(line, page)| map.contains_key(line) && map.contains_key(page))
        {
            map.clear();
        }
        let mut claim = |key: u128| (key, Arc::clone(map.entry(key).or_default()));
        let line_slots: BTreeMap<u128, PassSlot> = keys.iter().map(|k| claim(k.0)).collect();
        let page_slots: BTreeMap<u128, PassSlot> = keys.iter().map(|k| claim(k.1)).collect();
        drop(map);
        // Every caller locks all its line slots in key order, then all its
        // page slots in key order. A single window is a one-point grid, so
        // it takes its line slot before its page slot. One total order
        // over all slots means no two callers can each hold a slot the
        // other waits for.
        let Some(mut line_guards) = lock_in_key_order(&line_slots) else {
            return full();
        };
        let Some(mut page_guards) = lock_in_key_order(&page_slots) else {
            return full();
        };
        // Each set's halves: from the memo, or simulated now, all misses
        // on one trace.
        let mut halves: Vec<(Option<PassHalf>, Option<PassHalf>)> = keys
            .iter()
            .map(|(line, page)| (*line_guards[line], *page_guards[page]))
            .collect();
        let (missed, passes): (Vec<usize>, Vec<(&Schedule, Halves)>) = halves
            .iter()
            .enumerate()
            .filter_map(|(k, (lines, pages))| {
                let miss = Halves {
                    lines: lines.is_none(),
                    pages: pages.is_none(),
                };
                (miss.lines || miss.pages).then_some((k, (sets[k], miss)))
            })
            .unzip();
        for (&k, (lines, pages)) in missed.iter().zip(simulate(&passes)?) {
            let (memo_lines, memo_pages) = &mut halves[k];
            memo_lines.get_or_insert(simulated(k, lines));
            memo_pages.get_or_insert(simulated(k, pages));
        }
        // The audit, in builds with debug assertions: a half the grid took
        // from the memo is simulated again with the memo off the first time
        // it serves a point's input set (one of its last `AUDITED_INPUTS`),
        // and must match exactly; a half simulated just now already lists
        // its input set, and the grid's audits share one trace. A pass half
        // writes only integer counts, so `==` is bitwise here. A key that
        // omits an input its passes read thus fails at its first stale
        // hit, whatever order threads take; hits that repeat a checked
        // input set — other loads, fork replicas, the other arm of an A/B
        // test — cost nothing. The slots stay locked, so concurrent windows
        // with the same inputs wait for the verdict instead of repeating
        // it.
        #[cfg(debug_assertions)]
        {
            let unchecked = |k: usize, half: &Option<PassHalf>| {
                half.is_some_and(|h| !h.audited.contains(&inputs[k]))
            };
            let (audited, passes): (Vec<usize>, Vec<(&Schedule, Halves)>) = halves
                .iter()
                .enumerate()
                .filter_map(|(k, (lines, pages))| {
                    let audit = Halves {
                        lines: unchecked(k, lines),
                        pages: unchecked(k, pages),
                    };
                    (audit.lines || audit.pages).then_some((k, (sets[k], audit)))
                })
                .unzip();
            for (&k, (fresh_lines, fresh_pages)) in audited.iter().zip(simulate(&passes)?) {
                let (lines, pages) = &mut halves[k];
                for (name, half, fresh) in
                    [("line", lines, fresh_lines), ("page", pages, fresh_pages)]
                {
                    if let Some(half) = half.as_mut().filter(|h| !h.audited.contains(&inputs[k])) {
                        assert_eq!(
                            half.counters, fresh,
                            "stale pass-memo {name} half: a hit differs from evaluation"
                        );
                        half.audited.rotate_right(1);
                        half.audited[0] = inputs[k];
                    }
                }
            }
        }
        for ((line, page), &(lines, pages)) in keys.iter().zip(&halves) {
            if let Some(guard) = line_guards.get_mut(line) {
                **guard = lines;
            }
            if let Some(guard) = page_guards.get_mut(page) {
                **guard = pages;
            }
        }
        drop(page_guards);
        drop(line_guards);
        let counters = |half: Option<PassHalf>| half.map(|h| h.counters).unwrap_or_default();
        let halves: Vec<_> = halves
            .into_iter()
            .map(|(lines, pages)| (counters(lines), counters(pages)))
            .collect();
        Ok(per_point(&halves))
    }

    /// Fingerprint of everything a window's passes could read: the whole
    /// engine (config, spec, seed, warm-up override and batch size), the
    /// schedule, the LLC share and the huge-page mix. It is taken from
    /// their `Debug` output, which covers every field, so unlike the memo
    /// keys it lists nothing that could fall out of date. Load and a
    /// co-runner's bandwidth reach the passes only through the schedule.
    #[cfg(debug_assertions)]
    fn inputs_fingerprint(&self, schedule: &Schedule, share: f64, huge: HugePageMix) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{self:?} {schedule:?} {share:?} {huge:?}").hash(&mut h);
        h.finish()
    }

    /// Simulates `instructions` instructions at `load_fraction` of peak
    /// offered load and returns the full report.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidWindowArgument`] for a zero-length window, a
    /// window whose warm-up plus measured instructions overflow a `u64`, or
    /// a non-finite `load_fraction`;
    /// [`ArchSimError::FixedPointDiverged`] if the bandwidth/latency
    /// iteration fails to settle (does not happen for valid configs; the
    /// queueing curve is a contraction under damping).
    pub fn run_window(
        &self,
        instructions: u64,
        load_fraction: f64,
    ) -> Result<WindowReport, ArchSimError> {
        self.run_colocated(instructions, load_fraction, 0.0, None)
    }

    /// Simulates one window of `instructions` instructions at each load of
    /// `loads` (fractions of peak offered load) and returns the reports in
    /// `loads` order, each bit-identical to [`Engine::run_window`] at its
    /// load. The points share one trace: load reaches the structure passes
    /// only through the context-switch period, so the points whose passes
    /// differ (switches inside the window, at load-dependent periods) are
    /// simulated together, one pass set per distinct period fed by one
    /// trace generation, and points with equal passes share one pass set.
    /// With the memo on, the grid claims every pass-memo slot of its points
    /// before simulating the halves it misses.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_window`] at any point. Every load is checked
    /// before anything is keyed or simulated.
    pub fn run_grid<const N: usize>(
        &self,
        instructions: u64,
        loads: [f64; N],
    ) -> Result<[WindowReport; N], ArchSimError> {
        let reports = self.evaluate(instructions, &loads, 0.0, None)?;
        Ok(reports
            .try_into()
            .expect("`evaluate` returns one report per load"))
    }

    /// Simulates a window while sharing the socket with a co-runner: the
    /// co-runner contributes `background_bw_gbps` of memory traffic to the
    /// loaded-latency queue, and `llc_share` (when given) overrides this
    /// workload's effective LLC fraction (paper Sec. 7: "µSKU and
    /// co-location"). `run_window` is the dedicated-server special case.
    ///
    /// Windows that differ only in inputs the structure passes never see —
    /// load and core frequency (when no context switch lands inside the
    /// window), uncore frequency, prefetchers, the co-runner's bandwidth —
    /// share one run of the passes through a process-wide memo (see
    /// `PASS_MEMO` in this module); so do `AbEnvironment::fork` replicas
    /// re-measuring their parent's operating points. The memo holds the
    /// passes as two halves, each under its own content key, and one
    /// routine (`Engine::pass_keys`) decides which window input reaches
    /// which key. Windows that differ only in THP or SHP settings
    /// share the line half (caches, branch predictor) and simulate only
    /// their TLBs; windows that differ only in LLC ways, the CDP split or
    /// the LLC share share the page half (TLBs) and simulate only their
    /// caches. A window is a one-point [`Engine::run_grid`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_window`], plus
    /// [`ArchSimError::InvalidFraction`] for an out-of-range `llc_share`
    /// and [`ArchSimError::InvalidWindowArgument`] for a non-finite
    /// `background_bw_gbps`. All arguments are checked before anything is
    /// keyed or simulated.
    pub fn run_colocated(
        &self,
        instructions: u64,
        load_fraction: f64,
        background_bw_gbps: f64,
        llc_share: Option<f64>,
    ) -> Result<WindowReport, ArchSimError> {
        let mut reports = self.evaluate(
            instructions,
            &[load_fraction],
            background_bw_gbps,
            llc_share,
        )?;
        Ok(reports
            .pop()
            .expect("`evaluate` returns one report per load"))
    }

    /// Warm-up instructions before a window of `instructions`. The pre-fill
    /// supplies steady-state contents; the warm-up only needs to mix the
    /// interleaved structures.
    fn warmup(&self, instructions: u64) -> u64 {
        self.warmup_override.unwrap_or_else(|| {
            ((instructions as f64 * WARMUP_FRACTION) as u64).clamp(50_000, 400_000)
        })
    }

    /// The grid simulation behind [`Engine::run_grid`] and
    /// [`Engine::run_colocated`], one report per load of `loads`, in order:
    /// every argument is checked first, and the rest is a pure function of
    /// the inputs.
    fn evaluate(
        &self,
        instructions: u64,
        loads: &[f64],
        background_bw_gbps: f64,
        llc_share: Option<f64>,
    ) -> Result<Vec<WindowReport>, ArchSimError> {
        if let Some(s) = llc_share {
            if !(s > 0.0 && s <= 1.0) {
                return Err(ArchSimError::InvalidFraction {
                    name: "llc_share".to_string(),
                    value: s,
                });
            }
        }
        // A window must measure something, and its warm-up plus measured
        // events must count in a `u64`.
        if instructions == 0
            || instructions
                .checked_add(self.warmup(instructions))
                .is_none()
        {
            return Err(ArchSimError::InvalidWindowArgument {
                name: "instructions".to_string(),
                value: instructions as f64,
            });
        }
        let arguments = loads
            .iter()
            .map(|&load| ("load_fraction", load))
            .chain([("background_bw_gbps", background_bw_gbps)]);
        for (name, value) in arguments {
            if !value.is_finite() {
                return Err(ArchSimError::InvalidWindowArgument {
                    name: name.to_string(),
                    value,
                });
            }
        }
        let cfg = &self.config;
        let spec = &self.spec;

        // ------------------------------------------------------------------
        // 1. Resolve derived policies.
        // ------------------------------------------------------------------
        let freq = cfg.effective_core_freq_ghz(spec.mix.fp);
        let (policy, huge) = cfg.resolve_pages(&spec.pages);

        // Per-core effective LLC share under multi-core contention. The LLC
        // is per-socket, so only cores within a socket contend. A co-runner
        // override replaces the same-workload contention estimate.
        let n = cfg.active_cores as f64;
        let contending = n.min(cfg.platform.cores_per_socket as f64);
        let share = match llc_share {
            Some(s) => s,
            None => 1.0 / (1.0 + (contending - 1.0) * spec.llc_contention),
        };
        let loads: Vec<f64> = loads.iter().map(|l| l.clamp(0.05, 1.0)).collect();
        let schedules: Vec<Schedule> = loads
            .iter()
            .map(|&load| self.schedule(instructions, freq, load))
            .collect();

        // ------------------------------------------------------------------
        // 2–3. Drive the pre-filled structures over the grid's trace — or
        //      take the counters of earlier windows with the same passes.
        // ------------------------------------------------------------------
        let counters = self.window_counters(&schedules, share, huge)?;
        loads
            .iter()
            .zip(counters)
            .map(|(&load, c)| self.price(c, load, freq, &policy, background_bw_gbps))
            .collect()
    }

    /// Where a window's chunk boundaries fall at `load` (already clamped)
    /// and core frequency `freq`.
    fn schedule(&self, instructions: u64, freq: f64, load: f64) -> Schedule {
        // Context-switch injection interval (instructions); uses a nominal
        // IPC guess of 1 — only the *pollution placement* depends on it, the
        // direct cost is computed analytically in step 5.
        let cs_rate = self.spec.context_switch.rate_per_sec * load;
        let insns_per_switch = if cs_rate > 0.0 {
            ((freq * 1e9) / cs_rate).max(1_000.0) as u64
        } else {
            u64::MAX
        };
        let warmup = self.warmup(instructions);
        let total = instructions + warmup;
        Schedule {
            warmup,
            total,
            batch_events: self.batch_events as u64,
            // A period of at least the whole window places no switch inside
            // it, exactly as no switches at all; clipping it keeps core
            // frequency and load out of the pass key.
            insns_per_switch: if insns_per_switch < total {
                insns_per_switch
            } else {
                u64::MAX
            },
            pollution: self.spec.context_switch.pollution_fraction,
        }
    }

    /// Steps 4–5 of an evaluation: prices one point's pass counters `c` at
    /// `load` (already clamped) and core frequency `freq` into its report.
    fn price(
        &self,
        mut c: Counters,
        load: f64,
        freq: f64,
        policy: &PagePolicy,
        background_bw_gbps: f64,
    ) -> Result<WindowReport, ArchSimError> {
        let cfg = &self.config;
        let spec = &self.spec;
        let plat = &cfg.platform;
        let pf = PrefetchEffect::resolve(cfg.prefetchers, &spec.prefetch);
        let memory = MemoryModel::new(plat, cfg.uncore_freq_ghz);
        let n = cfg.active_cores as f64;
        let cs_rate = spec.context_switch.rate_per_sec * load;

        // ------------------------------------------------------------------
        // 4. Prefetch coverage + SHP pressure transforms (aggregate).
        // ------------------------------------------------------------------
        let ins = c.instructions as f64;
        let shp_bump = 1.0 + policy.shp_pressure_penalty * SHP_PRESSURE_GAIN;

        let m1 = c.l1d_misses as f64;
        let m2 = c.l2_data_misses as f64 * shp_bump;
        let m3 = c.llc_data_misses as f64 * shp_bump;
        let l1d_eff = m1 * (1.0 - pf.l1d_coverage);
        let l2d_eff = m2 * (1.0 - pf.l1d_coverage * 0.5) * (1.0 - pf.l2_coverage);
        let llcd_eff = m3 * (1.0 - pf.l1d_coverage * 0.3) * (1.0 - pf.l2_coverage * 0.5);
        // Memory-latency exposure after stream-prefetch hiding.
        let llcd_exposed = llcd_eff * (1.0 - pf.llc_coverage);

        // Prefetch waste at the *memory interface*: only prefetches that
        // fill from DRAM cost bandwidth — the DCU units fill from L2/LLC.
        // Waste scales with the LLC-miss fill volume initiated by the L2
        // stream machinery.
        let mem_prefetch_share = pf.llc_coverage + 0.3 * pf.l2_coverage;
        let waste_lines = m3 * mem_prefetch_share * pf.traffic_overhead;

        // Memory traffic (lines): all LLC data misses move a line regardless
        // of latency hiding, plus code misses, prefetch waste, writebacks.
        let store_share = if c.data_accesses > 0 {
            c.stores as f64 / c.data_accesses as f64
        } else {
            0.0
        };
        c.mem_demand_lines = m3 + c.llc_code_misses as f64;
        c.mem_prefetch_lines = waste_lines;
        c.mem_writeback_lines = m3 * store_share * spec.writeback_factor * 2.0;
        let pf_frac = spec.extra_traffic_prefetch_fraction.clamp(0.0, 1.0);
        let extra_scale = (1.0 - pf_frac) + pf_frac * cfg.prefetchers.traffic_weight();
        c.mem_extra_lines = spec.extra_mem_lines_per_ki * extra_scale * ins / 1000.0;

        // ------------------------------------------------------------------
        // 5. CPI fixed point (memory latency <-> bandwidth).
        // ------------------------------------------------------------------
        // Latencies in core cycles at frequency `freq`.
        let l2_lat = plat.l2.latency_cycles as f64;
        // LLC and memory live in the uncore clock domain: express their
        // nominal latencies in ns at nominal uncore, then convert.
        let uncore_nominal = plat.uncore_freq_range_ghz.1;
        let llc_ns = plat.llc.latency_cycles as f64 / uncore_nominal
            * (uncore_nominal / cfg.uncore_freq_ghz);
        let llc_lat = llc_ns * freq;
        let walk_cycles = plat.page_walk_cycles as f64;

        let mispredicts = c.branch_mispredicts as f64;
        let base = ins * base_cpi(&spec.mix) * spec.base_cpi_scale;
        let fp_extra = if spec.mix.fp >= plat.avx_fp_threshold {
            c.fp_ops as f64 * FP_PRESSURE_CPI
        } else {
            0.0
        };

        let l1i_to_l2 = (c.l1i_misses - c.l2_code_misses.min(c.l1i_misses)) as f64;
        let l2c_to_llc = (c.l2_code_misses - c.llc_code_misses.min(c.l2_code_misses)) as f64;
        let llcc_to_mem = c.llc_code_misses as f64;
        let itlb_stlb_hits = (c.itlb_misses - c.itlb_walks) as f64;
        let dtlb_stlb_hits = (c.dtlb_misses - c.dtlb_walks) as f64;

        let l1d_to_l2 = (l1d_eff - l2d_eff).max(0.0);
        let l2d_to_llc = (l2d_eff - llcd_eff).max(0.0);

        let mut mem_lat_ns = memory.unloaded_latency_ns();
        let mut report = None;
        let max_iter = 400;
        for iter in 0..max_iter {
            let mem_lat = mem_lat_ns * freq; // cycles

            let frontend = spec.frontend_exposure
                * (l1i_to_l2 * l2_lat * FE_L2_CHARGE
                    + l2c_to_llc * llc_lat * FE_LLC_CHARGE
                    + llcc_to_mem * mem_lat * FE_MEM_CHARGE
                    + itlb_stlb_hits * STLB_HIT_CYCLES
                    + c.itlb_walks as f64 * walk_cycles * ITLB_WALK_CHARGE);
            let bad_spec = mispredicts * plat.mispredict_penalty_cycles as f64;
            let backend = (l1d_to_l2 * l2_lat
                + l2d_to_llc * llc_lat
                + llcd_exposed * mem_lat
                + (llcd_eff - llcd_exposed) * llc_lat)
                / spec.mlp
                + dtlb_stlb_hits * STLB_HIT_CYCLES
                + c.dtlb_walks as f64 * walk_cycles * DTLB_WALK_CHARGE
                + fp_extra;

            // Context switch direct cost: midpoint of the bound range.
            let time_guess_s = (base + frontend + bad_spec + backend).max(1.0) / (freq * 1e9);
            let switches = cs_rate * time_guess_s;
            let cs_us = 0.5
                * (spec.context_switch.direct_cost_us_low
                    + spec.context_switch.direct_cost_us_high);
            let cs_cycles = switches * cs_us * 1e-6 * freq * 1e9;

            let parts = CpiParts {
                base,
                frontend,
                bad_speculation: bad_spec,
                backend_memory: backend,
                context_switch: cs_cycles,
            };
            let cycles = parts.total();
            let ipc_thread = ins / cycles;
            let width = plat.issue_width as f64;
            let ipc_core = (ipc_thread * (1.0 + spec.smt_gain)).min(width);
            let mips_core = ipc_core * freq * 1e3; // MIPS (million insn/s)
            let mips_total = mips_core * n * load;

            let lines_per_insn = c.mem_total_lines() / ins;
            let bytes_per_sec = lines_per_insn * CACHE_LINE_BYTES as f64 * mips_total * 1e6;
            let offered_gbps = bytes_per_sec / 1e9;
            // A co-runner's traffic loads the same memory queue.
            let offered_total = offered_gbps + background_bw_gbps.max(0.0);
            let bw = memory.deliverable_bandwidth_gbps(offered_gbps);
            let new_lat = memory.loaded_latency_ns(offered_total, spec.burstiness);

            let converged = (new_lat - mem_lat_ns).abs() < 1e-3 * new_lat.max(1.0);
            if converged || iter == max_iter - 1 {
                let utilization = memory.utilization(bw + background_bw_gbps.max(0.0));
                let mut final_c = c;
                final_c.cycles = cycles;
                final_c.context_switches = switches;
                let tmam = TmamBreakdown::from_cycles(ins, cycles, frontend, bad_spec, width);
                report = Some(WindowReport {
                    counters: final_c,
                    ipc_thread,
                    ipc_core,
                    mips_per_core: mips_core,
                    mips_total,
                    bandwidth_gbps: bw,
                    mem_latency_ns: new_lat,
                    mem_utilization: utilization,
                    bandwidth_bound: utilization > 0.90,
                    cpi: parts,
                    tmam,
                    effective_core_freq_ghz: freq,
                    context_switch_fraction: cs_cycles / cycles,
                });
                break;
            }
            // Heavily damped update: the loaded-latency curve is steep near
            // saturation and an undamped (or lightly damped) iteration
            // oscillates between a high-latency/low-throughput state and its
            // mirror image.
            mem_lat_ns = 0.85 * mem_lat_ns + 0.15 * new_lat;
        }
        report.ok_or(ArchSimError::FixedPointDiverged {
            iterations: max_iter,
        })
    }
}

/// Where a window's chunk boundaries fall.
#[derive(Debug, PartialEq)]
struct Schedule {
    /// Warm-up events; statistics reset before event `warmup`.
    warmup: u64,
    /// Warm-up plus measured events.
    total: u64,
    /// Largest chunk.
    batch_events: u64,
    /// Context-switch period in events (`u64::MAX`: no switch inside the
    /// window).
    insns_per_switch: u64,
    /// Fraction of L1/L2/TLB state each switch flushes.
    pollution: f64,
}

/// The chunks of one trace that feeds a pass set per schedule of
/// `schedules`, as event ranges, in order, computed lazily. The schedules
/// cover the same events. Each chunk ends at the first boundary any of
/// them places there, so a chunk never crosses a warm-up reset and ends
/// exactly at every schedule's context-switch points (the flush lands
/// after that event). A pass set flushes only at its own switch points
/// ([`Schedule::switches_after`]), and bit-identity holds at any chunking
/// that keeps these bounds (DESIGN §13.2), so each set's counters are
/// those of its schedule's own chunks. One window's chunks are the union
/// over one schedule.
fn chunks<'a>(schedules: &'a [&'a Schedule]) -> impl Iterator<Item = Range<u64>> + Send + 'a {
    let total = schedules.first().map_or(0, |s| s.total);
    debug_assert!(schedules.iter().all(|s| s.total == total));
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= total {
            return None;
        }
        let end = schedules
            .iter()
            .map(|s| s.chunk_end(i))
            .min()
            .unwrap_or(total);
        let chunk = i..end;
        i = end;
        Some(chunk)
    })
}

impl Schedule {
    /// Where the chunk starting at event `i` ends under this schedule
    /// alone: at most `batch_events` later, at the warm-up reset, or just
    /// after the next context-switch point.
    fn chunk_end(&self, i: u64) -> u64 {
        let mut end = self.total.min(i.saturating_add(self.batch_events));
        if i < self.warmup {
            end = end.min(self.warmup);
        }
        if self.insns_per_switch != u64::MAX {
            let next_switch = if i == 0 {
                self.insns_per_switch
            } else {
                i.div_ceil(self.insns_per_switch) * self.insns_per_switch
            };
            end = end.min(next_switch.saturating_add(1));
        }
        end
    }

    /// True when a context switch lands on the chunk's last event, so its
    /// pollution flush follows the chunk.
    fn switches_after(&self, chunk: &Range<u64>) -> bool {
        let last = chunk.end - 1;
        last > 0 && self.insns_per_switch != u64::MAX && last.is_multiple_of(self.insns_per_switch)
    }
}

/// Batches alive in a pipelined window: one being simulated while the
/// generator thread fills the next.
const BATCHES_IN_FLIGHT: usize = 2;

/// Runs `produce` on a scoped thread one chunk ahead of `consume` on the
/// caller's thread, over the chunks of `chunks` in order. The producer
/// reads the chunk bounds and sends each with its filled batch through a
/// bounded channel; the consumer hands each batch back for reuse, so only
/// [`BATCHES_IN_FLIGHT`] batches of `capacity` events are ever allocated.
///
/// A panic on either side propagates to the caller with its payload and
/// never leaves the other side blocked: a panicking producer drops its
/// sender, which ends the consumer's loop before the join re-raises; a
/// panicking consumer drops its channel ends, which ends the producer's.
fn pipeline<I, P, C>(chunks: I, capacity: usize, mut produce: P, mut consume: C)
where
    I: Iterator<Item = Range<u64>> + Send,
    P: FnMut(&mut EventBatch, usize) + Send,
    C: FnMut(Range<u64>, &mut EventBatch),
{
    std::thread::scope(|s| {
        let (full_tx, full_rx) = mpsc::sync_channel::<(Range<u64>, EventBatch)>(BATCHES_IN_FLIGHT);
        let (empty_tx, empty_rx) = mpsc::sync_channel::<EventBatch>(BATCHES_IN_FLIGHT);
        for _ in 0..BATCHES_IN_FLIGHT {
            let _ = empty_tx.send(EventBatch::with_capacity(capacity));
        }
        let producer = s.spawn(move || {
            for chunk in chunks {
                let Ok(mut batch) = empty_rx.recv() else {
                    return;
                };
                produce(&mut batch, (chunk.end - chunk.start) as usize);
                if full_tx.send((chunk, batch)).is_err() {
                    return;
                }
            }
        });
        for (chunk, mut batch) in full_rx.iter() {
            consume(chunk, &mut batch);
            // The producer may already be done; the batch is then dropped.
            let _ = empty_tx.send(batch);
        }
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

/// The pass sets one trace feeds, one per schedule.
struct WindowSim<'a> {
    sets: Vec<PassSet<'a>>,
}

/// One schedule's mutable state, split at the line/page seam: each half is
/// `None` when the window takes it from the pass memo.
struct PassSet<'a> {
    schedule: &'a Schedule,
    lines: Option<LineSim>,
    pages: Option<PageSim>,
}

/// The line half of a window: the pre-filled caches, the branch predictor
/// and the engine sampling stream it draws from, the half's counters, and
/// its first-level miss lists (chunk-relative event indices for the code
/// side, chunk-relative slot indices for the data side), reused across
/// chunks.
struct LineSim {
    warm: WarmCaches,
    bpu: BranchPredictor,
    rng: rand::rngs::SmallRng,
    counters: Counters,
    l1i_miss: Vec<u32>,
    l1d_miss: Vec<u32>,
}

/// The page half of a window: the pre-filled TLB hierarchy, the half's
/// counters, and its first-level miss lists.
struct PageSim {
    tlb: TlbHierarchy,
    counters: Counters,
    itlb_miss: Vec<u32>,
    dtlb_miss: Vec<u32>,
}

impl WindowSim<'_> {
    /// Drives every pass set's simulated halves over the trace and returns
    /// each set's line half counters and page half counters, in set order
    /// (all zero for a half not simulated).
    ///
    /// The trace runs on two threads (see [`pipeline`]): a scoped thread
    /// runs the generator's code half one chunk ahead, while this thread
    /// maps each chunk's data half and then runs every set's structure
    /// passes over it. The code half alone consumes the generator's RNG,
    /// in per-event order, and each half's mappers see their accesses in
    /// order, so the batches are exactly [`TraceGenerator::fill_batch`]'s
    /// in every column the simulated halves read. The chunks end at every
    /// set's boundaries ([`chunks`]).
    ///
    /// The sets, and each set's line and page passes, touch disjoint state
    /// — the caches, BPU and sampling stream against the TLBs — and each
    /// applies its own warm-up reset and context-switch flushes, so each
    /// half's counters are the same whether or not any other half runs.
    fn run(mut self, gen: &mut TraceGenerator) -> Vec<(Counters, Counters)> {
        let schedules: Vec<&Schedule> = self.sets.iter().map(|set| set.schedule).collect();
        let capacity = schedules.first().map_or(0, |s| s.batch_events.min(s.total));
        let (code, data) = gen.halves();
        pipeline(
            chunks(&schedules),
            capacity as usize,
            |batch, n| code.fill(batch, n),
            |chunk, batch| {
                data.fill(batch);
                for set in &mut self.sets {
                    if let Some(lines) = &mut set.lines {
                        lines.pass(set.schedule, &chunk, batch);
                    }
                    if let Some(pages) = &mut set.pages {
                        pages.pass(set.schedule, &chunk, batch);
                    }
                }
            },
        );
        self.sets
            .into_iter()
            .map(|set| {
                (
                    set.lines.map_or_else(Counters::default, LineSim::finish),
                    set.pages.map_or_else(Counters::default, PageSim::finish),
                )
            })
            .collect()
    }
}

impl LineSim {
    /// A line half over the pre-filled caches `warm`, with `engine`'s
    /// branch predictor and sampling stream.
    fn new(warm: WarmCaches, engine: &Engine) -> Self {
        LineSim {
            warm,
            bpu: BranchPredictor::new(
                engine.spec.branch.base_mispredict,
                engine.spec.branch.branch_working_set,
                engine.config.platform.btb_entries,
            ),
            rng: rand_for(softsku_telemetry::stream_seed(
                engine.seed,
                softsku_telemetry::StreamFamily::EngineSampling,
            )),
            counters: Counters::default(),
            l1i_miss: Vec::new(),
            l1d_miss: Vec::new(),
        }
    }

    /// Runs the line half's passes over one chunk's events, `chunk` of the
    /// window: the class tallies, L1i, L1d, the L2/LLC merge, the branch
    /// pass and the cache flushes.
    ///
    /// The per-event probe chain is restructured into per-structure passes
    /// over the SoA chunk. Bit-identity with the per-event loop holds
    /// because (a) each chunk is filled with the exact per-event draw
    /// sequence, (b) the independent structures (L1i, L1d, first-level
    /// ITLB/DTLB, partitioned LLC sides, BPU) each see their exact
    /// per-event access subsequence, and (c) the *shared* structures
    /// (unified L2, unified STLB) are driven by an event-ordered merge of
    /// the first-level misses, code before data within an event — the
    /// per-event probe order. [`chunks`] clamps chunk bounds so
    /// the warm-up reset and context-switch flushes land between the same
    /// events as in the per-event loop.
    fn pass(&mut self, schedule: &Schedule, chunk: &Range<u64>, ch: &EventBatch) {
        let LineSim {
            warm: WarmCaches { l1i, l1d, l2, llc },
            bpu,
            rng,
            counters: c,
            l1i_miss: i1_miss,
            l1d_miss: d1_miss,
        } = self;
        if chunk.start == schedule.warmup {
            l1i.reset_stats();
            l1d.reset_stats();
            l2.reset_stats();
            llc.reset_stats();
            bpu.reset_stats();
            *c = Counters::default();
        }
        let n = ch.len() as u64;

        // Whole-chunk class tallies (no per-event dispatch).
        let [branches, fp_ops, loads, stores] = ch.tallies();
        c.instructions += n;
        c.code_accesses += n;
        c.branches += branches;
        c.fp_ops += fp_ops;
        c.loads += loads;
        c.stores += stores;
        c.data_accesses += loads + stores;

        // Independent first-level passes: one array sweep per structure.
        // The LLC is probed (and its recency updated) on every L1 miss —
        // mostly-inclusive behaviour; without the recency refresh, lines
        // hot in L2 would go LLC-stale and the capacity between L2 and
        // LLC would be invisible.
        i1_miss.clear();
        for (k, &line) in ch.code_lines.iter().enumerate() {
            if !l1i.access(line) {
                i1_miss.push(k as u32);
            }
        }
        c.l1i_misses += i1_miss.len() as u64;

        d1_miss.clear();
        for (s, &line) in ch.data_lines.iter().enumerate() {
            if !l1d.access(line) {
                d1_miss.push(s as u32);
            }
        }
        c.l1d_misses += d1_miss.len() as u64;

        // Ordered fix-up over the shared L2 (and the LLC, probed right
        // after it per missing event): event-ordered merge of the
        // first-level misses, code before data within an event.
        let (mut ci, mut di) = (0usize, 0usize);
        while ci < i1_miss.len() || di < d1_miss.len() {
            let ce = i1_miss.get(ci).copied().unwrap_or(u32::MAX);
            let de = d1_miss
                .get(di)
                .map_or(u32::MAX, |&s| ch.data_event[s as usize]);
            if ce <= de {
                let line = ch.code_lines[ce as usize];
                let l2_hit = l2.access(line | CODE_TAG);
                let llc_hit = llc.access_code(line);
                if !l2_hit {
                    c.l2_code_misses += 1;
                    if !llc_hit {
                        c.llc_code_misses += 1;
                    }
                }
                ci += 1;
            } else {
                let s = d1_miss[di] as usize;
                let line = ch.data_lines[s];
                let l2_hit = l2.access(line);
                let llc_hit = llc.access_data(line);
                if !l2_hit {
                    c.l2_data_misses += 1;
                    if !llc_hit {
                        c.llc_data_misses += 1;
                    }
                }
                di += 1;
            }
        }

        // Branch pass: the BPU carries no state between draws, so
        // replaying the chunk's branch count consumes the engine
        // sampling stream in exactly the per-event order.
        for _ in 0..branches {
            if bpu.predict(rng) {
                c.branch_mispredicts += 1;
            }
        }

        // Context-switch pollution after the event at the switch point.
        if schedule.switches_after(chunk) {
            let poll = schedule.pollution;
            l1i.flush_fraction(poll);
            l1d.flush_fraction(poll);
            l2.flush_fraction(poll * 0.5);
        }
    }

    /// The line half's counters, with the BTB misses filled in.
    fn finish(self) -> Counters {
        let mut c = self.counters;
        let (_, _, btb) = self.bpu.stats();
        c.btb_misses = btb;
        c
    }
}

impl PageSim {
    /// A page half over the pre-filled TLB hierarchy `tlb`.
    fn new(tlb: TlbHierarchy) -> Self {
        PageSim {
            tlb,
            counters: Counters::default(),
            itlb_miss: Vec::new(),
            dtlb_miss: Vec::new(),
        }
    }

    /// Runs the page half's passes over one chunk's events: the ITLB and
    /// DTLB sweeps over the page ranks (splitting DTLB misses into loads
    /// and stores), the event-ordered STLB merge over the missing pages'
    /// ids and the TLB flush, at the same chunk bounds as
    /// [`LineSim::pass`].
    fn pass(&mut self, schedule: &Schedule, chunk: &Range<u64>, ch: &EventBatch) {
        let PageSim {
            tlb,
            counters: c,
            itlb_miss,
            dtlb_miss,
        } = self;
        if chunk.start == schedule.warmup {
            tlb.reset_stats();
            *c = Counters::default();
        }

        itlb_miss.clear();
        for (k, &rank) in ch.code_page_ranks.iter().enumerate() {
            if !tlb.probe_code_l1(rank, ch.code_huge[k]) {
                itlb_miss.push(k as u32);
            }
        }

        dtlb_miss.clear();
        for (s, &rank) in ch.data_page_ranks.iter().enumerate() {
            if !tlb.probe_data_l1(rank, ch.data_huge[s]) {
                dtlb_miss.push(s as u32);
                if ch.data_is_store[s] {
                    c.dtlb_store_misses += 1;
                } else {
                    c.dtlb_load_misses += 1;
                }
            }
        }

        // Event-ordered merge for the shared STLB, as for the L2.
        let (mut ci, mut di) = (0usize, 0usize);
        while ci < itlb_miss.len() || di < dtlb_miss.len() {
            let ce = itlb_miss.get(ci).copied().unwrap_or(u32::MAX);
            let de = dtlb_miss
                .get(di)
                .map_or(u32::MAX, |&s| ch.data_event[s as usize]);
            if ce <= de {
                let k = ce as usize;
                let _ = tlb.probe_stlb_code(ch.code_pages[k], ch.code_huge[k]);
                ci += 1;
            } else {
                let s = dtlb_miss[di] as usize;
                let _ = tlb.probe_stlb_data(ch.data_pages[s], ch.data_huge[s]);
                di += 1;
            }
        }

        if schedule.switches_after(chunk) {
            tlb.flush_fraction(schedule.pollution);
        }
    }

    /// The page half's counters, with the TLB aggregates filled in.
    fn finish(self) -> Counters {
        let mut c = self.counters;
        let (_, itlb_miss, itlb_walk) = self.tlb.itlb_stats();
        let (_, dtlb_miss, dtlb_walk) = self.tlb.dtlb_stats();
        c.itlb_misses = itlb_miss;
        c.itlb_walks = itlb_walk;
        c.dtlb_misses = dtlb_miss;
        c.dtlb_walks = dtlb_walk;
        c
    }
}

/// Locks every slot of `slots` in key order; `None` if one is poisoned.
fn lock_in_key_order(
    slots: &BTreeMap<u128, PassSlot>,
) -> Option<BTreeMap<u128, MutexGuard<'_, Option<PassHalf>>>> {
    let mut guards = BTreeMap::new();
    for (&key, slot) in slots {
        let guard = slot.lock().ok()?;
        guards.insert(key, guard);
    }
    Some(guards)
}

/// One pass set's copy of structures that `left` pass sets still need:
/// the last one takes `built`, the others clone it.
fn hand_out<T: Clone>(built: &mut Option<T>, left: &mut usize) -> Option<T> {
    *left -= 1;
    if *left == 0 {
        built.take()
    } else {
        built.clone()
    }
}

/// Joins a window's two pass halves into its counters: the TLB counters
/// from `pages`, everything else from `lines`. `pages` is destructured
/// without `..`, so a counter added to [`Counters`] fails to compile here
/// until it is assigned to a half.
fn merge_halves(lines: Counters, pages: Counters) -> Counters {
    let Counters {
        itlb_misses,
        itlb_walks,
        dtlb_misses,
        dtlb_load_misses,
        dtlb_store_misses,
        dtlb_walks,
        // The line half: class tallies, cache misses and the branch pass.
        instructions: _,
        code_accesses: _,
        l1i_misses: _,
        l2_code_misses: _,
        llc_code_misses: _,
        data_accesses: _,
        loads: _,
        stores: _,
        l1d_misses: _,
        l2_data_misses: _,
        llc_data_misses: _,
        branches: _,
        branch_mispredicts: _,
        btb_misses: _,
        fp_ops: _,
        // Set by steps 4–5 of `Engine::evaluate`; zero in both halves.
        cycles: _,
        context_switches: _,
        mem_demand_lines: _,
        mem_prefetch_lines: _,
        mem_writeback_lines: _,
        mem_extra_lines: _,
    } = pages;
    Counters {
        itlb_misses,
        itlb_walks,
        dtlb_misses,
        dtlb_load_misses,
        dtlb_store_misses,
        dtlb_walks,
        ..lines
    }
}

/// Builds the caches and pre-fills them with steady-state MRU contents: a
/// function of the cache geometries, the enabled ways, the CDP split or
/// natural code share, the LLC share and the two line distributions.
///
/// The stack mappers start at steady state (pre-warmed stacks), but a cold
/// cache would need millions of accesses before lines at LLC-scale reuse
/// distances could hit: every deep re-reference would be an in-structure
/// compulsory miss and large-capacity hits would be invisible in a short
/// window. So each cache holds the top of the corresponding stream's LRU
/// stack, as if those ids had just been accessed deepest-first.
///
/// A stream's pre-warmed stack holds `pw - 1, pw - 2, …, 0`, most recent
/// first. Each cache is filled straight from that order with
/// [`SetAssocCache::fill_mru_first`]. The ids are distinct and the caches
/// start empty, so the state is exactly what replaying them deepest-first
/// through `access` leaves, at one set-index hash per id.
fn build_warm_caches(
    cfg: &ServerConfig,
    spec: &StreamSpec,
    share: f64,
) -> Result<WarmCaches, ArchSimError> {
    use crate::trace::prewarm_len;
    let plat = &cfg.platform;
    let mut l1i = SetAssocCache::from_geometry(&plat.l1i, plat.l1i.ways, 1.0)?;
    let mut l1d = SetAssocCache::from_geometry(&plat.l1d, plat.l1d.ways, 1.0)?;
    let mut l2 = SetAssocCache::from_geometry(&plat.l2, plat.l2.ways, 1.0)?;
    let mut llc = match cfg.cdp {
        Some(p) => SharedLlc::build(&plat.llc, cfg.llc_ways_enabled, p, share)?,
        None => SharedLlc::natural_split(
            &plat.llc,
            cfg.llc_ways_enabled,
            spec.natural_code_llc_share.clamp(0.05, 0.95),
            share,
        )?,
    };

    let code_pw = prewarm_len(&spec.code_reuse);
    let data_pw = prewarm_len(&spec.data_reuse);
    // The `depth` most recent ids of a stream, most recent first.
    let top = |pw: u64, depth: u64| (pw.saturating_sub(depth)..pw).rev();
    let (code_cap, data_cap) = llc.capacities();
    llc.fill_code_mru_first(top(code_pw, code_cap));
    llc.fill_data_mru_first(top(data_pw, data_cap));
    // L2 is unified: it holds the two streams' MRU halves interleaved,
    // the data id more recent than the code id at each depth.
    l2.fill_mru_first((1..=plat.l2.lines() / 2).flat_map(|i| {
        let data = (i <= data_pw).then(|| data_pw - i);
        let code = (i <= code_pw).then(|| (code_pw - i) | CODE_TAG);
        data.into_iter().chain(code)
    }));
    l1i.fill_mru_first(top(code_pw, plat.l1i.lines()));
    l1d.fill_mru_first(top(data_pw, plat.l1d.lines()));
    Ok(WarmCaches { l1i, l1d, l2, llc })
}

/// The pre-filled TLBs: a function of the TLB geometries and the two page
/// distributions. The 4 KiB sides (the dominant arrays) are seeded with
/// the top pages of each page stream, half the STLB's entries each
/// ([`TlbHierarchy::prefilled`]).
fn build_warm_tlb(cfg: &ServerConfig, spec: &StreamSpec) -> Result<TlbHierarchy, ArchSimError> {
    use crate::trace::prewarm_len;
    let plat = &cfg.platform;
    let seedn = u64::from(plat.stlb_entries) / 2;
    // The `seedn` most recent ids of a stream, deepest first.
    let top = |pw: u64| pw.saturating_sub(seedn)..pw;
    TlbHierarchy::prefilled(
        &plat.itlb,
        &plat.dtlb,
        plat.stlb_entries,
        top(prewarm_len(&spec.code_page_reuse)),
        top(prewarm_len(&spec.data_page_reuse)),
    )
}

/// Hashes what shapes a cache's contents: capacity and ways. Hit latency
/// prices an access; it does not shape contents.
fn push_cache_geometry(h: &mut Fnv128, g: &CacheGeometry) {
    let CacheGeometry {
        capacity_bytes,
        ways,
        latency_cycles: _,
    } = *g;
    h.push(capacity_bytes);
    h.push(u64::from(ways));
}

/// Hashes a first-level TLB's geometry.
fn push_tlb_geometry(h: &mut Fnv128, t: &TlbGeometry) {
    let TlbGeometry {
        entries_4k,
        entries_2m,
    } = *t;
    h.push(u64::from(entries_4k));
    h.push(u64::from(entries_2m));
}

/// Hashes how the LLC splits between code and data: the CDP partition, or
/// without one the natural code share.
fn push_llc_split(h: &mut Fnv128, cdp: Option<CdpPartition>, natural_code_llc_share: f64) {
    match cdp {
        Some(CdpPartition {
            data_ways,
            code_ways,
        }) => {
            h.push(1);
            h.push(u64::from(data_ways));
            h.push(u64::from(code_ways));
        }
        None => {
            h.push(0);
            h.push_f64(natural_code_llc_share);
        }
    }
}

/// Base (no-stall) CPI from the instruction mix: per-class issue costs on a
/// 4-wide machine with typical port pressure.
fn base_cpi(mix: &crate::stream::InstructionMix) -> f64 {
    0.25 * mix.arith + 0.28 * mix.branch + 0.40 * mix.fp + 0.30 * mix.load + 0.30 * mix.store
}

fn rand_for(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseDistanceDist;
    use crate::stream::{
        BranchProfile, ContextSwitchProfile, InstructionMix, PageProfile, PrefetchAffinity,
    };

    fn test_spec() -> StreamSpec {
        let line = ReuseDistanceDist::from_survival_points(
            &[(400, 0.12), (12_000, 0.03), (300_000, 0.008)],
            0.002,
            2_000_000,
        )
        .unwrap();
        let code = ReuseDistanceDist::from_survival_points(
            &[(400, 0.06), (12_000, 0.01)],
            0.0005,
            200_000,
        )
        .unwrap();
        let page = ReuseDistanceDist::single_knee(48, 0.02, 0.002, 60_000).unwrap();
        StreamSpec {
            name: "engine-test".to_string(),
            mix: InstructionMix::new(0.20, 0.02, 0.29, 0.34, 0.15).unwrap(),
            code_reuse: code,
            data_reuse: line,
            code_page_reuse: page.clone(),
            data_page_reuse: page,
            branch: BranchProfile {
                taken_rate: 0.6,
                base_mispredict: 0.02,
                branch_working_set: 2000,
            },
            prefetch: PrefetchAffinity::modest(),
            pages: PageProfile {
                data_compaction: 32.0,
                code_compaction: 128.0,
                madvise_fraction: 0.25,
                uses_shp: true,
                shp_target_bytes: 300 * (2 << 20),
            },
            context_switch: ContextSwitchProfile::quiet(),
            mlp: 3.5,
            smt_gain: 0.25,
            base_cpi_scale: 1.0,
            writeback_factor: 0.4,
            burstiness: 1.0,
            llc_contention: 0.3,
            natural_code_llc_share: 0.35,
            extra_mem_lines_per_ki: 0.0,
            extra_traffic_prefetch_fraction: 0.3,
            frontend_exposure: 0.6,
        }
    }

    fn engine_with(cfg: ServerConfig) -> Engine {
        Engine::new(cfg, test_spec(), 7).unwrap()
    }

    const WINDOW: u64 = 150_000;

    #[test]
    fn stock_config_runs_and_is_sane() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let r = e.run_window(WINDOW, 1.0).unwrap();
        assert!(
            r.ipc_thread > 0.1 && r.ipc_thread < 4.0,
            "ipc {}",
            r.ipc_thread
        );
        assert!(r.ipc_core >= r.ipc_thread);
        assert!(r.mips_total > 0.0);
        assert!(r.mem_latency_ns >= 85.0);
        let t = r.tmam;
        let sum = t.retiring + t.frontend + t.bad_speculation + t.backend;
        assert!((sum - 1.0).abs() < 1e-9, "TMAM must sum to 1, got {sum}");
        assert!(t.retiring > 0.0 && t.retiring < 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let a = e.run_window(WINDOW, 1.0).unwrap();
        let b = e.run_window(WINDOW, 1.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_core_frequency_means_more_mips() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.core_freq_ghz = 2.2;
        let fast = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.core_freq_ghz = 1.6;
        let slow = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(fast.mips_total > slow.mips_total * 1.05);
        // Sub-linear: memory latency in cycles grows with frequency.
        let ratio = fast.mips_total / slow.mips_total;
        assert!(ratio < 2.2 / 1.6, "scaling must be sub-linear, got {ratio}");
    }

    #[test]
    fn lower_uncore_frequency_hurts() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.uncore_freq_ghz = 1.8;
        let fast = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.uncore_freq_ghz = 1.4;
        let slow = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(fast.mips_total > slow.mips_total);
    }

    #[test]
    fn fewer_llc_ways_more_misses() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.llc_ways_enabled = 11;
        let full = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.llc_ways_enabled = 2;
        let tiny = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(
            tiny.counters.llc_data_mpki() > full.counters.llc_data_mpki(),
            "2 ways {} vs 11 ways {}",
            tiny.counters.llc_data_mpki(),
            full.counters.llc_data_mpki()
        );
    }

    #[test]
    fn invalid_configs_rejected_at_construction() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.core_freq_ghz = 3.0;
        assert!(Engine::new(cfg, test_spec(), 0).is_err());

        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.cdp = Some(CdpPartition {
            data_ways: 6,
            code_ways: 6,
        });
        assert!(Engine::new(cfg, test_spec(), 0).is_err());

        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.active_cores = 0;
        assert!(Engine::new(cfg, test_spec(), 0).is_err());
    }

    #[test]
    fn avx_tax_applies_to_fp_heavy_mix() {
        let cfg = ServerConfig::stock(PlatformSpec::skylake18());
        assert_eq!(cfg.effective_core_freq_ghz(0.05), 2.2);
        assert_eq!(cfg.effective_core_freq_ghz(0.30), 2.0);
    }

    #[test]
    fn prefetchers_help_when_bandwidth_is_free() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.prefetchers = PrefetcherConfig::all_on();
        let on = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.prefetchers = PrefetcherConfig::all_off();
        let off = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(
            on.mips_total > off.mips_total,
            "prefetch on {} vs off {}",
            on.mips_total,
            off.mips_total
        );
        assert!(
            on.bandwidth_gbps > off.bandwidth_gbps,
            "prefetch adds traffic"
        );
    }

    #[test]
    fn context_switch_fraction_scales_with_rate() {
        let mut spec = test_spec();
        spec.context_switch.rate_per_sec = 150_000.0;
        spec.context_switch.pollution_fraction = 0.3;
        let busy = Engine::new(ServerConfig::stock(PlatformSpec::skylake18()), spec, 7)
            .unwrap()
            .run_window(WINDOW, 1.0)
            .unwrap();
        let quiet = engine_with(ServerConfig::stock(PlatformSpec::skylake18()))
            .run_window(WINDOW, 1.0)
            .unwrap();
        assert!(busy.context_switch_fraction > 10.0 * quiet.context_switch_fraction);
        assert!(busy.context_switch_fraction > 0.02 && busy.context_switch_fraction < 0.5);
    }

    #[test]
    fn load_fraction_scales_bandwidth_not_ipc_much() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let full = e.run_window(WINDOW, 1.0).unwrap();
        let half = e.run_window(WINDOW, 0.5).unwrap();
        assert!(half.mips_total < full.mips_total);
        assert!(half.bandwidth_gbps < full.bandwidth_gbps);
    }

    /// The huge-page mix an engine's windows resolve to.
    fn huge_mix(e: &Engine) -> HugePageMix {
        e.config().resolve_pages(&e.spec().pages).1
    }

    /// One named knob setting.
    type Knob = (&'static str, fn(&mut ServerConfig));

    /// The resolved huge-page mix is the one channel by which knobs reach
    /// the page key: `pass_keys_cover_exactly_what_each_half_reads` shows
    /// that no knob's field keys the page half directly. Only THP and SHP
    /// move it.
    #[test]
    fn only_page_knobs_move_the_huge_page_mix() {
        let stock = ServerConfig::stock(PlatformSpec::skylake18());
        let mix = huge_mix(&engine_with(stock.clone()));
        let shares: [Knob; 6] = [
            ("core_freq", |c| c.core_freq_ghz = 1.6),
            ("uncore_freq", |c| c.uncore_freq_ghz = 1.4),
            ("active_cores", |c| c.active_cores = 8),
            ("llc_ways", |c| c.llc_ways_enabled = 6),
            ("cdp", |c| {
                c.cdp = Some(CdpPartition {
                    data_ways: 8,
                    code_ways: 3,
                })
            }),
            ("prefetchers", |c| {
                c.prefetchers = PrefetcherConfig::all_off()
            }),
        ];
        let splits: [Knob; 2] = [
            ("thp", |c| c.thp = ThpMode::NeverOn),
            ("shp", |c| c.shp_pages = 200),
        ];
        for (group, moves) in [(&shares[..], false), (&splits[..], true)] {
            for &(name, knob) in group {
                let mut cfg = stock.clone();
                knob(&mut cfg);
                assert_eq!(huge_mix(&engine_with(cfg)) != mix, moves, "{name}");
            }
        }
    }

    /// Everything the line and page keys are built from.
    struct PassInputs {
        config: ServerConfig,
        spec: StreamSpec,
        seed: u64,
        warmup_override: Option<u64>,
        schedule: Schedule,
        share: f64,
        huge: HugePageMix,
    }

    /// One named change to the pass inputs.
    type Perturb = (&'static str, fn(&mut PassInputs));

    /// The line and page keys of the stock inputs after `perturb`. The
    /// engine is built field by field, so a perturbation may leave a spec
    /// that `Engine::new` would reject (a mix no longer summing to 1).
    fn pass_keys_after(perturb: fn(&mut PassInputs)) -> (u128, u128) {
        let mut k = PassInputs {
            config: ServerConfig::stock(PlatformSpec::skylake18()),
            spec: test_spec(),
            seed: 7,
            warmup_override: None,
            schedule: Schedule {
                warmup: 50_000,
                total: 200_000,
                batch_events: 4096,
                insns_per_switch: 30_000,
                pollution: 0.3,
            },
            share: 0.8,
            huge: HugePageMix {
                code_huge_fraction: 0.1,
                data_huge_fraction: 0.6,
            },
        };
        perturb(&mut k);
        let engine = Engine {
            config: k.config,
            spec: k.spec,
            seed: k.seed,
            batch_events: DEFAULT_BATCH_EVENTS,
            warmup_override: k.warmup_override,
            use_memo: true,
        };
        engine.pass_keys(&k.schedule, k.share, k.huge)
    }

    fn other_dist() -> ReuseDistanceDist {
        ReuseDistanceDist::single_knee(32, 0.1, 0.01, 5_000).unwrap()
    }

    /// Which inputs key which half of the pass memo. The mix, the seed and
    /// the schedule fix the RNG sequence and the chunk bounds, so they key
    /// both halves. The cache geometry, the LLC split and share, the line
    /// distributions and the BPU key only the line half. The TLB geometry,
    /// the page distributions and compactions and the huge-page mix key
    /// only the page half. Knobs that act in steps 4–5, or that reach the
    /// passes only through the schedule, the share or the huge mix, key
    /// neither directly; nor do the display label and the traits that price
    /// the counters.
    #[test]
    fn pass_keys_cover_exactly_what_each_half_reads() {
        let (lines, pages) = pass_keys_after(|_| {});
        let both: [Perturb; 10] = [
            ("seed", |k| k.seed = 8),
            ("mix.branch", |k| k.spec.mix.branch += 0.01),
            ("mix.fp", |k| k.spec.mix.fp += 0.01),
            ("mix.arith", |k| k.spec.mix.arith += 0.01),
            ("mix.load", |k| k.spec.mix.load += 0.01),
            ("mix.store", |k| k.spec.mix.store += 0.01),
            ("warmup", |k| k.schedule.warmup = 40_000),
            ("total", |k| k.schedule.total = 200_001),
            ("switch period", |k| k.schedule.insns_per_switch = 31_000),
            ("pollution", |k| k.schedule.pollution = 0.4),
        ];
        let line_half: [Perturb; 13] = [
            ("llc_ways", |k| k.config.llc_ways_enabled = 6),
            ("cdp", |k| k.config.cdp = CdpPartition::new(8, 3, 11).ok()),
            ("share", |k| k.share = 0.5),
            ("l1i", |k| k.config.platform.l1i.capacity_bytes *= 2),
            ("l1d", |k| k.config.platform.l1d.ways += 1),
            ("l2", |k| k.config.platform.l2.capacity_bytes *= 2),
            ("llc", |k| k.config.platform.llc.capacity_bytes *= 2),
            ("btb_entries", |k| k.config.platform.btb_entries += 1),
            ("code_reuse", |k| k.spec.code_reuse = other_dist()),
            ("data_reuse", |k| k.spec.data_reuse = other_dist()),
            ("natural_code_llc_share", |k| {
                k.spec.natural_code_llc_share = 0.5
            }),
            ("base_mispredict", |k| k.spec.branch.base_mispredict = 0.05),
            ("branch_working_set", |k| {
                k.spec.branch.branch_working_set = 4000
            }),
        ];
        let page_half: [Perturb; 9] = [
            ("itlb", |k| k.config.platform.itlb.entries_4k *= 2),
            ("dtlb", |k| k.config.platform.dtlb.entries_2m *= 2),
            ("stlb_entries", |k| k.config.platform.stlb_entries *= 2),
            ("code_page_reuse", |k| k.spec.code_page_reuse = other_dist()),
            ("data_page_reuse", |k| k.spec.data_page_reuse = other_dist()),
            ("code_compaction", |k| k.spec.pages.code_compaction = 64.0),
            ("data_compaction", |k| k.spec.pages.data_compaction = 16.0),
            ("code_huge_fraction", |k| k.huge.code_huge_fraction = 0.2),
            ("data_huge_fraction", |k| k.huge.data_huge_fraction = 0.5),
        ];
        let neither: [Perturb; 18] = [
            ("core_freq", |k| k.config.core_freq_ghz = 1.6),
            ("uncore_freq", |k| k.config.uncore_freq_ghz = 1.4),
            ("active_cores", |k| k.config.active_cores = 8),
            ("prefetchers", |k| {
                k.config.prefetchers = PrefetcherConfig::all_off()
            }),
            ("thp", |k| k.config.thp = ThpMode::NeverOn),
            ("shp", |k| k.config.shp_pages = 200),
            ("page_walk_cycles", |k| {
                k.config.platform.page_walk_cycles += 1
            }),
            ("llc latency", |k| k.config.platform.llc.latency_cycles += 1),
            ("taken_rate", |k| k.spec.branch.taken_rate = 0.5),
            ("context_switch", |k| {
                k.spec.context_switch.rate_per_sec = 9e4
            }),
            ("llc_contention", |k| k.spec.llc_contention = 0.5),
            ("madvise_fraction", |k| k.spec.pages.madvise_fraction = 0.9),
            ("base_cpi_scale", |k| k.spec.base_cpi_scale = 1.1),
            ("name", |k| k.spec.name = "other".to_string()),
            ("mlp", |k| k.spec.mlp = 5.0),
            ("prefetch", |k| k.spec.prefetch.accuracy = 0.9),
            ("batch size", |k| k.schedule.batch_events = 64),
            ("warmup_override", |k| k.warmup_override = Some(1)),
        ];
        let groups: [(&[Perturb], bool, bool); 4] = [
            (&both, true, true),
            (&line_half, true, false),
            (&page_half, false, true),
            (&neither, false, false),
        ];
        for (group, keys_lines, keys_pages) in groups {
            for &(name, perturb) in group {
                let (l, p) = pass_keys_after(perturb);
                assert_eq!(l != lines, keys_lines, "{name} vs the line key");
                assert_eq!(p != pages, keys_pages, "{name} vs the page key");
            }
        }
    }

    /// A window whose page half comes from the memo and whose line half is
    /// simulated, and the reverse, match a memo-off evaluation bit for
    /// bit; so do the halves simulated alone against a full simulation,
    /// and pass sets that share one trace against each simulated on its
    /// own, whichever halves each set simulates.
    #[test]
    fn each_half_simulates_as_in_a_full_window() {
        let e = engine_with(ServerConfig::stock(PlatformSpec::skylake18()));
        let schedule = |insns_per_switch| Schedule {
            warmup: 20_000,
            total: 80_000,
            batch_events: 4096,
            insns_per_switch,
            pollution: 0.3,
        };
        let (every_15k, every_22k) = (schedule(15_000), schedule(22_000));
        let huge = huge_mix(&e);
        let simulate =
            |passes: &[(&Schedule, Halves)]| e.simulate_halves(passes, 0.7, huge).unwrap();
        let halves = |lines, pages| Halves { lines, pages };
        let full = simulate(&[(&every_15k, Halves::BOTH)])[0];
        assert_eq!(
            simulate(&[(&every_15k, halves(true, false))]),
            [(full.0, Counters::default())]
        );
        assert_eq!(
            simulate(&[(&every_15k, halves(false, true))]),
            [(Counters::default(), full.1)]
        );
        assert!(full.0.l1d_misses > 0 && full.1.dtlb_misses > 0);
        let other = simulate(&[(&every_22k, Halves::BOTH)])[0];
        assert_ne!(other, full, "the periods flush at other events");
        assert_eq!(
            simulate(&[(&every_15k, Halves::BOTH), (&every_22k, Halves::BOTH)]),
            [full, other]
        );
        assert_eq!(
            simulate(&[
                (&every_22k, halves(false, true)),
                (&every_15k, halves(true, false)),
            ]),
            [
                (Counters::default(), other.1),
                (full.0, Counters::default())
            ]
        );
        assert_eq!(
            simulate(&[(&every_15k, halves(false, false))]),
            [Default::default()]
        );
    }

    /// The reference pre-fill: the caches of [`build_warm_caches`], filled
    /// by replaying each stream's pre-fill ids deepest-first through
    /// `access`, then cleared of the replay's statistics.
    fn replayed_warm_caches(cfg: &ServerConfig, spec: &StreamSpec, share: f64) -> WarmCaches {
        use crate::trace::prewarm_len;
        let plat = &cfg.platform;
        let mut l1i = SetAssocCache::from_geometry(&plat.l1i, plat.l1i.ways, 1.0).unwrap();
        let mut l1d = SetAssocCache::from_geometry(&plat.l1d, plat.l1d.ways, 1.0).unwrap();
        let mut l2 = SetAssocCache::from_geometry(&plat.l2, plat.l2.ways, 1.0).unwrap();
        let mut llc = match cfg.cdp {
            Some(p) => SharedLlc::build(&plat.llc, cfg.llc_ways_enabled, p, share),
            None => SharedLlc::natural_split(
                &plat.llc,
                cfg.llc_ways_enabled,
                spec.natural_code_llc_share.clamp(0.05, 0.95),
                share,
            ),
        }
        .unwrap();
        let code_pw = prewarm_len(&spec.code_reuse);
        let data_pw = prewarm_len(&spec.data_reuse);
        let (code_cap, data_cap) = llc.capacities();
        for id in code_pw.saturating_sub(code_cap)..code_pw {
            llc.access_code(id);
        }
        for id in data_pw.saturating_sub(data_cap)..data_pw {
            llc.access_data(id);
        }
        let half = plat.l2.lines() / 2;
        for i in (1..=half).rev() {
            if i <= code_pw {
                l2.access((code_pw - i) | CODE_TAG);
            }
            if i <= data_pw {
                l2.access(data_pw - i);
            }
        }
        for id in code_pw.saturating_sub(plat.l1i.lines())..code_pw {
            l1i.access(id);
        }
        for id in data_pw.saturating_sub(plat.l1d.lines())..data_pw {
            l1d.access(id);
        }
        l1i.reset_stats();
        l1d.reset_stats();
        l2.reset_stats();
        llc.reset_stats();
        WarmCaches { l1i, l1d, l2, llc }
    }

    /// The direct fill leaves every cache exactly as the replayed pre-fill
    /// does, across platforms, LLC splits, enabled ways and shares. The
    /// line footprints run from above every pre-fill depth down to below
    /// the L1's, so the LLC and L1 fills start mid-stream or at id 0 and
    /// the L2 interleave runs out of one stream or both.
    #[test]
    fn warm_caches_match_the_replayed_prefill() {
        let knee = |footprint: u64| {
            ReuseDistanceDist::single_knee(footprint / 4, 0.1, 0.01, footprint).unwrap()
        };
        // (code, data) line footprints: above every depth (the test spec);
        // below the LLC partitions and the L2 half on some platforms; below
        // the L1s.
        let footprints = [None, Some((3_000, 60_000)), Some((300, 400))];
        for platform in [
            PlatformSpec::skylake18(),
            PlatformSpec::skylake20(),
            PlatformSpec::broadwell16(),
        ] {
            let full = platform.llc.ways;
            let reduced = full / 2;
            let cases = [
                (full, None, 1.0),
                (reduced, None, 0.4),
                (full, CdpPartition::new(1, full - 1, full).ok(), 0.7),
                (
                    reduced,
                    CdpPartition::new(reduced - 1, 1, reduced).ok(),
                    0.25,
                ),
            ];
            for footprint in footprints {
                let mut spec = test_spec();
                if let Some((code, data)) = footprint {
                    spec.code_reuse = knee(code);
                    spec.data_reuse = knee(data);
                }
                for (ways, cdp, share) in cases {
                    let mut cfg = ServerConfig::stock(platform.clone());
                    cfg.llc_ways_enabled = ways;
                    cfg.cdp = cdp;
                    let built = build_warm_caches(&cfg, &spec, share).unwrap();
                    assert!(
                        built == replayed_warm_caches(&cfg, &spec, share),
                        "{:?} {ways} ways {cdp:?} share {share} footprints {footprint:?}",
                        platform.kind
                    );
                }
            }
        }
    }

    #[test]
    fn thp_always_reduces_dtlb_misses() {
        let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
        cfg.thp = ThpMode::AlwaysOn;
        let always = engine_with(cfg.clone()).run_window(WINDOW, 1.0).unwrap();
        cfg.thp = ThpMode::NeverOn;
        let never = engine_with(cfg).run_window(WINDOW, 1.0).unwrap();
        assert!(
            always.counters.dtlb_misses < never.counters.dtlb_misses,
            "always {} vs never {}",
            always.counters.dtlb_misses,
            never.counters.dtlb_misses
        );
    }

    /// A schedule with warm-up 10 of 100 events, chunks of at most 7, and a
    /// switch every 25 events.
    fn small_schedule() -> Schedule {
        Schedule {
            warmup: 10,
            total: 100,
            batch_events: 7,
            insns_per_switch: 25,
            pollution: 0.5,
        }
    }

    #[test]
    fn chunks_stop_at_the_warmup_reset_and_after_each_switch() {
        let schedule = small_schedule();
        let chunks: Vec<_> = chunks(&[&schedule]).collect();
        let mut next = 0;
        for chunk in &chunks {
            assert_eq!(chunk.start, next, "chunks tile the window");
            assert!(chunk.end > chunk.start && chunk.end - chunk.start <= 7);
            next = chunk.end;
        }
        assert_eq!(next, 100);
        let starts: Vec<u64> = chunks.iter().map(|c| c.start).collect();
        assert!(starts.contains(&10), "a chunk starts at the warm-up reset");
        let flushed: Vec<u64> = chunks
            .iter()
            .filter(|c| schedule.switches_after(c))
            .map(|c| c.end - 1)
            .collect();
        assert_eq!(flushed, [25, 50, 75]);
    }

    /// One trace's chunks end at every schedule's switch points, and each
    /// schedule flushes only after its own.
    #[test]
    fn shared_chunks_stop_after_every_schedules_switches() {
        let every_25 = small_schedule();
        let every_40 = Schedule {
            insns_per_switch: 40,
            ..small_schedule()
        };
        let chunks: Vec<_> = chunks(&[&every_25, &every_40]).collect();
        let mut next = 0;
        for chunk in &chunks {
            assert_eq!(chunk.start, next, "chunks tile the window");
            assert!(chunk.end > chunk.start && chunk.end - chunk.start <= 7);
            next = chunk.end;
        }
        assert_eq!(next, 100);
        let flushed = |schedule: &Schedule| -> Vec<u64> {
            chunks
                .iter()
                .filter(|c| schedule.switches_after(c))
                .map(|c| c.end - 1)
                .collect()
        };
        assert_eq!(flushed(&every_25), [25, 50, 75]);
        assert_eq!(flushed(&every_40), [40, 80]);
    }

    #[test]
    fn pipeline_delivers_every_chunk_in_order_on_recycled_batches() {
        let schedule = small_schedule();
        let mut seen = Vec::new();
        pipeline(
            chunks(&[&schedule]),
            7,
            |batch, n| {
                batch.clear();
                batch.code_lines.extend(std::iter::repeat_n(n as u64, n));
            },
            |chunk, batch| {
                assert_eq!(batch.code_lines.len() as u64, chunk.end - chunk.start);
                seen.push(chunk);
            },
        );
        assert_eq!(seen, chunks(&[&schedule]).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_propagates_a_producer_panic() {
        let schedule = small_schedule();
        let mut filled = 0;
        let mut consumed = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline(
                chunks(&[&schedule]),
                7,
                |_, _| {
                    filled += 1;
                    if filled == 3 {
                        panic!("generator failed");
                    }
                },
                |_, _| consumed += 1,
            )
        }));
        let payload = result.expect_err("the producer's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"generator failed"));
        assert_eq!(consumed, 2, "chunks filled before the panic are consumed");
    }

    #[test]
    fn pipeline_propagates_a_consumer_panic() {
        let schedule = small_schedule();
        let result = std::panic::catch_unwind(|| {
            pipeline(
                chunks(&[&schedule]),
                7,
                |_, _| {},
                |chunk, _| {
                    if chunk.start > 0 {
                        panic!("pass failed");
                    }
                },
            )
        });
        let payload = result.expect_err("the consumer's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"pass failed"));
    }
}
