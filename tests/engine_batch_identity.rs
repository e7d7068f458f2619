//! Bit-identity properties of the batched engine (ISSUE satellite):
//!
//! 1. Batch size is a pure performance control — the engine produces
//!    bit-identical counters and reports at every batch size, because
//!    chunking never moves a warm-up reset or context-switch flush and
//!    every structure sees its exact per-event access subsequence.
//! 2. The pass memo (the snapshot/restore path behind cheap
//!    `AbEnvironment::fork`) serves results bit-identical to a full
//!    re-warmed evaluation.
//! 3. A fork of a *warmed* environment (memo and load-curve caches hot —
//!    the snapshot path) draws the same measurement sequence as a fork of
//!    a *cold* one (everything re-simulated — the re-warm path), so the
//!    stream registry is consumed identically either way.
//! 4. A window served from the pass memo — taking the counters of an
//!    earlier window whose structure passes read the same inputs, at
//!    another load, uncore frequency, prefetcher setting or co-runner
//!    bandwidth — is bit-identical to one that runs its own passes; and a
//!    window whose passes differ (a context switch placed by the core
//!    frequency, another LLC share) misses it.
//! 5. The memo is split at the line/page seam, and a window that takes
//!    one half from it and simulates the other is bit-identical too: THP
//!    and SHP settings share the line half (with or without context
//!    switches inside the window), and LLC-way and CDP settings share the
//!    page half.
//! 6. A load grid (`Engine::run_grid`) whose points place context
//!    switches inside the window at different periods simulates them on
//!    one shared trace, and each point is bit-identical to its own window
//!    at every batch size; grids and single windows that claim
//!    overlapping pass-memo slots on many threads finish and match too.
//!
//! The process-wide memos are shared by every test in this binary, so each
//! pass-memo test uses its own seed.

use proptest::prelude::*;
use softsku::archsim::engine::{Engine, ServerConfig, WindowReport};
use softsku::archsim::{CdpPartition, PrefetcherConfig, StreamSpec, ThpMode};
use softsku::cluster::{AbEnvironment, EnvConfig, SimServer};
use softsku::workloads::{Microservice, PlatformKind, WorkloadProfile};
use std::sync::Barrier;

/// Every field of a report as exact bits: `u64` counters verbatim, `f64`
/// fields as raw IEEE-754 patterns. Equality of signatures is bit-identity
/// (a `PartialEq` compare would accept `-0.0 == 0.0`).
fn signature(r: &WindowReport) -> Vec<u64> {
    let c = &r.counters;
    vec![
        c.instructions,
        c.cycles.to_bits(),
        c.code_accesses,
        c.l1i_misses,
        c.l2_code_misses,
        c.llc_code_misses,
        c.data_accesses,
        c.loads,
        c.stores,
        c.l1d_misses,
        c.l2_data_misses,
        c.llc_data_misses,
        c.itlb_misses,
        c.itlb_walks,
        c.dtlb_misses,
        c.dtlb_load_misses,
        c.dtlb_store_misses,
        c.dtlb_walks,
        c.branches,
        c.branch_mispredicts,
        c.btb_misses,
        c.fp_ops,
        c.context_switches.to_bits(),
        c.mem_demand_lines.to_bits(),
        c.mem_prefetch_lines.to_bits(),
        c.mem_writeback_lines.to_bits(),
        c.mem_extra_lines.to_bits(),
        r.ipc_thread.to_bits(),
        r.ipc_core.to_bits(),
        r.mips_per_core.to_bits(),
        r.mips_total.to_bits(),
        r.bandwidth_gbps.to_bits(),
        r.mem_latency_ns.to_bits(),
        r.mem_utilization.to_bits(),
        u64::from(r.bandwidth_bound),
        r.cpi.base.to_bits(),
        r.cpi.frontend.to_bits(),
        r.cpi.bad_speculation.to_bits(),
        r.cpi.backend_memory.to_bits(),
        r.cpi.context_switch.to_bits(),
        r.tmam.retiring.to_bits(),
        r.tmam.frontend.to_bits(),
        r.tmam.bad_speculation.to_bits(),
        r.tmam.backend.to_bits(),
        r.effective_core_freq_ghz.to_bits(),
        r.context_switch_fraction.to_bits(),
    ]
}

fn engine_for(service: Microservice, seed: u64) -> Engine {
    let profile = service.profile(PlatformKind::Skylake18).unwrap();
    Engine::new(profile.stock_config.clone(), profile.stream.clone(), seed).unwrap()
}

const SERVICES: [Microservice; 3] = [Microservice::Web, Microservice::Feed1, Microservice::Ads1];
const BATCH_SIZES: [usize; 3] = [1, 64, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch size never changes a single output bit. Memoization is off on
    /// both sides so each run is a genuine evaluation, not a memo hit.
    #[test]
    fn any_batch_size_is_bit_identical(
        service_idx in 0usize..3,
        batch_idx in 0usize..3,
        seed in 1u64..1000,
    ) {
        let service = SERVICES[service_idx];
        let reference = engine_for(service, seed)
            .with_memo(false)
            .run_window(60_000, 0.9)
            .unwrap();
        let probe = engine_for(service, seed)
            .with_memo(false)
            .with_batch_size(BATCH_SIZES[batch_idx])
            .run_window(60_000, 0.9)
            .unwrap();
        prop_assert_eq!(signature(&reference), signature(&probe));
    }
}

/// A memo hit is bit-identical to the evaluation that populated it and to a
/// memo-bypassing re-evaluation — the snapshot path returns exactly what
/// the re-warm path would compute.
#[test]
fn memo_hit_matches_full_evaluation_bit_for_bit() {
    let run = |memo: bool| {
        engine_for(Microservice::Web, 4242)
            .with_memo(memo)
            .run_colocated(70_000, 0.8, 5.0, Some(0.6))
            .unwrap()
    };
    let populate = run(true); // first call: full evaluation, memo insert
    let hit = run(true); // second call: served from the memo
    let bypass = run(false); // forced re-evaluation
    assert_eq!(signature(&populate), signature(&hit));
    assert_eq!(signature(&populate), signature(&bypass));
}

/// Forking a warmed environment (caches and memo hot) and forking a cold
/// one must draw identical measurement sequences: the fork's RNG streams
/// derive from the fork seed alone, and memo hits are bit-identical to
/// re-simulation, so warm-up state can never leak into a replica's draws.
#[test]
fn fork_of_warmed_env_matches_fork_of_cold_env() {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
    let cfg = EnvConfig::fast_test();

    let mut warmed = AbEnvironment::new(profile.clone(), cfg, 31).unwrap();
    for _ in 0..5 {
        warmed.sample_pair().unwrap(); // warm load curves + pass memo
    }
    let cold = AbEnvironment::new(profile, cfg, 31).unwrap();

    let mut fork_warm = warmed.fork(77);
    let mut fork_cold = cold.fork(77);
    for step in 0..20 {
        let a = fork_warm.sample_pair().unwrap();
        let b = fork_cold.sample_pair().unwrap();
        assert_eq!(
            (
                a.a_mips.to_bits(),
                a.b_mips.to_bits(),
                a.load.to_bits(),
                a.time_s.to_bits()
            ),
            (
                b.a_mips.to_bits(),
                b.b_mips.to_bits(),
                b.load.to_bits(),
                b.time_s.to_bits()
            ),
            "fork draw sequences diverged at step {step}"
        );
    }
}

/// Window length of the pass-memo tests.
const SHARED_WINDOW: u64 = 60_000;

fn web() -> WorkloadProfile {
    Microservice::Web.profile(PlatformKind::Skylake18).unwrap()
}

/// Runs `config` on `stream` with the memos on and off.
fn colocated_on_and_off(
    config: &ServerConfig,
    stream: &StreamSpec,
    seed: u64,
    load: f64,
    background_bw_gbps: f64,
    llc_share: Option<f64>,
) -> (WindowReport, WindowReport) {
    let engine = |memo: bool| {
        Engine::new(config.clone(), stream.clone(), seed)
            .unwrap()
            .with_memo(memo)
            .run_colocated(SHARED_WINDOW, load, background_bw_gbps, llc_share)
            .unwrap()
    };
    (engine(true), engine(false))
}

/// Runs `config` on Web/Skylake18 at `load` with the memos on and off.
fn memo_on_and_off(config: &ServerConfig, seed: u64, load: f64) -> (WindowReport, WindowReport) {
    colocated_on_and_off(config, &web().stream, seed, load, 0.0, None)
}

fn stock_web() -> ServerConfig {
    web().stock_config
}

/// A second load point places no context switch inside the window, so it
/// takes the first one's counters from the pass memo.
#[test]
fn pass_memo_window_at_a_second_load_matches_evaluation() {
    let seed = 5101;
    let (first, first_off) = memo_on_and_off(&stock_web(), seed, 0.9);
    assert_eq!(signature(&first), signature(&first_off));
    let (hit, evaluated) = memo_on_and_off(&stock_web(), seed, 0.6);
    assert_eq!(signature(&hit), signature(&evaluated));
    assert_ne!(signature(&hit), signature(&first), "loads differ");
}

/// Knobs that act only on the analytic steps, or only through the switch
/// period when no switch lands inside the window, hit the pass memo. (At
/// load 0.5, Web's switch period exceeds the window at every core
/// frequency.)
#[test]
fn pass_memo_window_under_a_timing_knob_matches_evaluation() {
    let seed = 5102;
    let _ = memo_on_and_off(&stock_web(), seed, 0.5);
    let mut no_prefetch = stock_web();
    no_prefetch.prefetchers = PrefetcherConfig::all_off();
    let mut slow_core = stock_web();
    slow_core.core_freq_ghz = slow_core.platform.core_freq_range_ghz.0;
    let mut slow_uncore = stock_web();
    slow_uncore.uncore_freq_ghz = slow_uncore.platform.uncore_freq_range_ghz.0;
    for config in [no_prefetch, slow_core, slow_uncore] {
        let (hit, evaluated) = memo_on_and_off(&config, seed, 0.5);
        assert_eq!(signature(&hit), signature(&evaluated));
    }
}

/// A co-runner's bandwidth acts only on the loaded latency, so it hits the
/// pass memo; an LLC-share override reshapes the warm structures, so it
/// misses and runs its own passes.
#[test]
fn pass_memo_colocated_window_matches_evaluation() {
    let seed = 5105;
    let stream = web().stream;
    let (alone, _) = colocated_on_and_off(&stock_web(), &stream, seed, 0.8, 0.0, None);
    let (loud, loud_off) = colocated_on_and_off(&stock_web(), &stream, seed, 0.8, 12.0, None);
    assert_eq!(signature(&loud), signature(&loud_off));
    assert_eq!(alone.counters.l1d_misses, loud.counters.l1d_misses);
    let (squeezed, squeezed_off) =
        colocated_on_and_off(&stock_web(), &stream, seed, 0.8, 12.0, Some(0.2));
    assert_eq!(signature(&squeezed), signature(&squeezed_off));
    assert_ne!(
        squeezed.counters.llc_data_misses, loud.counters.llc_data_misses,
        "a smaller LLC share must not reuse the full share's counters"
    );
}

/// With context switches frequent enough to land inside the window, the
/// core frequency places them, so a slower core must miss the pass memo
/// and run its own passes.
#[test]
fn pass_memo_core_frequency_with_switches_inside_the_window_matches_evaluation() {
    let seed = 5106;
    let mut stream = web().stream;
    stream.context_switch.rate_per_sec = 150_000.0;
    stream.context_switch.pollution_fraction = 0.3;
    let mut slow_core = stock_web();
    slow_core.core_freq_ghz = slow_core.platform.core_freq_range_ghz.0;
    let (fast, fast_off) = colocated_on_and_off(&stock_web(), &stream, seed, 0.8, 0.0, None);
    assert_eq!(signature(&fast), signature(&fast_off));
    let (slow, slow_off) = colocated_on_and_off(&slow_core, &stream, seed, 0.8, 0.0, None);
    assert_eq!(signature(&slow), signature(&slow_off));
    assert_ne!(
        slow.counters.l1i_misses, fast.counters.l1i_misses,
        "switches at another period must flush at other events"
    );
}

/// A THP change alters the huge-page mix, which only the TLBs see: the
/// window takes the stock window's line half from the pass memo, runs its
/// own page half, and still matches.
#[test]
fn pass_memo_thp_change_reuses_the_line_half() {
    let seed = 5103;
    let (stock, _) = memo_on_and_off(&stock_web(), seed, 0.8);
    let mut never = stock_web();
    never.thp = ThpMode::NeverOn;
    let (evaluated_on, evaluated_off) = memo_on_and_off(&never, seed, 0.8);
    assert_eq!(signature(&evaluated_on), signature(&evaluated_off));
    let caches = |r: &WindowReport| {
        let c = &r.counters;
        [
            c.l1i_misses,
            c.l2_code_misses,
            c.llc_code_misses,
            c.l1d_misses,
            c.l2_data_misses,
            c.llc_data_misses,
            c.branch_mispredicts,
        ]
    };
    assert_eq!(
        caches(&evaluated_on),
        caches(&stock),
        "the line half is shared"
    );
    assert_ne!(
        evaluated_on.counters.dtlb_misses, stock.counters.dtlb_misses,
        "THP never must not reuse the THP-always TLB counters"
    );
}

/// Every THP × SHP setting on `stream` at one seed and load matches a
/// memo-off evaluation; all but the first take their line half from the
/// pass memo.
fn thp_shp_sweep_matches_evaluation(stream: &StreamSpec, seed: u64) {
    for thp in ThpMode::ALL {
        for shp_pages in [0, 256] {
            let mut config = stock_web();
            config.thp = thp;
            config.shp_pages = shp_pages;
            let (on, off) = colocated_on_and_off(&config, stream, seed, 0.8, 0.0, None);
            assert_eq!(signature(&on), signature(&off), "{thp:?}, {shp_pages} SHPs");
        }
    }
}

#[test]
fn pass_memo_thp_shp_sweep_matches_evaluation() {
    thp_shp_sweep_matches_evaluation(&web().stream, 5107);
}

/// The same sweep with switches inside the window: each half applies its
/// own flushes at the same chunk bounds, so a page half simulated alone
/// flushes only the TLBs and still matches.
#[test]
fn pass_memo_thp_shp_sweep_with_switches_inside_the_window_matches_evaluation() {
    let mut stream = web().stream;
    stream.context_switch.rate_per_sec = 150_000.0;
    stream.context_switch.pollution_fraction = 0.3;
    thp_shp_sweep_matches_evaluation(&stream, 5108);
}

/// LLC-way and CDP settings reshape only the caches: each window takes the
/// stock window's page half from the pass memo, simulates its line half,
/// and matches.
#[test]
fn pass_memo_llc_way_and_cdp_changes_reuse_the_page_half() {
    let seed = 5109;
    let (stock, _) = memo_on_and_off(&stock_web(), seed, 0.8);
    let mut fewer_ways = stock_web();
    fewer_ways.llc_ways_enabled = 4;
    let mut cdp = stock_web();
    let ways = cdp.llc_ways_enabled;
    cdp.cdp = Some(CdpPartition::new(ways - 2, 2, ways).unwrap());
    for config in [fewer_ways, cdp] {
        let (on, off) = memo_on_and_off(&config, seed, 0.8);
        assert_eq!(signature(&on), signature(&off));
        assert_eq!(on.counters.dtlb_misses, stock.counters.dtlb_misses);
        assert_ne!(on.counters.llc_data_misses, stock.counters.llc_data_misses);
    }
}

/// A fresh `SimServer` curve evaluates its three load points as one grid:
/// with no switch inside the window they share one pass set, which the
/// grid simulates once. Every point matches a memo-off evaluation.
#[test]
fn pass_memo_curve_points_match_evaluation() {
    let seed = 5104;
    let profile = web();
    // Stock Web reserves no SHPs, unlike the production config the server
    // calibrates against, so the curve's passes are not yet memoized.
    let config = stock_web();
    let mut server =
        SimServer::with_window(profile.clone(), config.clone(), seed, SHARED_WINDOW).unwrap();
    let peak = server.peak_report().unwrap();
    for grid in [0.5, 0.75, 1.0] {
        let load = grid * profile.peak_utilization;
        // Memo on: the counters the curve evaluation stored.
        let (served, evaluated) = memo_on_and_off(&config, seed, load);
        assert_eq!(signature(&served), signature(&evaluated), "grid {grid}");
        if grid == 1.0 {
            assert_eq!(signature(&peak), signature(&evaluated));
        }
    }
}

/// Web's stream with context switches frequent enough to land inside a
/// `SHARED_WINDOW` window at every load of a curve's grid, each load at
/// its own period.
fn switching_web() -> StreamSpec {
    let mut stream = web().stream;
    stream.context_switch.rate_per_sec = 150_000.0;
    stream.context_switch.pollution_fraction = 0.3;
    stream
}

/// A `SimServer` curve's load grid on Web.
fn curve_loads() -> [f64; 3] {
    [0.5, 0.75, 1.0].map(|g| g * web().peak_utilization)
}

/// `stream` on `config` at `seed` with the memo on or off.
fn engine_on(config: &ServerConfig, stream: &StreamSpec, seed: u64, memo: bool) -> Engine {
    Engine::new(config.clone(), stream.clone(), seed)
        .unwrap()
        .with_memo(memo)
}

/// A grid whose three points flush at three different periods simulates
/// them as three pass sets on one trace, chunked at the union of their
/// boundaries. Each point matches its own memo-off window at batch sizes
/// 1, 7 and 4096, memo off (every pass set simulated) and memo on (a
/// fresh seed, so every pass set is a miss).
#[test]
fn grid_with_switches_inside_the_window_matches_single_windows() {
    let seed = 5110;
    let stream = switching_web();
    let loads = curve_loads();
    let single: Vec<Vec<u64>> = loads
        .iter()
        .map(|&load| {
            signature(
                &engine_on(&stock_web(), &stream, seed, false)
                    .run_window(SHARED_WINDOW, load)
                    .unwrap(),
            )
        })
        .collect();
    // The l1i-miss counts differ pairwise: every point flushes at its own
    // period, so no two points share a pass set.
    let l1i_misses = |s: &Vec<u64>| s[3];
    assert!(
        l1i_misses(&single[0]) != l1i_misses(&single[1])
            && l1i_misses(&single[1]) != l1i_misses(&single[2])
            && l1i_misses(&single[0]) != l1i_misses(&single[2]),
        "every grid point must switch inside the window at its own period"
    );
    for batch in [1, 7, 4096] {
        let grid = engine_on(&stock_web(), &stream, seed, false)
            .with_batch_size(batch)
            .run_grid(SHARED_WINDOW, loads)
            .unwrap();
        assert_eq!(
            grid.map(|r| signature(&r)).to_vec(),
            single,
            "batch {batch}"
        );
    }
    let grid = engine_on(&stock_web(), &stream, seed, true)
        .run_grid(SHARED_WINDOW, loads)
        .unwrap();
    assert_eq!(grid.map(|r| signature(&r)).to_vec(), single, "memo on");
}

/// Eight threads run grids and single windows whose pass-memo slots
/// overlap: the same curve in two point orders, a two-point grid, single
/// windows at grid loads, and a THP-never grid and window that share the
/// line slots but not the page slots. Every caller claims its slots in one
/// global order, so all of them finish, and every report matches a
/// memo-off window.
#[test]
fn grids_and_windows_on_overlapping_slots_finish_and_match() {
    let seed = 5111;
    let stream = switching_web();
    let [a, b, c] = curve_loads();
    let mut never = stock_web();
    never.thp = ThpMode::NeverOn;
    let configs = [stock_web(), never];
    let evaluated = |config: usize, load: f64| {
        signature(
            &engine_on(&configs[config], &stream, seed, false)
                .run_window(SHARED_WINDOW, load)
                .unwrap(),
        )
    };
    // (config, loads, whether one grid call runs them all).
    let callers: [(usize, &[f64], bool); 8] = [
        (0, &[a, b, c], true),
        (0, &[c, b, a], true),
        (0, &[a], false),
        (0, &[c], false),
        (1, &[a, b, c], true),
        (1, &[b], false),
        (0, &[b, a], true),
        (0, &[b], false),
    ];
    let barrier = Barrier::new(callers.len());
    let results: Vec<Vec<(usize, f64, Vec<u64>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .map(|&(config, loads, grid)| {
                let (barrier, stream, configs) = (&barrier, &stream, &configs);
                s.spawn(move || {
                    let engine = engine_on(&configs[config], stream, seed, true);
                    barrier.wait();
                    let reports: Vec<WindowReport> = match (grid, loads) {
                        (true, &[x, y, z]) => {
                            engine.run_grid(SHARED_WINDOW, [x, y, z]).unwrap().to_vec()
                        }
                        (true, &[x, y]) => engine.run_grid(SHARED_WINDOW, [x, y]).unwrap().to_vec(),
                        _ => loads
                            .iter()
                            .map(|&load| engine.run_window(SHARED_WINDOW, load).unwrap())
                            .collect(),
                    };
                    loads
                        .iter()
                        .zip(&reports)
                        .map(|(&load, r)| (config, load, signature(r)))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (config, load, served) in results.into_iter().flatten() {
        assert_eq!(
            served,
            evaluated(config, load),
            "config {config}, load {load}"
        );
    }
}
