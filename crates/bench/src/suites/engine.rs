//! Engine hot path: batched tick throughput, the pass memo, and the
//! simulator's component loops.
//!
//! Part 0 times `TraceGenerator::new`, the fixed cost every cold window
//! pays before its first event, and splits trace generation into
//! inversion-table build, reuse-distance sampling (checked draw by draw
//! against the exact inversion), move-to-front and the whole batch fill.
//! Part 1 measures raw window-simulation throughput with the memo off —
//! every run is a genuine evaluation — across batch sizes, and asserts at
//! runtime that every batch size produces bit-identical reports (the
//! batched tick is a pure performance control). Each part builds its
//! workload profile once, so its engines share the profile's inversion
//! tables and no timed window pays for building them. Part 2 measures the
//! pass memo: the cost of a cold evaluation against a repeat of it, which
//! is the price `AbEnvironment::fork` replicas pay (or skip) when they
//! re-measure their parent's operating points, against a window at another
//! load, which takes the cold window's counters from the pass memo, and
//! against a window at another THP setting, which takes only the line half
//! from the memo and simulates the page half; and it times a cold
//! three-point load grid whose points switch context inside the window, one
//! shared trace, against its three points as cold single windows. A
//! runtime cross-check replays one window's page columns through real LRU
//! first-level TLB arrays and asserts that every hit matches the engine's
//! stack-distance probe. Part 3 (full mode) times the
//! memo-independent components the engine is built from — rank list,
//! caches, TLB, stack mapper, trace generator, A/B statistics — as
//! fixed-iteration ns/op loops.

use super::{BoxError, BASE_SEED};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_archsim::cache::SetAssocCache;
use softsku_archsim::engine::{Engine, WindowReport};
use softsku_archsim::pagemap::{PagePolicy, ThpMode};
use softsku_archsim::platform::PlatformSpec;
use softsku_archsim::ranklist::RankList;
use softsku_archsim::reuse::ReuseDistanceDist;
use softsku_archsim::tlb::{LruSet, TlbHierarchy};
use softsku_archsim::trace::{
    prewarm_len, EventBatch, HugePageMix, StackMapper, TraceGenerator, COLD,
};
use softsku_telemetry::stats::{t_quantile, welch_test, Summary};
use softsku_telemetry::{Json, Stopwatch};
use softsku_workloads::{Microservice, PlatformKind, WorkloadProfile};
use std::hint::black_box;

/// A report's content as exact bits, for runtime bit-identity checks:
/// cheap, order-stable, and distinguishes `-0.0` from `0.0` where a float
/// compare would not.
fn signature(r: &WindowReport) -> Vec<u64> {
    let c = &r.counters;
    vec![
        c.instructions,
        c.cycles.to_bits(),
        c.l1i_misses,
        c.l1d_misses,
        c.l2_code_misses + c.l2_data_misses,
        c.llc_code_misses + c.llc_data_misses,
        c.itlb_misses,
        c.dtlb_misses,
        c.itlb_walks + c.dtlb_walks,
        c.branch_mispredicts,
        c.btb_misses,
        r.ipc_thread.to_bits(),
        r.mips_total.to_bits(),
        r.bandwidth_gbps.to_bits(),
        r.mem_latency_ns.to_bits(),
        r.cpi.frontend.to_bits(),
        r.cpi.backend_memory.to_bits(),
    ]
}

/// An engine on `profile`'s stock config. The stream is cloned, so every
/// engine of one profile shares its inversion tables.
fn engine_for(profile: &WorkloadProfile, seed: u64) -> Result<Engine, BoxError> {
    Ok(Engine::new(
        profile.stock_config.clone(),
        profile.stream.clone(),
        seed,
    )?)
}

/// Part 1: window throughput per batch size, memo off, with a bit-identity
/// cross-check between every batch size and the default-batch reference.
fn throughput(window: u64, evals: u64, batch_sizes: &[usize]) -> Result<Json, BoxError> {
    let service = Microservice::Web;
    println!("== engine throughput: {service}, {window} instruction window, {evals} evals ==");
    let profile = service.profile(PlatformKind::Skylake18)?;

    // Reference signatures at the default batch size, one per seed.
    let mut reference = Vec::new();
    for seed in 0..evals {
        let report = engine_for(&profile, BASE_SEED + seed)?
            .with_memo(false)
            .run_window(window, 0.9)?;
        reference.push(signature(&report));
    }

    let mut runs = Vec::new();
    let mut wall_by_batch = Vec::new();
    for &batch in batch_sizes {
        let clock = Stopwatch::start();
        let mut signatures = Vec::new();
        for seed in 0..evals {
            let report = engine_for(&profile, BASE_SEED + seed)?
                .with_memo(false)
                .with_batch_size(batch)
                .run_window(window, 0.9)?;
            signatures.push(signature(&report));
        }
        let wall_s = clock.elapsed_s();
        assert_eq!(
            signatures, reference,
            "batch size {batch} changed simulation output bits"
        );
        let minsns_per_s = (window * evals) as f64 / 1e6 / wall_s.max(1e-9);
        println!("  batch {batch:>5}   {wall_s:>6.2} s   {minsns_per_s:>7.2} M window insns/s");
        wall_by_batch.push((batch, wall_s));
        runs.push(
            Json::obj()
                .set("batch_events", Json::Int(batch as i64))
                .set("wall_s", Json::Num(wall_s))
                .set("window_minsns_per_s", Json::Num(minsns_per_s)),
        );
    }

    let wall_at = |b: usize| {
        wall_by_batch
            .iter()
            .find(|&&(batch, _)| batch == b)
            .map(|&(_, w)| w)
    };
    let speedup = match (wall_at(1), wall_by_batch.last()) {
        (Some(w1), Some(&(_, wmax))) => w1 / wmax.max(1e-9),
        _ => 1.0,
    };
    println!("  batched speedup vs batch=1: {speedup:.2}x (bit-identical at every size)");
    Ok(Json::obj()
        .set("service", Json::Str(service.to_string()))
        .set("window_instructions", Json::Int(window as i64))
        .set("evals_per_batch_size", Json::Int(evals as i64))
        .set("bit_identical", Json::Bool(true))
        .set("runs", Json::Arr(runs))
        .set("speedup_vs_batch_1", Json::Num(speedup)))
}

/// Part 2: memo economics — one cold evaluation vs memo hits, the exact
/// cost difference between an `AbEnvironment::fork` replica re-warming a
/// measurement and re-using its parent's structure passes; then the same
/// engine at another load, which re-uses them too (every point of a load
/// curve, every prefetcher or uncore setting); then the same window at
/// another THP setting, which re-uses the line half and simulates only the
/// page half (every THP or SHP setting at one seed).
fn memo_economics(window: u64, hits: usize) -> Result<Json, BoxError> {
    // A tuple no other part of this process evaluates, so the first call is
    // guaranteed cold.
    let profile = Microservice::Feed2.profile(PlatformKind::Skylake18)?;
    let seed = BASE_SEED + 9001;
    let engine = engine_for(&profile, seed)?;

    let clock = Stopwatch::start();
    let cold = engine.run_colocated(window, 0.85, 3.0, Some(0.7))?;
    let cold_s = clock.elapsed_s();

    let clock = Stopwatch::start();
    let mut last = None;
    for _ in 0..hits {
        last = Some(engine.run_colocated(window, 0.85, 3.0, Some(0.7))?);
    }
    let hit_s = clock.elapsed_s() / hits.max(1) as f64;
    if let Some(hit) = last {
        assert_eq!(
            signature(&cold),
            signature(&hit),
            "memo hits must be bit-identical to the cold evaluation"
        );
    }

    let clock = Stopwatch::start();
    let second_load = engine.run_colocated(window, 0.6, 3.0, Some(0.7))?;
    let pass_hit_s = clock.elapsed_s();
    let evaluated =
        engine_for(&profile, seed)?
            .with_memo(false)
            .run_colocated(window, 0.6, 3.0, Some(0.7))?;
    assert_eq!(
        signature(&second_load),
        signature(&evaluated),
        "a pass-memo hit at another load must be bit-identical to a full evaluation"
    );

    let mut never = profile.stock_config.clone();
    never.thp = if never.thp == ThpMode::NeverOn {
        ThpMode::AlwaysOn
    } else {
        ThpMode::NeverOn
    };
    let thp_engine = |memo: bool| -> Result<Engine, BoxError> {
        Ok(Engine::new(never.clone(), profile.stream.clone(), seed)?.with_memo(memo))
    };
    let thp_on_memo = thp_engine(true)?;
    let clock = Stopwatch::start();
    let line_hit = thp_on_memo.run_colocated(window, 0.85, 3.0, Some(0.7))?;
    let line_hit_s = clock.elapsed_s();
    let evaluated = thp_engine(false)?.run_colocated(window, 0.85, 3.0, Some(0.7))?;
    assert_eq!(
        signature(&line_hit),
        signature(&evaluated),
        "a window that takes its line half from the memo must be bit-identical to a full \
         evaluation"
    );
    assert_eq!(
        (
            line_hit.counters.l1d_misses,
            line_hit.counters.llc_data_misses
        ),
        (cold.counters.l1d_misses, cold.counters.llc_data_misses),
        "another THP setting must reuse the cold window's line half"
    );

    let (grid_s, grid_serial_s) = grid_economics(&profile, seed, window)?;

    let speedup = cold_s / hit_s.max(1e-12);
    println!(
        "== pass memo: cold {:.1} ms, hit {:.4} ms ({speedup:.0}x; fork replicas skip re-warm-up); \
         hit at another load {:.4} ms; line half only, at another THP setting, {:.1} ms; \
         three-point switching grid {:.1} ms vs {:.1} ms as three windows ==",
        cold_s * 1e3,
        hit_s * 1e3,
        pass_hit_s * 1e3,
        line_hit_s * 1e3,
        grid_s * 1e3,
        grid_serial_s * 1e3
    );
    Ok(Json::obj()
        .set("window_instructions", Json::Int(window as i64))
        .set("cold_eval_ms", Json::Num(cold_s * 1e3))
        .set("memo_hit_ms", Json::Num(hit_s * 1e3))
        .set("pass_hit_ms", Json::Num(pass_hit_s * 1e3))
        .set("line_hit_ms", Json::Num(line_hit_s * 1e3))
        .set("grid_ms", Json::Num(grid_s * 1e3))
        .set("grid_serial_ms", Json::Num(grid_serial_s * 1e3))
        .set("hit_reps", Json::Int(hits as i64))
        .set("speedup", Json::Num(speedup))
        .set("bit_identical", Json::Bool(true)))
}

/// A curve's three load points on `profile`'s stock config, with context
/// switches frequent enough to land inside the window at three different
/// periods: the seconds of one cold `run_grid` (three pass sets on one
/// trace), each point asserted bit-identical to a memo-off window, and of
/// the same three points as cold single windows at another seed.
fn grid_economics(
    profile: &WorkloadProfile,
    seed: u64,
    window: u64,
) -> Result<(f64, f64), BoxError> {
    let mut stream = profile.stream.clone();
    stream.context_switch.rate_per_sec = 150_000.0;
    stream.context_switch.pollution_fraction = 0.3;
    let engine = |seed: u64, memo: bool| -> Result<Engine, BoxError> {
        Ok(Engine::new(profile.stock_config.clone(), stream.clone(), seed)?.with_memo(memo))
    };
    let loads = [0.5, 0.75, 1.0].map(|g| g * profile.peak_utilization);
    // Seeds no other part of this process evaluates, so every point is cold.
    let (grid_seed, serial_seed) = (seed + 1, seed + 2);

    let grid_engine = engine(grid_seed, true)?;
    let clock = Stopwatch::start();
    let grid = grid_engine.run_grid(window, loads)?;
    let grid_s = clock.elapsed_s();

    let serial_engine = engine(serial_seed, true)?;
    let clock = Stopwatch::start();
    for load in loads {
        black_box(serial_engine.run_window(window, load)?);
    }
    let grid_serial_s = clock.elapsed_s();

    let evaluated = engine(grid_seed, false)?;
    for (&load, point) in loads.iter().zip(&grid) {
        assert_eq!(
            signature(point),
            signature(&evaluated.run_window(window, load)?),
            "a grid point must be bit-identical to a memo-off window"
        );
    }
    Ok((grid_s, grid_serial_s))
}

/// The per-window fixed cost of `TraceGenerator::new` on Web/Skylake18's
/// production stream — building (and dropping) its six pre-warmed LRU
/// stacks — in µs per construction, averaged over `reps` seeds.
fn tracegen_new_us(reps: u64) -> Result<f64, BoxError> {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18)?;
    let clock = Stopwatch::start();
    for seed in 0..reps {
        black_box(TraceGenerator::new(
            &profile.stream,
            HugePageMix::default(),
            BASE_SEED + seed,
        ));
    }
    let us = clock.elapsed_s() * 1e6 / reps.max(1) as f64;
    println!(
        "== TraceGenerator::new ({}): {us:.1} µs over {reps} seeds ==",
        Microservice::Web
    );
    Ok(us)
}

/// Splits Web/Skylake18's trace-generation cost into table build, its two
/// mapper phases and the whole fill. The stream's four reuse distributions
/// and the two compacted page distributions its generator samples first
/// build their inversion tables (timed together as `table_build_us`), so
/// the per-access figures below exclude table construction. Each of the
/// four distributions then maps `accesses` uniform draws in 4096-draw
/// columns: `StackMapper::sample_column` (distance inversion) and the
/// move-to-front phase are timed apart and reported per access, and every
/// timed draw's distance is checked, untimed, against the exact inversion.
/// The move-to-front phase is the one the engine runs for each stream:
/// `StackMapper::touch_column` for the line streams and
/// `StackMapper::touch_column_ranked`, which also records stack distances
/// for the first-level TLBs, for the page streams. `fill_ns_per_event` times
/// `TraceGenerator::fill_batch`, which adds the RNG decode loop, over
/// `accesses` events.
fn tracegen_split(accesses: usize) -> Result<Json, BoxError> {
    const COLUMN: usize = 4096;
    let stream = Microservice::Web.profile(PlatformKind::Skylake18)?.stream;
    let mut rng = SmallRng::seed_from_u64(BASE_SEED);
    let draws: Vec<f64> = (0..accesses).map(|_| rng.gen()).collect();
    let dists = [
        ("code_reuse", stream.code_reuse.clone()),
        ("data_reuse", stream.data_reuse.clone()),
        ("code_page_reuse", stream.code_page_reuse.clone()),
        ("data_page_reuse", stream.data_page_reuse.clone()),
        (
            "code_page_huge",
            stream
                .code_page_reuse
                .compacted(stream.pages.code_compaction.max(1.0)),
        ),
        (
            "data_page_huge",
            stream
                .data_page_reuse
                .compacted(stream.pages.data_compaction.max(1.0)),
        ),
    ];
    let clock = Stopwatch::start();
    for (_, dist) in &dists {
        black_box(dist.inversion_table());
    }
    let table_build_us = clock.elapsed_s() * 1e6;
    let mut fallback = Json::obj();
    for (name, dist) in &dists {
        fallback = fallback.set(name, Json::Num(dist.inversion_table().fallback_share()));
    }

    let (mut sample_s, mut mtf_s) = (0.0, 0.0);
    let mapped_dists = &dists[..4];
    for (name, dist) in mapped_dists {
        let ranked = name.ends_with("page_reuse");
        let mut mapper = StackMapper::new(dist.clone());
        let mut column = Vec::with_capacity(COLUMN);
        let mut ranks = Vec::with_capacity(COLUMN);
        for chunk in draws.chunks(COLUMN) {
            let clock = Stopwatch::start();
            mapper.sample_column(chunk, &mut column);
            sample_s += clock.elapsed_s();
            for (&u, &d) in chunk.iter().zip(&column) {
                assert_eq!(
                    d,
                    dist.distance_at_survival(u).unwrap_or(COLD),
                    "{name}: table inversion of {u:e} differs from the exact inversion"
                );
            }
            let clock = Stopwatch::start();
            if ranked {
                mapper.touch_column_ranked(&mut column, &mut ranks);
            } else {
                mapper.touch_column(&mut column);
            }
            mtf_s += clock.elapsed_s();
            black_box((&column, &ranks));
        }
    }
    let mapped = (accesses * mapped_dists.len()) as f64;
    let sample_ns = sample_s * 1e9 / mapped;
    let mtf_ns = mtf_s * 1e9 / mapped;

    let mut gen = TraceGenerator::new(&stream, HugePageMix::default(), BASE_SEED);
    let mut batch = EventBatch::with_capacity(COLUMN);
    let clock = Stopwatch::start();
    let mut left = accesses;
    while left > 0 {
        let n = left.min(COLUMN);
        gen.fill_batch(&mut batch, n);
        left -= n;
    }
    black_box(&batch);
    let fill_ns = clock.elapsed_s() * 1e9 / accesses.max(1) as f64;
    println!(
        "== trace generation ({}): tables {table_build_us:.0} µs, sample {sample_ns:.1} \
         ns/access (table = exact on every draw), move-to-front {mtf_ns:.1} ns/access, \
         fill {fill_ns:.1} ns/event ==",
        Microservice::Web
    );
    Ok(Json::obj()
        .set("service", Json::Str(Microservice::Web.to_string()))
        .set("accesses_per_stream", Json::Int(accesses as i64))
        .set("table_build_us", Json::Num(table_build_us))
        .set("table_fallback_share", fallback)
        .set("table_matches_exact", Json::Bool(true))
        .set("sample_ns_per_access", Json::Num(sample_ns))
        .set("mtf_ns_per_access", Json::Num(mtf_ns))
        .set("fill_ns_per_event", Json::Num(fill_ns)))
}

/// Replays the page columns of one Web/Skylake18 window of `events` events
/// at the stock huge-page mix through the engine's [`TlbHierarchy`], which
/// probes its first-level arrays with stack distances, and through four
/// real [`LruSet`] first-level arrays fed the page ids, both pre-filled as
/// the engine pre-fills them and flushed after every 4096 events. Asserts
/// that every first-level probe agrees and returns the probe count.
fn tlb_ranks_match_lru(events: usize) -> Result<usize, BoxError> {
    const COLUMN: usize = 4096;
    const FLUSH: f64 = 0.3;
    let profile = Microservice::Web.profile(PlatformKind::Skylake18)?;
    let (cfg, stream) = (&profile.stock_config, &profile.stream);
    let plat = &cfg.platform;
    let policy = PagePolicy::resolve(
        &stream.pages,
        cfg.thp,
        cfg.shp_pages,
        cfg.thp_traits(),
        cfg.machine_memory_bytes,
    );
    let mix = HugePageMix {
        code_huge_fraction: policy.huge_code_fraction,
        data_huge_fraction: policy.huge_data_fraction,
    };
    // The engine's pre-fill: each 4 KiB stream's top half-STLB of ids.
    let top = |dist: &ReuseDistanceDist| {
        let pw = prewarm_len(dist);
        pw.saturating_sub(u64::from(plat.stlb_entries) / 2)..pw
    };
    let (code, data) = (top(&stream.code_page_reuse), top(&stream.data_page_reuse));
    let mut tlb = TlbHierarchy::prefilled(
        &plat.itlb,
        &plat.dtlb,
        plat.stlb_entries,
        code.clone(),
        data.clone(),
    )?;
    let lru = |entries: u32, ids: std::ops::Range<u64>| -> Result<LruSet, BoxError> {
        let mut array = LruSet::new(entries as usize)?;
        for id in ids {
            array.access(id);
        }
        Ok(array)
    };
    // Code 4 KiB, code 2 MiB, data 4 KiB, data 2 MiB.
    let mut arrays = [
        lru(plat.itlb.entries_4k, code)?,
        lru(plat.itlb.entries_2m, 0..0)?,
        lru(plat.dtlb.entries_4k, data)?,
        lru(plat.dtlb.entries_2m, 0..0)?,
    ];

    let mut gen = TraceGenerator::new(stream, mix, BASE_SEED);
    let mut batch = EventBatch::with_capacity(COLUMN);
    let (mut left, mut probes) = (events, 0);
    while left > 0 {
        let n = left.min(COLUMN);
        gen.fill_batch(&mut batch, n);
        for k in 0..n {
            let huge = batch.code_huge[k];
            let hit = arrays[usize::from(huge)].access(batch.code_pages[k]);
            assert_eq!(
                tlb.probe_code_l1(batch.code_page_ranks[k], huge),
                hit,
                "ITLB probe at stack distance {} disagrees with an LRU array",
                batch.code_page_ranks[k]
            );
        }
        for s in 0..batch.data_pages.len() {
            let huge = batch.data_huge[s];
            let hit = arrays[2 + usize::from(huge)].access(batch.data_pages[s]);
            assert_eq!(
                tlb.probe_data_l1(batch.data_page_ranks[s], huge),
                hit,
                "DTLB probe at stack distance {} disagrees with an LRU array",
                batch.data_page_ranks[s]
            );
        }
        probes += n + batch.data_pages.len();
        tlb.flush_fraction(FLUSH);
        for array in &mut arrays {
            array.flush_fraction(FLUSH);
        }
        left -= n;
    }
    let (_, itlb_misses, _) = tlb.itlb_stats();
    let (_, dtlb_misses, _) = tlb.dtlb_stats();
    println!(
        "== first-level TLB ({}): {probes} stack-distance probes match LRU arrays \
         ({itlb_misses} ITLB and {dtlb_misses} DTLB misses) ==",
        Microservice::Web
    );
    Ok(probes)
}

/// Times `iterations` calls of `op` and returns one result row.
fn ns_per_op(name: &str, iterations: u64, mut op: impl FnMut()) -> Json {
    let clock = Stopwatch::start();
    for _ in 0..iterations {
        op();
    }
    let ns = clock.elapsed_s() * 1e9 / iterations.max(1) as f64;
    println!("  {name:<28} {ns:>9.1} ns/op");
    Json::obj()
        .set("name", Json::Str(name.into()))
        .set("iterations", Json::Int(iterations as i64))
        .set("ns_per_op", Json::Num(ns))
}

/// Part 3: the engine's building blocks, each in a fixed-iteration loop
/// (fewer for the ~50 µs `t_quantile` inversion). None of these touch the
/// pass memo, so every iteration is real work.
fn components() -> Result<Json, BoxError> {
    let iterations = 1_000_000;
    println!("== components: ns/op over fixed iteration counts ==");
    let mut rows = Vec::new();

    let mut list = RankList::with_sequence(0..1_000_000u64);
    let mut state = 1u64;
    rows.push(ns_per_op("ranklist/move_to_front_1M", iterations, || {
        state = state
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let rank = ((state >> 33) as usize) % list.len();
        if let Some(v) = list.remove_at(rank) {
            list.push_front(black_box(v));
        }
    }));

    let spec = PlatformSpec::skylake18();
    let mut cache = SetAssocCache::from_geometry(&spec.llc, spec.llc.ways, 0.25)?;
    let mut line = 0u64;
    rows.push(ns_per_op("cache/llc_access", iterations, || {
        line = (line + 97) % 200_000;
        black_box(cache.access(line));
    }));

    let mut tlb = LruSet::new(1536)?;
    let mut page = 0u64;
    rows.push(ns_per_op("tlb/lru_set_access", iterations, || {
        page = (page + 13) % 4096;
        black_box(tlb.access(page));
    }));

    let dist =
        ReuseDistanceDist::from_survival_points(&[(512, 0.1), (65_536, 0.01)], 0.001, 1 << 20)?;
    let mut mapper = StackMapper::new(dist);
    let mut rng = SmallRng::seed_from_u64(BASE_SEED);
    rows.push(ns_per_op("trace/stack_mapper_access", iterations, || {
        black_box(mapper.access(&mut rng));
    }));

    let profile = Microservice::Web.profile(PlatformKind::Skylake18)?;
    let mut gen = TraceGenerator::new(&profile.stream, HugePageMix::default(), 5);
    rows.push(ns_per_op("trace/next_event_web", iterations, || {
        black_box(gen.next_event());
    }));

    rows.push(ns_per_op("stats/t_quantile", iterations / 100, || {
        black_box(t_quantile(black_box(0.975), black_box(199.0)));
    }));

    let a = Summary::from_moments(10_000, 100.0, 4.0);
    let b = Summary::from_moments(10_000, 100.5, 4.2);
    rows.push(ns_per_op("stats/welch_test", iterations, || {
        black_box(welch_test(black_box(&a), black_box(&b)));
    }));
    Ok(Json::Arr(rows))
}

/// Runs the suite: `TraceGenerator::new` timed over 20 seeds, the
/// generation split over 100k accesses per stream, then a 60k-instruction
/// window at three batch sizes when `smoke`; 200 seeds, 1M accesses, a 200k
/// window at five batch sizes plus the component loops otherwise.
///
/// # Errors
///
/// Returns the first engine or profile error.
pub fn run(smoke: bool, _hw: usize) -> Result<Json, BoxError> {
    let (window, evals, batch_sizes): (u64, u64, &[usize]) = if smoke {
        (60_000, 3, &[1, 64, 4096])
    } else {
        (200_000, 8, &[1, 16, 64, 512, 4096])
    };
    let mut payload = Json::obj()
        .set(
            "tracegen_new_us",
            Json::Num(tracegen_new_us(if smoke { 20 } else { 200 })?),
        )
        .set(
            "tracegen_split",
            tracegen_split(if smoke { 100_000 } else { 1_000_000 })?,
        )
        .set(
            "tlb_rank_probes",
            Json::Int(tlb_ranks_match_lru(window as usize)? as i64),
        )
        .set("tlb_ranks_match_lru", Json::Bool(true))
        .set("throughput", throughput(window, evals, batch_sizes)?)
        .set(
            "memo",
            memo_economics(window, if smoke { 100 } else { 10_000 })?,
        );
    if !smoke {
        payload = payload.set("components", components()?);
    }
    Ok(payload)
}
