//! Engine hot path: batched tick throughput, the report memo, and the
//! simulator's component loops.
//!
//! Part 1 measures raw window-simulation throughput with the memo off —
//! every run is a genuine evaluation — across batch sizes, and asserts at
//! runtime that every batch size produces bit-identical reports (the
//! batched tick is a pure performance control). Part 2 measures the report
//! memo: the cost of a cold evaluation against a memo hit, which is the
//! price `AbEnvironment::fork` replicas pay (or skip) when they re-measure
//! their parent's operating points. Part 3 (full mode) times the
//! memo-independent components the engine is built from — rank list,
//! caches, TLB, stack mapper, trace generator, A/B statistics — as
//! fixed-iteration ns/op loops.

use super::{BoxError, BASE_SEED};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softsku_archsim::cache::SetAssocCache;
use softsku_archsim::engine::{Engine, WindowReport};
use softsku_archsim::platform::PlatformSpec;
use softsku_archsim::ranklist::RankList;
use softsku_archsim::reuse::ReuseDistanceDist;
use softsku_archsim::tlb::LruSet;
use softsku_archsim::trace::{HugePageMix, StackMapper, TraceGenerator};
use softsku_telemetry::stats::{t_quantile, welch_test, Summary};
use softsku_telemetry::{Json, Stopwatch};
use softsku_workloads::{Microservice, PlatformKind};
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

fn engine_for(service: Microservice, seed: u64) -> Result<Engine, BoxError> {
    let profile = service.profile(PlatformKind::Skylake18)?;
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

    // Reference signatures at the default batch size, one per seed.
    let mut reference = Vec::new();
    for seed in 0..evals {
        let report = engine_for(service, BASE_SEED + seed)?
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
            let report = engine_for(service, BASE_SEED + seed)?
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
/// measurement and snapshotting its parent's finished report.
fn memo_economics(window: u64, hits: usize) -> Result<Json, BoxError> {
    // A tuple no other part of this process evaluates, so the first call is
    // guaranteed cold.
    let engine = engine_for(Microservice::Feed2, BASE_SEED + 9001)?;

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

    let speedup = cold_s / hit_s.max(1e-12);
    println!(
        "== report memo: cold {:.1} ms, hit {:.4} ms ({speedup:.0}x; fork replicas skip re-warm-up) ==",
        cold_s * 1e3,
        hit_s * 1e3
    );
    Ok(Json::obj()
        .set("window_instructions", Json::Int(window as i64))
        .set("cold_eval_ms", Json::Num(cold_s * 1e3))
        .set("memo_hit_ms", Json::Num(hit_s * 1e3))
        .set("hit_reps", Json::Int(hits as i64))
        .set("speedup", Json::Num(speedup))
        .set("bit_identical", Json::Bool(true)))
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
/// report memo, so every iteration is real work.
fn components() -> Result<Json, BoxError> {
    let iterations = 1_000_000;
    println!("== components: ns/op over fixed iteration counts ==");
    let mut rows = Vec::new();

    let mut list = RankList::with_sequence(7, 0..1_000_000u64);
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
    let mut mapper = StackMapper::new(dist, 3);
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

/// Runs the suite: a 60k-instruction window at three batch sizes when
/// `smoke`; a 200k window at five batch sizes plus the component loops
/// otherwise.
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
