//! Hostile window arguments get typed errors from `Engine::run_colocated`
//! and `Engine::run_grid`, before anything is simulated or memoized: a NaN
//! load would otherwise pass `clamp` and report NaN MIPS, a zero-length
//! window would report its warm-up events as a measured window, and a
//! window whose warm-up plus measured events overflow a `u64` would wrap
//! to a short one. A grid checks every point by `run_colocated`'s rules.

use softsku::archsim::engine::Engine;
use softsku::archsim::ArchSimError;
use softsku::workloads::{Microservice, PlatformKind};

fn engine() -> Engine {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
    Engine::new(profile.stock_config, profile.stream, 77).unwrap()
}

/// The argument name `run_colocated` rejected, memo on and off alike.
fn rejected(instructions: u64, load: f64, background_bw_gbps: f64) -> String {
    let mut names = Vec::new();
    for memo in [true, false] {
        match engine()
            .with_memo(memo)
            .run_colocated(instructions, load, background_bw_gbps, None)
        {
            Err(ArchSimError::InvalidWindowArgument { name, .. }) => names.push(name),
            other => panic!("expected InvalidWindowArgument, got {other:?}"),
        }
    }
    assert_eq!(names[0], names[1]);
    names.swap_remove(0)
}

#[test]
fn non_finite_load_fraction_is_rejected() {
    for load in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(rejected(60_000, load, 0.0), "load_fraction");
    }
}

#[test]
fn non_finite_background_bandwidth_is_rejected() {
    for bw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(rejected(60_000, 0.8, bw), "background_bw_gbps");
    }
}

#[test]
fn zero_instruction_window_is_rejected() {
    assert_eq!(rejected(0, 0.8, 0.0), "instructions");
    assert!(engine().run_window(0, 0.8).is_err());
}

#[test]
fn window_whose_warmup_overflows_is_rejected() {
    // Windows this long take the 400k-instruction warm-up cap, so the
    // first of these overflows by one event.
    for instructions in [u64::MAX - 399_999, u64::MAX] {
        assert_eq!(rejected(instructions, 0.8, 0.0), "instructions");
    }
    let overridden = engine().with_warmup_instructions(u64::MAX);
    assert!(matches!(
        overridden.run_window(1, 0.8),
        Err(ArchSimError::InvalidWindowArgument { name, .. }) if name == "instructions"
    ));
}

/// The argument name `run_grid` rejected, memo on and off alike.
fn grid_rejected(instructions: u64, loads: [f64; 3]) -> String {
    let mut names = Vec::new();
    for memo in [true, false] {
        match engine().with_memo(memo).run_grid(instructions, loads) {
            Err(ArchSimError::InvalidWindowArgument { name, .. }) => names.push(name),
            other => panic!("expected InvalidWindowArgument, got {other:?}"),
        }
    }
    assert_eq!(names[0], names[1]);
    names.swap_remove(0)
}

#[test]
fn non_finite_load_at_any_grid_point_is_rejected() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for point in 0..3 {
            let mut loads = [0.5, 0.75, 1.0];
            loads[point] = bad;
            assert_eq!(
                grid_rejected(60_000, loads),
                "load_fraction",
                "point {point}"
            );
        }
    }
}

#[test]
fn zero_instruction_grid_is_rejected() {
    assert_eq!(grid_rejected(0, [0.5, 0.75, 1.0]), "instructions");
}

#[test]
fn grid_whose_warmup_overflows_is_rejected() {
    for instructions in [u64::MAX - 399_999, u64::MAX] {
        assert_eq!(
            grid_rejected(instructions, [0.5, 0.75, 1.0]),
            "instructions"
        );
    }
    let overridden = engine().with_warmup_instructions(u64::MAX);
    assert!(matches!(
        overridden.run_grid(1, [0.5, 0.75, 1.0]),
        Err(ArchSimError::InvalidWindowArgument { name, .. }) if name == "instructions"
    ));
}
