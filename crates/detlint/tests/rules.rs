//! Fixture-driven self-tests: every rule must fire at exactly the expected
//! (rule, line) pairs, escapes must suppress and audit, and the real
//! workspace must lint clean (the same invariant CI's `lint-determinism`
//! job enforces).

use std::path::{Path, PathBuf};
use std::process::Command;

use detlint::{lint_paths, lint_source, Finding};

const R1: &str = include_str!("../fixtures/r1_wall_clock.rs");
const R2: &str = include_str!("../fixtures/r2_stream_const.rs");
const R3: &str = include_str!("../fixtures/r3_map_iter.rs");
const R4: &str = include_str!("../fixtures/r4_panic_path.rs");
const R5: &str = include_str!("../fixtures/r5_seed_trunc.rs");
const ALLOWS: &str = include_str!("../fixtures/allows.rs");

/// (rule, line) pairs of a finding list, in reported order.
fn shape(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn r1_wall_clock_fires_per_construct_and_respects_tests() {
    let findings = lint_source("crates/x/src/lib.rs", R1);
    assert_eq!(
        shape(&findings),
        vec![("wall_clock", 4), ("wall_clock", 9), ("wall_clock", 13)],
        "{findings:#?}"
    );
}

#[test]
fn r2_stream_const_flags_raw_xor_and_literal_reseed() {
    let findings = lint_source("crates/x/src/lib.rs", R2);
    assert_eq!(
        shape(&findings),
        vec![
            ("stream_const", 4),
            ("stream_const", 8),
            ("stream_const", 12)
        ],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("0xBEEF"));
}

#[test]
fn r2_duplicate_constants_are_called_out_across_sites() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("r2_stream_const.rs");
    let findings = lint_paths(&[fixture]).expect("fixture readable");
    let dup = findings
        .iter()
        .find(|f| f.line == 8)
        .expect("second 0xBEEF site reported");
    assert!(
        dup.message.contains("duplicates") && dup.message.contains(":4"),
        "duplicate site must reference the first: {dup}"
    );
}

#[test]
fn r3_map_iter_flags_iteration_not_lookup() {
    let findings = lint_source("crates/x/src/lib.rs", R3);
    assert_eq!(
        shape(&findings),
        vec![("map_iter", 11), ("map_iter", 25)],
        "{findings:#?}"
    );
}

#[test]
fn r4_panic_path_is_scoped_to_pipeline_library_code() {
    let in_scope = lint_source("crates/core/src/fixture.rs", R4);
    assert_eq!(
        shape(&in_scope),
        vec![("panic_path", 4), ("panic_path", 8), ("panic_path", 12)],
        "{in_scope:#?}"
    );
    // Out-of-scope crate: same source, no findings.
    assert!(lint_source("crates/archsim/src/fixture.rs", R4).is_empty());
    // Binaries may unwrap.
    assert!(lint_source("crates/core/src/bin/tool.rs", R4).is_empty());
}

#[test]
fn r5_seed_trunc_fires_only_inside_derivation_fns() {
    let findings = lint_source("crates/x/src/lib.rs", R5);
    assert_eq!(shape(&findings), vec![("seed_trunc", 4)], "{findings:#?}");
}

#[test]
fn allow_escapes_suppress_audit_and_reject_malformed() {
    let findings = lint_source("crates/x/src/lib.rs", ALLOWS);
    assert_eq!(
        shape(&findings),
        vec![
            ("unused_allow", 14),
            ("bad_allow", 19),
            ("bad_allow", 24),
            ("wall_clock", 25)
        ],
        "{findings:#?}"
    );
}

/// Shorthand: lint one fixture path (file or directory) under `fixtures/`.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    lint_paths(&[path]).expect("fixture readable")
}

#[test]
fn v2_ledger_key_resolves_against_registry() {
    let findings = lint_fixture("v2_ledger");
    assert_eq!(
        shape(&findings),
        vec![
            ("ledger_key", 32), // keys.rs: AlphaStop registered but never used
            ("ledger_key", 6),  // uses.rs: raw literal of registered key
            ("ledger_key", 7),  // uses.rs: one-edit near miss
            ("ledger_key", 8),  // uses.rs: unregistered key in registered domain
            ("ledger_key", 9),  // uses.rs: emitted but never read
        ],
        "{findings:#?}"
    );
    assert!(findings[0]
        .message
        .contains("never used outside the registry"));
    assert!(findings[1].message.contains("LedgerKey::AlphaGo"));
    assert!(findings[2]
        .message
        .contains("one edit from registered key \"alpha.go\""));
    assert!(findings[3].message.contains("LedgerDomain::Alpha"));
    assert!(findings[4].message.contains("emitted here but never read"));
}

#[test]
fn v2_stream_mask_registry_conformance_and_raw_use() {
    let findings = lint_fixture("v2_stream");
    assert_eq!(
        shape(&findings),
        vec![
            ("stream_const", 5), // raw.rs: v1 rule also sees the raw XOR
            ("stream_mask", 5),  // raw.rs: XOR with a registered mask value
            ("stream_const", 9),
            ("stream_mask", 9),  // raw.rs: seed_from_u64 of a registered mask
            ("stream_mask", 14), // streams.rs: Two reuses One's mask
            ("stream_mask", 27), // streams.rs: ALL diverges from decl order
        ],
        "{findings:#?}"
    );
    assert!(findings[4].message.contains("reuses mask 0x1111"));
    assert!(findings[5].message.contains("append-only"));
}

#[test]
fn v2_float_order_flags_unordered_and_completion_order_reduction() {
    let findings = lint_fixture("v2_float.rs");
    assert_eq!(
        shape(&findings),
        vec![
            ("float_order", 8), // inline .values().sum::<f64>()
            ("map_iter", 8),    // v1 rule fires on the same iteration
            ("map_iter", 13),
            ("float_order", 14), // `total +=` under `for … in map`
            ("float_order", 22), // spawn closure pushing under a lock
        ],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("not associative"));
    assert!(findings[4].message.contains("completion order"));
}

#[test]
fn v2_lock_discipline_double_lock_and_held_guards() {
    let findings = lint_fixture("v2_lock");
    assert_eq!(
        shape(&findings),
        vec![
            ("lock_discipline", 13), // slot re-locked while guard `a` lives
            ("lock_discipline", 18), // guard held across workspace call
            ("lock_discipline", 23), // workspace call chained onto the guard
        ],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("locked again"));
    assert!(findings[1].message.contains("held across a call"));
    // The scoped-release pattern (`released_first`) must stay clean.
    assert!(!findings.iter().any(|f| f.line > 25), "{findings:#?}");
}

#[test]
fn explain_covers_every_rule_and_json_is_sarif() {
    for rule in [
        "wall_clock",
        "stream_const",
        "map_iter",
        "panic_path",
        "seed_trunc",
        "ledger_key",
        "stream_mask",
        "float_order",
        "lock_discipline",
        "unused_allow",
        "bad_allow",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
            .arg("--explain")
            .arg(rule)
            .output()
            .expect("detlint binary runs");
        assert!(out.status.success(), "--explain {rule} must exit 0");
        let text = String::from_utf8(out.stdout).expect("utf-8");
        assert!(
            text.starts_with(&format!("{rule}: ")),
            "--explain {rule} must lead with the rule id: {text}"
        );
    }
    // Unknown rules are a usage error.
    let status = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--explain")
        .arg("no_such_rule")
        .status()
        .expect("detlint binary runs");
    assert_eq!(status.code(), Some(2));

    // SARIF output over a fixture with findings: stable, parseable shape.
    let sarif = std::env::temp_dir().join("detlint-selftest.sarif");
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let status = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--json")
        .arg(&sarif)
        .arg(fixtures.join("v2_lock"))
        .status()
        .expect("detlint binary runs");
    assert_eq!(status.code(), Some(0), "no --deny, so findings exit 0");
    let log = std::fs::read_to_string(&sarif).expect("sarif written");
    assert!(log.contains("\"version\": \"2.1.0\""));
    assert!(log.contains("\"ruleId\": \"lock_discipline\""));
    assert!(log.contains("\"startLine\": 13"));
    std::fs::remove_file(&sarif).ok();
}

#[test]
fn test_files_are_exempt_by_path() {
    // The same wall-clock fixture under a tests/ path reports nothing.
    assert!(lint_source("crates/x/tests/integration.rs", R1).is_empty());
}

/// The invariant CI enforces: the workspace's own sources lint clean,
/// including zero unused allow escapes.
#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let roots: Vec<PathBuf> = ["crates", "src", "examples", "tests"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    // Guard against the v2 passes silently no-oping: the real registry
    // must parse out of crates/telemetry/src/keys.rs with every key, or a
    // clean run proves nothing about ledger-key discipline.
    let keys_src = std::fs::read_to_string(root.join("crates/telemetry/src/keys.rs"))
        .expect("registry source readable");
    let reg = detlint::semantic::LedgerRegistry::parse_source("keys.rs", &keys_src)
        .expect("LedgerKey registry parses");
    assert_eq!(
        reg.key_names().count(),
        45,
        "every registry variant has a name arm"
    );
    let findings = lint_paths(&roots).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "workspace must satisfy the determinism contract:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every wall-clock read in the workspace goes through
/// `softsku_telemetry::Stopwatch`, so exactly one `wall_clock` allow
/// escape exists outside detlint's own sources and fixtures. A second one
/// means someone bypassed the stopwatch.
#[test]
fn stopwatch_is_the_only_wall_clock_escape() {
    fn escapes(dir: &Path, skip: &Path, found: &mut Vec<(PathBuf, usize)>) {
        for entry in std::fs::read_dir(dir).expect("workspace readable") {
            let path = entry.expect("dir entry").path();
            if path == skip {
                continue;
            }
            if path.is_dir() {
                escapes(&path, skip, found);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("source readable");
                let n = src.matches("detlint::allow(wall_clock)").count();
                if n > 0 {
                    found.push((path, n));
                }
            }
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let skip = root.join("crates").join("detlint");
    let mut found = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        escapes(&root.join(dir), &skip, &mut found);
    }
    let total: usize = found.iter().map(|(_, n)| n).sum();
    assert_eq!(
        total, 1,
        "expected one wall-clock escape (the Stopwatch), found {found:?}"
    );
    assert!(found[0].0.ends_with("crates/telemetry/src/clock.rs"));
}

/// `--deny` must exit nonzero on every fixture (each contains at least one
/// violation or audit finding) and zero on the clean workspace.
#[test]
fn deny_exit_codes() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for fixture in [
        "r1_wall_clock.rs",
        "r2_stream_const.rs",
        "r3_map_iter.rs",
        "r5_seed_trunc.rs",
        "allows.rs",
        "v2_ledger",
        "v2_stream",
        "v2_float.rs",
        "v2_lock",
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_detlint"))
            .arg("--deny")
            .arg(fixtures.join(fixture))
            .status()
            .expect("detlint binary runs");
        assert_eq!(status.code(), Some(1), "{fixture} must fail --deny");
    }
    // r4 needs its pipeline-crate path, which the real file system can't
    // fake here; its scope is covered by the lint_source test above.

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let status = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--deny")
        .arg(root.join("crates"))
        .arg(root.join("src"))
        .arg(root.join("examples"))
        .arg(root.join("tests"))
        .status()
        .expect("detlint binary runs");
    assert_eq!(status.code(), Some(0), "workspace must pass --deny");
}
