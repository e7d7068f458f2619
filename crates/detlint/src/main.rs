//! detlint CLI.
//!
//! ```text
//! cargo run -p detlint --release -- [--deny] [--json <path>] [PATH...]
//! cargo run -p detlint --release -- --explain <rule>
//! ```
//!
//! Lints every `.rs` file under the given paths (default: `crates src
//! examples tests`; missing paths are skipped). Findings are printed as
//! `file:line: [rule] message`, sorted, deterministically.
//!
//! * `--deny` — exit nonzero when any finding is reported (CI mode).
//! * `--json <path>` — additionally write the findings as a SARIF 2.1.0
//!   log to `<path>`, suitable for code-scanning upload or artifact
//!   archival. The JSON is emitted with sorted, stable field order so two
//!   runs over the same tree produce byte-identical files.
//! * `--explain <rule>` — print the long-form rationale for one rule id
//!   (see [`detlint`] crate docs for the full table) and exit.
//!
//! Exit status: 0 when clean (or findings exist but `--deny` was not
//! passed), 1 when `--deny` is set and findings exist, 2 on usage or IO
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

/// One catalog entry: rule id, one-line summary, long-form rationale.
///
/// The order of this table is the canonical rule order: v1 line rules
/// first, then the v2 semantic passes, then the allow-audit rules.
/// `--explain` listings and the SARIF `rules` array both follow it.
const RULES: [(&str, &str, &str); 11] = [
    (
        detlint::RULE_WALL_CLOCK,
        "wall-clock time in simulation logic",
        "Simulated results must be a pure function of (config, seed).\n\
         Wall-clock sources (Instant::now, SystemTime::now, elapsed timers)\n\
         leak host timing into that function and break replayability.\n\
         Use the simulation clock, or confine timing to benches/reports.",
    ),
    (
        detlint::RULE_STREAM_CONST,
        "raw seed-stream constant outside the registry",
        "Every derived RNG stream must come from the seed-stream registry\n\
         (StreamFamily) so stream identities are unique and documented.\n\
         XOR-ing a seed with an ad-hoc constant creates an unregistered\n\
         stream that can silently collide with a registered one.",
    ),
    (
        detlint::RULE_MAP_ITER,
        "iteration over unordered map state",
        "HashMap/HashSet iteration order is unspecified and varies between\n\
         runs and platforms. Any simulation state that flows through such\n\
         an iteration picks up that nondeterminism. Use BTreeMap/BTreeSet,\n\
         or sort the items before consuming them.",
    ),
    (
        detlint::RULE_PANIC_PATH,
        "panic in a no-panic crate",
        "Crates on the no-panic list (core, cluster, knobs) must surface\n\
         failures as Result so the fleet coordinator can quarantine the\n\
         failing slot instead of crashing the process. unwrap/expect/panic\n\
         in library paths of those crates defeat that containment.",
    ),
    (
        detlint::RULE_SEED_TRUNC,
        "seed truncated to fewer than 64 bits",
        "Casting a u64 seed to u32/usize (or masking its low bits) folds\n\
         distinct seeds onto the same stream, so two configurations that\n\
         should be independent replicate each other. Thread the full u64\n\
         through to the RNG constructor.",
    ),
    (
        detlint::RULE_LEDGER_KEY,
        "ledger-key literal not resolved through the registry",
        "Every ODS series metric and trace-track name lives in the closed\n\
         LedgerKey registry (telemetry::keys). A raw \"domain.key\" literal\n\
         at an emit or read site can drift from the registry spelling, so\n\
         emitters and readers silently stop agreeing. This pass flags raw\n\
         literals of registered keys (use LedgerKey::X / .name()),\n\
         unregistered keys in registered domains, edit-distance-1 near\n\
         misses of registered keys, keys emitted but never read (orphans),\n\
         and registry entries never emitted (dead keys).",
    ),
    (
        detlint::RULE_STREAM_MASK,
        "seed-stream registry conformance violation",
        "The StreamFamily registry is append-only and collision-free: each\n\
         variant has exactly one mask and one name arm, masks and names\n\
         are pairwise distinct, and ALL lists variants in declaration\n\
         order. This pass re-proves those invariants on every run and\n\
         flags raw XOR or seed_from_u64 use of a registered mask value\n\
         outside the registry file.",
    ),
    (
        detlint::RULE_FLOAT_ORDER,
        "float accumulation in nondeterministic order",
        "f64 addition is not associative: summing the same values in a\n\
         different order gives different bits. Folding or summing floats\n\
         out of an unordered map, or merging worker results in completion\n\
         order, makes results depend on iteration/scheduling order. Sort\n\
         first, or merge in worker-index order.",
    ),
    (
        detlint::RULE_LOCK_DISCIPLINE,
        "mutex guard misuse around worker-pool slots",
        "Worker-pool slots sit behind a Mutex: each lock is expected to be\n\
         short-lived and disjoint. This pass flags taking the same lock\n\
         twice while a guard is live (self-deadlock) and holding a guard\n\
         across a call to another workspace function (lock-ordering risk\n\
         and serialization). Restructure to compute outside the lock, or\n\
         suppress with a reasoned detlint::allow when the span is the\n\
         point.",
    ),
    (
        detlint::RULE_UNUSED_ALLOW,
        "detlint::allow that suppresses nothing",
        "An allow escape whose rule no longer fires on its region is dead\n\
         documentation: it claims a violation that does not exist and can\n\
         mask a future, different violation at the same site. Delete it.",
    ),
    (
        detlint::RULE_BAD_ALLOW,
        "malformed detlint::allow escape",
        "Allow escapes must name a suppressible rule and carry a reason:\n\
         `detlint::allow(<rule>): <why this site is sound>`. Anything else\n\
         is unauditable and is rejected rather than silently ignored.",
    ),
];

fn explain(rule: &str) -> ExitCode {
    for (id, short, long) in RULES {
        if id == rule {
            println!("{id}: {short}\n\n{long}");
            return ExitCode::SUCCESS;
        }
    }
    eprintln!("detlint: unknown rule '{rule}'; known rules:");
    for (id, short, _) in RULES {
        eprintln!("  {id:<16} {short}");
    }
    ExitCode::from(2)
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the findings as a SARIF 2.1.0 log. Hand-rolled (the linter is
/// dependency-free by design); field order is fixed so output is stable.
fn sarif(findings: &[detlint::Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": \"2.1.0\",\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"detlint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, short, _)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            json_escape(id),
            json_escape(short),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}{}\n",
            json_escape(f.rule),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut json_out: Option<PathBuf> = None;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("detlint: --json requires a path argument");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next() {
                Some(rule) => return explain(&rule),
                None => {
                    eprintln!("detlint: --explain requires a rule id (see --help)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: detlint [--deny] [--json <path>] [PATH...]");
                println!("       detlint --explain <rule>");
                println!("  --deny           exit nonzero if any finding is reported");
                println!("  --json <path>    also write findings as SARIF 2.1.0 to <path>");
                println!("  --explain <rule> print the rationale for one rule id");
                println!("rules:");
                for (id, short, _) in RULES {
                    println!("  {id:<16} {short}");
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("detlint: unknown flag '{other}' (see --help)");
                return ExitCode::from(2);
            }
            path => roots.push(PathBuf::from(path)),
        }
    }
    if roots.is_empty() {
        roots = ["crates", "src", "examples", "tests"]
            .iter()
            .map(PathBuf::from)
            .collect();
    }

    let findings = match detlint::lint_paths(&roots) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("detlint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, sarif(&findings)) {
            eprintln!("detlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("detlint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "detlint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
        if deny {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    }
}
