//! The behavioural contract, committed: `tests/contract.txt` holds one
//! FNV-1a-64 digest per artefact, and this test recomputes every one.
//!
//! The artefacts are:
//! - each top-level section of each catalog report (the entries of
//!   `SimReport::to_json()` in key order, so an added or dropped section
//!   is an added or dropped line);
//! - the `traced-preemption-storm` Chrome-trace export (`--trace`);
//! - the stdout of every example, run through `cargo run --example`.
//!
//! Every digest is the same in debug and release builds, so one file
//! serves `cargo test` and `cargo test --release`. A mismatch names each
//! moved line (`subject part old → new`) and prints the whole recomputed
//! file. Re-capture by pasting that file over `tests/contract.txt`, and
//! only in a change that means to move behaviour: list every moved line
//! and its cause in CHANGES.md.
//!
//! The catalog pass also checks that `docs/SCENARIOS.md` names every
//! catalog scenario.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Output};

use kairos::sim::json::Json;
use kairos::sim::{Scenario, Simulator};

const CONTRACT: &str = include_str!("contract.txt");
const SCENARIOS_DOC: &str = include_str!("../docs/SCENARIOS.md");

const HEADER: &str = "\
# The behavioural contract: one FNV-1a-64 digest per artefact, checked by
# `tests/contract.rs` (`subject part digest`). Re-capture only on purpose:
# paste the file the failing test prints, and list every moved line and
# its cause in CHANGES.md.
";

/// Every example; `scenario` runs its default, `steady-churn`.
const EXAMPLES: [&str; 9] = [
    "admission_queue",
    "beamforming",
    "cluster",
    "fault_tolerance",
    "multi_app",
    "quickstart",
    "scenario",
    "service",
    "telemetry",
];

/// FNV-1a-64, with the offset basis and prime of `mapping_golden.rs`.
fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs an example in the test's own profile, so an example the test
/// build already compiled is reused. Every dependency is a local path,
/// so the run never needs the network.
fn run_example(name: &str, args: &[&str]) -> Output {
    let mut cargo = Command::new(env!("CARGO"));
    cargo.current_dir(env!("CARGO_MANIFEST_DIR")).args(["run", "--quiet", "--offline"]);
    if !cfg!(debug_assertions) {
        cargo.arg("--release");
    }
    cargo.args(["--example", name, "--"]).args(args);
    cargo.output().unwrap_or_else(|err| panic!("spawning `cargo run --example {name}`: {err}"))
}

/// The contract as this tree produces it, line by line, in file order.
fn recompute() -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = |subject: &str, part: &str, bytes: &[u8]| {
        lines.push(format!("{subject} {part} {:016x}", fnv(bytes)));
    };
    let mut undocumented = Vec::new();
    for scenario in Scenario::catalog() {
        let name = scenario.name.clone();
        if !SCENARIOS_DOC.contains(&format!("`{name}`")) {
            undocumented.push(name.clone());
        }
        let mut simulator = Simulator::new(scenario).expect("catalog scenarios are valid");
        let Json::Object(sections) = simulator.run().to_json() else {
            panic!("{name}: a report is a JSON object");
        };
        for (key, value) in &sections {
            line(&name, key, value.render().as_bytes());
        }
        if name == "traced-preemption-storm" {
            line(&name, "--trace", simulator.telemetry().chrome_trace().as_bytes());
        }
    }
    assert!(undocumented.is_empty(), "docs/SCENARIOS.md does not name {undocumented:?}");
    for example in EXAMPLES {
        let out = run_example(example, &[]);
        assert!(
            out.status.success(),
            "example {example} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        line(&format!("examples/{example}"), "stdout", &out.stdout);
    }
    lines
}

/// `subject part` → digest, for the lines of a contract file.
fn digests<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, &'a str> {
    lines
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.rsplit_once(' ').unwrap_or_else(|| panic!("malformed contract line {l:?}")))
        .collect()
}

#[test]
fn reports_exports_and_examples_match_the_committed_contract() {
    let lines = recompute();
    let mut file = HEADER.to_owned();
    for l in &lines {
        let _ = writeln!(file, "{l}");
    }
    if file == CONTRACT {
        return;
    }
    let old = digests(CONTRACT.lines());
    let new = digests(lines.iter().map(String::as_str));
    let mut moved = String::new();
    for key in old.keys().chain(new.keys().filter(|k| !old.contains_key(*k))) {
        let (was, now) = (old.get(key).copied(), new.get(key).copied());
        if was != now {
            let _ = writeln!(moved, "  {key} {} → {}", was.unwrap_or("-"), now.unwrap_or("-"));
        }
    }
    if moved.is_empty() {
        moved.push_str("  no digest moved; the line order or the header did\n");
    }
    panic!(
        "the behavioural contract moved:\n{moved}\n\
         If the change means to move it, replace tests/contract.txt with:\n\n{file}"
    );
}

#[test]
fn scenario_reports_an_unwritable_trace_path_and_exits_1() {
    // A path below a regular file cannot be created on any host.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/trace.json");
    let out = run_example("scenario", &["steady-churn", "--trace", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "an I/O error is reported, not a panic: {stderr}");
    assert!(stderr.contains("writing trace to"), "stderr: {stderr}");
}
