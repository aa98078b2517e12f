//! The committed `BENCHMARK.json` is emitted by the binary from the same
//! tables that drive the run, so a metric or workload name cannot drift
//! from the code: this test fails when the two differ.

use std::process::Command;

#[test]
fn committed_benchmark_json_is_what_the_binary_emits() {
    let output = Command::new(env!("CARGO_BIN_EXE_kairos-benchmark"))
        .arg("--benchmark-json")
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let emitted = String::from_utf8(output.stdout).expect("the emitter writes UTF-8");
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        emitted, committed,
        "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- \
         --benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_kairos-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
