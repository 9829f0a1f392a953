//! Command-line contract of the `hotdog-worker` binary: a bad invocation
//! exits with status 2 and prints the usage line on stderr, without
//! trying to connect anywhere.
//!
//! Being an integration test of this package also makes Cargo build the
//! `hotdog-worker` binary during a plain `cargo test`, which the
//! subprocess-backed suites of the workspace spawn.

use std::process::{Command, Output};

const USAGE: &str = "usage: hotdog-worker --connect <host:port> --index <n>";

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hotdog-worker"))
        .args(args)
        .output()
        .expect("run hotdog-worker")
}

fn assert_usage_error(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "exit status: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(USAGE), "stderr: {stderr}");
}

#[test]
fn no_arguments_prints_usage() {
    assert_usage_error(&run(&[]));
}

#[test]
fn unknown_argument_is_rejected() {
    let out = run(&["--bogus"]);
    assert_usage_error(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument \"--bogus\""),
        "stderr: {stderr}"
    );
}
