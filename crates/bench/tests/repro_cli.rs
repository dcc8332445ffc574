//! The `repro` binary's argument handling, driven as a subprocess.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// A misspelt experiment must fail before any experiment runs, so a typo
/// in a script cannot pass by printing nothing.
#[test]
fn unknown_experiment_exits_2_before_running_anything() {
    for args in [
        &["no-such-thing"][..],
        &["fig6", "fig66"],
        &["all", "--quick"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown experiment") && stderr.contains("fig6, fig7"),
            "{args:?}: {stderr}"
        );
    }
}
