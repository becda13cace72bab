//! Command-line contract of the `repro` binary: every name is checked
//! before any experiment runs, and a bad one exits with status 2.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code and stdout.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
    )
}

#[test]
fn bad_arguments_exit_2_before_anything_runs() {
    for args in [
        &["fgi2"][..],
        &["table1", "fgi2"],
        &["table1", "--bogus"],
        &["fig2", "--store", "naive"],
        &["--store", "naive"],
        &["--chaos"],
        &["--chaos", "forty-two"],
        &["--sharded", "0"],
        &["--runtime", "threads"],
    ] {
        let (code, stdout) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?}");
        assert_eq!(stdout, "", "repro {args:?} must not run anything");
    }
}

#[test]
fn known_experiments_run() {
    let (code, stdout) = repro(&["table1", "fig4"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("Table 1"), "{stdout}");
    assert!(stdout.contains("Figure 4"), "{stdout}");
}
