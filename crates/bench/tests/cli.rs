//! Command-line contract of the `reproduce` binary.

use std::process::Command;

#[test]
fn unknown_commands_exit_2_before_running_anything() {
    for args in [
        &["bench", "--quick"][..],
        &["no-such-table"][..],
        &["bench-verify", "BENCH_6.json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("the reproduce binary runs");
        assert_eq!(out.status.code(), Some(2), "reproduce {args:?}");
        assert!(out.stdout.is_empty(), "reproduce {args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown experiment id or subcommand") && stderr.contains("gap-gate"),
            "reproduce {args:?}: {stderr}"
        );
    }
}

#[test]
fn chaos_quick_keeps_injected_faults_off_stderr() {
    // Every injected fault is caught by the ladder or the service; none
    // may reach the panic hook, which would print it as a genuine panic.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["chaos", "--quick"])
        .output()
        .expect("the reproduce binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "reproduce chaos --quick: {stderr}"
    );
    let hook_lines = stderr
        .lines()
        .filter(|l| l.contains("failpoint.rs"))
        .count();
    assert_eq!(
        hook_lines,
        0,
        "injected faults reached the panic hook; stderr begins:\n{}",
        stderr.lines().take(4).collect::<Vec<_>>().join("\n")
    );
}
