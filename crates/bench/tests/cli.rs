//! Command-line contract of the `reproduce` binary.

use std::process::Command;

#[test]
fn unknown_commands_exit_2_before_running_anything() {
    for args in [&["bench", "--quick"][..], &["no-such-table"][..]] {
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
