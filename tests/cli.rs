//! The `fpdq` binary's usage errors: a flag a command does not read, or a
//! stray argument, exits 2 with the usage text before any work starts.

use std::process::Command;

fn fpdq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fpdq")).args(args).output().expect("run fpdq")
}

#[test]
fn unknown_flags_and_stray_arguments_exit_2_with_usage() {
    for (args, message) in [
        (
            &[
                "generate",
                "--model",
                "tiny",
                "--config",
                "fp8",
                "--seeds",
                "1",
                "--bogus-flag",
                "3",
            ][..],
            "unknown flag --bogus-flag for 'generate'",
        ),
        (
            &["quantize", "--model", "tiny", "--config", "fp8", "--packed", "--sparse", "2:4"],
            "unknown flag --sparse for 'quantize'",
        ),
        (&["serve", "tiny"], "unexpected argument 'tiny' for 'serve'"),
    ] {
        let out = fpdq(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE: fpdq"), "{args:?}: no usage text");
        assert!(out.stdout.is_empty(), "{args:?} did work before rejecting its flags");
    }
}
