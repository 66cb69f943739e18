//! `pnb-load`'s exit codes hold when its stderr cannot be written.

use std::process::{Command, Stdio};

#[test]
fn bad_rate_exits_2_when_stderr_is_a_closed_pipe() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // With the read end gone, every write to stderr fails with EPIPE.
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_pnb-load"))
        .args(["--addr", "127.0.0.1:1", "--rate", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("run pnb-load");
    assert_eq!(status.code(), Some(2), "{status:?}");
}
