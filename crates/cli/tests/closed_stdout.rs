//! `asm` whose stdout reader has gone away, as in `asm stats g.smg | head -1`
//! once `head` exits: the command ends with exit 0 and no panic.

use std::process::{Command, Stdio};

#[test]
fn stats_into_a_pipe_without_a_reader_exits_zero_without_a_panic() {
    let asm = env!("CARGO_BIN_EXE_asm");
    let dir = std::env::temp_dir().join(format!("smin_cli_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let graph = dir.join("g.smg");
    let status = Command::new(asm)
        .args([
            "generate", "--kind", "er", "--n", "50", "--m", "100", "--out",
        ])
        .arg(&graph)
        .stdout(Stdio::null())
        .status()
        .expect("run asm generate");
    assert!(status.success(), "asm generate: {status}");

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(asm)
        .arg("stats")
        .arg(&graph)
        .stdout(writer)
        .output()
        .expect("run asm stats");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
