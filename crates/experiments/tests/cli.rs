//! The binaries' bad input: an output path the process cannot write must
//! end in one line naming the path and exit code 2, and a bad flag value
//! in the usage line and exit code 2 — never a panic. Asking for help is
//! not bad input: `--help` and `-h` print the usage line to stdout and
//! exit 0.

use std::path::PathBuf;
use std::process::Command;

/// Runs `bin args… <file>/<leaf>`, where `<file>` is a regular file under
/// the test tmpdir, and checks the binary rejects that path cleanly. A
/// path below a regular file is unwritable even for root.
fn assert_rejects(bin: &str, args: &[&str], leaf: &str) {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli_{leaf}_{}", std::process::id()));
    std::fs::write(&file, b"").expect("create the blocking file");
    let bad = file.join(leaf);
    let out = Command::new(bin)
        .args(args)
        .arg(&bad)
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&*bad.to_string_lossy()),
        "{args:?}: the error does not name the path: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    std::fs::remove_file(&file).expect("remove the blocking file");
}

#[test]
fn campaign_rejects_an_unwritable_artifact_path() {
    assert_rejects(
        env!("CARGO_BIN_EXE_campaign"),
        &["faceoff", "--shards", "1", "--out"],
        "x.json",
    );
}

#[test]
fn campaign_rejects_an_unwritable_progress_path() {
    assert_rejects(
        env!("CARGO_BIN_EXE_campaign"),
        &["faceoff", "--shards", "1", "--progress-json"],
        "p.jsonl",
    );
}

#[test]
fn repro_rejects_an_unwritable_csv_directory() {
    assert_rejects(
        env!("CARGO_BIN_EXE_repro"),
        &["f3", "--quick", "--csv"],
        "sub",
    );
}

#[test]
fn campaign_rejects_zero_shards() {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["faceoff", "--shards", "0"])
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: campaign"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn help_prints_the_usage_line_and_exits_zero() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_repro"), "repro"),
        (env!("CARGO_BIN_EXE_campaign"), "campaign"),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin)
                .arg(flag)
                .output()
                .expect("spawn the binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}: {stderr}");
            assert!(
                stdout.starts_with(&format!("usage: {name} ")),
                "{name} {flag}: {stdout}"
            );
            assert!(stderr.is_empty(), "{name} {flag}: {stderr}");
        }
    }
}

#[test]
fn repro_rejects_an_unknown_experiment_id() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--halp")
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment id: --halp"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
