//! `live_campaign --store-dir` over a log written under another model
//! revision refuses it in one line, naming the file and both revisions,
//! and exits with status 1 instead of panicking; a `--store-dir` without
//! a directory is a usage error, status 2.

use power_archive::FleetWal;
use power_sim::store::SIMULATION_KEY_EPOCH;
use power_telemetry::{FleetJournal, LIVE_CAMPAIGN_ID};
use std::process::Command;

#[test]
fn a_wal_from_another_revision_is_refused_in_one_line() {
    let dir = std::env::temp_dir().join(format!("live-campaign-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live_campaign.wal");
    let _ = std::fs::remove_file(&path);
    // The creation bytes of a live journal: the population, then the
    // model revision it was written under.
    let old = SIMULATION_KEY_EPOCH - 1;
    let mut created = 64u64.to_le_bytes().to_vec();
    created.extend(old.to_le_bytes());
    FleetWal::open(&path)
        .unwrap()
        .record_created(LIVE_CAMPAIGN_ID, 0, &created)
        .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_live_campaign"))
        .arg("--store-dir")
        .arg(&dir)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr,
        format!(
            "live_campaign: {}: campaign journal was written under model revision {old}, \
             and this build is model revision {SIMULATION_KEY_EPOCH}\n",
            path.display()
        )
    );
}

#[test]
fn a_store_dir_without_a_directory_is_a_usage_error() {
    for args in [&["--store-dir"][..], &["--store-dir", "--full"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_live_campaign"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{args:?}: {stderr}");
        assert!(
            lines[0].ends_with(": --store-dir needs a directory"),
            "{stderr}"
        );
        assert!(
            lines[1].starts_with("usage: ")
                && lines[1].ends_with(" [--quick | --full] [--store-dir DIR]"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the campaign");
    }
}
