//! Every `BENCH_*.json` at the repo root says how it was made: a
//! `"command"` whose `--bin` is a bin that still exists under
//! `crates/bench/src/bin/`. A record whose bin is gone can never be
//! re-run, so it fails here instead of going stale in the tree.

use std::path::Path;

/// The `"command"` string of a flat hand-written JSON record.
fn command(json: &str) -> Option<&str> {
    let (_, rest) = json.split_once("\"command\":")?;
    let (command, _) = rest.trim_start().strip_prefix('"')?.split_once('"')?;
    Some(command)
}

#[test]
fn every_bench_record_names_a_bin_that_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut records = 0;
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        records += 1;
        let json = std::fs::read_to_string(&path).unwrap();
        let command = command(&json).unwrap_or_else(|| panic!("{name} has no \"command\""));
        let bin = command
            .split_once("--bin ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("{name}: command {command:?} names no --bin"));
        let src = root.join("crates/bench/src/bin").join(format!("{bin}.rs"));
        assert!(src.is_file(), "{name}: command {command:?} runs {bin}, which does not exist");
    }
    assert!(records > 0, "no BENCH_*.json at the repo root");
}
