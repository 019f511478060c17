//! Builds the figure binaries from the checkout's sources and refuses
//! stale ones.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::SystemTime;

/// Builds every `cfu-bench` binary with the repository's own workspace
/// and returns the directory holding them.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "-p", "cfu-bench", "--bins"])
        // Keep this process's stdout for the result line alone.
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the figure binaries failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    Ok(root.join(target).join("release"))
}

/// Raises `newest` to the newest `.rs` file under `dir`, skipping the
/// directory `skip`.
fn newest_source(dir: &Path, skip: &Path, newest: &mut SystemTime) -> std::io::Result<()> {
    if dir == skip {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let meta = entry.metadata()?;
        if meta.is_dir() {
            newest_source(&path, skip, newest)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            *newest = (*newest).max(meta.modified()?);
        }
    }
    Ok(())
}

fn modified(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Errors when a figure binary is missing or older than a source it is
/// built from: any `crates/*/src/**/*.rs` except the other binaries'
/// own files. A stale binary silently measures old code.
pub fn check_fresh(root: &Path, dir: &Path, names: &[&str]) -> Result<(), String> {
    let crates = root.join("crates");
    let bins = crates.join("bench").join("src").join("bin");
    let mut newest = SystemTime::UNIX_EPOCH;
    let scan = std::fs::read_dir(&crates).and_then(|mut entries| {
        entries.try_for_each(|e| newest_source(&e?.path().join("src"), &bins, &mut newest))
    });
    scan.map_err(|e| format!("cannot scan crates/ for sources: {e}"))?;
    for name in names {
        let sources = newest.max(modified(&bins.join(format!("{name}.rs")))?);
        let path = dir.join(name);
        if modified(&path).map_err(|e| format!("no figure binary {e}"))? < sources {
            return Err(format!("{} is older than its sources; rebuild it", path.display()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, File};
    use std::time::Duration;

    fn touch(path: &Path, at: SystemTime) {
        fs::create_dir_all(path.parent().expect("has a parent")).expect("create dir");
        File::create(path).and_then(|f| f.set_modified(at)).expect("touch");
    }

    #[test]
    fn a_binary_is_stale_only_against_its_own_sources() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target").join("test-freshness");
        let _ = fs::remove_dir_all(&root);
        let t = |s: u64| SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + s);
        touch(&root.join("crates/dse/src/lib.rs"), t(0));
        touch(&root.join("crates/bench/src/bin/x.rs"), t(0));
        touch(&root.join("crates/bench/src/bin/y.rs"), t(0));
        touch(&root.join("crates/dse/tests/slow.rs"), t(50));
        touch(&root.join("bin/x"), t(10));
        touch(&root.join("bin/y"), t(10));
        let bin = root.join("bin");
        assert_eq!(check_fresh(&root, &bin, &["x", "y"]), Ok(()));
        // Another binary's source and a test file do not make `x` stale...
        touch(&root.join("crates/bench/src/bin/y.rs"), t(20));
        assert_eq!(check_fresh(&root, &bin, &["x"]), Ok(()));
        assert!(check_fresh(&root, &bin, &["y"]).is_err());
        // ...a library source does, and so does a missing binary.
        touch(&root.join("crates/dse/src/lib.rs"), t(30));
        assert!(check_fresh(&root, &bin, &["x"]).is_err());
        assert!(check_fresh(&root, &bin, &["z"]).is_err());
        fs::remove_dir_all(&root).expect("clean up");
    }
}
