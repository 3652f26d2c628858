//! What the benchmark leaves behind: nothing. Scratch directories, child
//! processes and the freshness of the `paris-server` binary.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use crate::seam;

/// The build command the error messages point at.
pub const BUILD_COMMAND: &str = "benchmark/run.sh (or: cargo build --release -p paris-runtime \
     --bin paris-server && cargo build --release --manifest-path benchmark/Cargo.toml, both \
     with the same CARGO_TARGET_DIR)";

/// `<target>/benchmark-tmp/<pid>/`: durable directories live here. Wiped
/// when created and when dropped — which covers a panic, since the guard
/// sits on the stack of `main`.
pub struct TmpRoot {
    root: PathBuf,
    next: u32,
}

impl TmpRoot {
    pub fn create() -> std::io::Result<TmpRoot> {
        // `<target>/release/paris-benchmark` → `<target>`; tests run from
        // `<target>/debug/deps/`, one level deeper, which is as good.
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or_else(|| std::io::Error::other("the executable has no target directory"))?;
        let all = target.join("benchmark-tmp");
        // What a killed run could not wipe: directories of processes that
        // are gone.
        for stale in std::fs::read_dir(&all).into_iter().flatten().flatten() {
            let owner = stale.file_name();
            if !Path::new("/proc").join(&owner).exists() {
                let _ = std::fs::remove_dir_all(stale.path());
            }
        }
        let root = all.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(TmpRoot { root, next: 0 })
    }

    /// A directory no earlier call returned.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(self.next.to_string())
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Checks that every process in `pids` has ended and been waited for (a
/// zombie still has its `/proc` entry).
pub fn unreaped(pids: &[u32]) -> Vec<u32> {
    pids.iter()
        .copied()
        .filter(|pid| Path::new(&format!("/proc/{pid}")).exists())
        .collect()
}

/// Newest modification time of a library source file (`…/src/**/*.rs`)
/// under `dir`. Test and bench targets are left out: editing them does not
/// make cargo rebuild `paris-server`, so they must not make it look stale.
fn newest_source_under(dir: &Path, in_src: bool, newest: &mut Option<SystemTime>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "bench" {
                newest_source_under(&path, in_src || name == "src", newest);
            }
        } else if in_src && path.extension().is_some_and(|e| e == "rs") {
            if let Ok(modified) = entry.metadata().and_then(|m| m.modified()) {
                *newest = (*newest).max(Some(modified));
            }
        }
    }
}

/// Refuses to start the socket backend with a missing `paris-server`, or
/// one older than the program's sources under `repo_root`: either would
/// otherwise show up as a transport timeout, or as numbers of other code.
pub fn check_server_binary(repo_root: &Path) -> Result<(), String> {
    let Some(binary) = seam::server_binary_beside_exe() else {
        return Err(format!(
            "paris-server is not beside the benchmark executable; build with {BUILD_COMMAND}"
        ));
    };
    let built = std::fs::metadata(&binary)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    let mut newest = None;
    newest_source_under(&repo_root.join("crates"), false, &mut newest);
    match newest {
        Some(source) if source > built => Err(format!(
            "{} is older than the sources under {}; rebuild with {BUILD_COMMAND}",
            binary.display(),
            repo_root.display()
        )),
        _ => Ok(()),
    }
}
