//! Crash-safe artifact writes: write-temp-then-rename.
//!
//! Every artifact the workspace persists — reports, dashboards, event
//! logs, traces, metrics snapshots, flight dumps, shard
//! packets — goes through [`atomic_write`]. The contents are written to
//! a sibling temporary file in the destination directory (so the final
//! rename never crosses a filesystem boundary) and the file only
//! appears under its real name once it is complete. A process killed
//! mid-write leaves at worst a stray `.tmp` sibling, never a truncated
//! or half-written artifact under the real name — which is what lets a
//! shard orchestrator treat "packet file exists" as "packet file is
//! whole", and lets `bmf merge` treat a corrupt packet as data
//! corruption rather than an ordinary crash artifact.

use std::io;
use std::io::Write as _;
use std::path::Path;

/// Writes `contents` to `path` atomically: the bytes land in a
/// temporary sibling (`.{name}.tmp-{pid}` in the same directory) that
/// is flushed, synced (best-effort) and then renamed over `path`.
/// Readers observe either the previous file or the complete new one,
/// never a prefix. On error the destination is left untouched and the
/// temporary is cleaned up.
pub fn atomic_write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        file.flush()?;
        // fsync is best-effort: rename-atomicity is the property the
        // workspace relies on; durability-after-power-loss is not.
        let _ = file.sync_all();
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bmf-fsio-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_overwrites_leaving_no_temp_sibling() {
        let dir = temp_dir("basic");
        let path = dir.join("artifact.json");
        atomic_write(&path, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        atomic_write(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_leaves_existing_destination_intact() {
        let dir = temp_dir("fail");
        let path = dir.join("keep.json");
        atomic_write(&path, b"precious").unwrap();
        // A destination whose parent does not exist must fail cleanly…
        let bad = dir.join("no-such-subdir").join("out.json");
        assert!(atomic_write(&bad, b"x").is_err());
        // …and a failed write elsewhere never disturbs earlier output.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "precious");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_pathless_destination() {
        assert!(atomic_write(PathBuf::from(".."), b"x").is_err());
    }
}
