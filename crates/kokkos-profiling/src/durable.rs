//! Crash-safe file replacement, shared by every writer whose file must be
//! either the old one or the new one after a crash: trace exports, flight
//! bundles and the model's checkpoint images.

use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Replace `path` with `bytes`: create its directory, write
/// `path.with_extension(tmp_extension)`, fsync it, rename it over `path`,
/// then fsync the directory. The rename is atomic, so a crash leaves the
/// old file or the new one, never a torn one; without the last fsync the
/// rename itself may not survive a power loss, and the old file comes back.
pub fn replace(path: &Path, tmp_extension: &str, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(tmp_extension);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // A directory opens read-only and fsyncs on Unix; elsewhere the rename
    // is as durable as the platform makes it.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_creates_the_directory_and_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join(format!("kp-durable-{}", std::process::id()));
        let path = dir.join("nested").join("f.json");
        replace(&path, "json.tmp", b"one").unwrap();
        replace(&path, "json.tmp", b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bare_file_name_lands_in_the_working_directory() {
        // The working directory is the crate's: remove the file even when
        // an assertion fails.
        struct Remove(String);
        impl Drop for Remove {
            fn drop(&mut self) {
                std::fs::remove_file(&self.0).ok();
            }
        }
        let name = Remove(format!("kp-durable-bare-{}.bin", std::process::id()));
        replace(Path::new(&name.0), "tmp", b"x").unwrap();
        assert_eq!(std::fs::read(&name.0).unwrap(), b"x");
    }
}
