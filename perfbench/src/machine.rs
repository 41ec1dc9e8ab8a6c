//! Facts about the machine and the code, recorded with every result set,
//! and the process's peak resident set.

use std::fs;
use std::path::Path;
use std::process::Command;

/// The machine and build facts printed beside every result.
#[derive(Debug, Clone)]
pub struct Facts {
    /// Threads the process may run at once.
    pub nproc: usize,
    /// Per-core L2 size in bytes (0 when sysfs does not say).
    pub l2_bytes: u64,
    /// Shared L3 size in bytes (0 when sysfs does not say).
    pub l3_bytes: u64,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` when run at the root of a git checkout, else
    /// `none`.
    pub commit: String,
    /// FNV-1a digest of the simulator sources (`crates/**/*.rs`, the
    /// manifests), which identifies the code even outside a git checkout.
    pub source_digest: String,
}

impl Facts {
    /// Gathers the facts; every probe degrades to a placeholder instead of
    /// failing.
    pub fn gather() -> Self {
        Facts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // Only inside a git checkout, so git never searches parent
            // directories.
            commit: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".into()),
            source_digest: source_digest(Path::new(".")),
        }
    }
}

/// Size in bytes of the level-`level` data or unified cache of CPU 0.
fn cache_bytes(level: u32) -> u64 {
    let root = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = fs::read_dir(root) else {
        return 0;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() != "Instruction" {
            return parse_cache_size(&read("size")).unwrap_or(0);
        }
    }
    0
}

/// Parses a sysfs cache size such as `2048K` or `105M`.
pub fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// The first line a command prints, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// FNV-1a over the sorted paths and bytes of the simulator sources under
/// `root`.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        if let Ok(bytes) = fs::read(f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

/// Extracts `VmHWM` (reported in kB) from a `/proc/<pid>/status` text, in
/// MiB.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(kib as f64 / 1024.0),
        Some(_) => None,
    }
}

/// 64-bit FNV-1a, the digest behind every result and source fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  221184 kB\nVmRSS:\t  1796 kB\n";

    #[test]
    fn vm_hwm_is_read_in_mib() {
        assert_eq!(parse_vm_hwm(STATUS), Some(216.0));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tx\nVmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn own_status_has_a_peak() {
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
    }

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("105M"), Some(105 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
